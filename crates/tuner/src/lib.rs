//! # tcgen-tuner
//!
//! The spec auto-tuner: given a trace and a base specification, searches
//! the predictor-configuration space — which predictors, at which
//! heights and orders, over which table sizes — and emits the
//! configuration that post-compresses the trace best.
//!
//! This automates the paper's §7.5 workflow ("start with a trace
//! specification that covers a wide range of predictors and then
//! eliminate the useless predictors") and goes one step further: instead
//! of pruning a hand-written superset, it *constructs* per-field
//! configurations by greedy beam search, scoring every candidate by the
//! actual size of its post-compressed code and miss-value streams on a
//! sampled window of the trace ([`tcgen_engine::score_candidates`]).
//! Fields are independent given the PC column, so candidates fan out
//! onto the engine's ordered worker pool; scores, and therefore the
//! emitted spec, are byte-identical for every thread count.
//!
//! The search runs in three stages per field, under a per-field
//! evaluation budget:
//!
//! 1. **Singles** — the base configuration plus every candidate
//!    predictor on its own ([`tcgen_predictors::predictor_candidates`]).
//!    Predictors that never hit, or that a shorter sibling of the same
//!    family and order beats, are dropped from the menu.
//! 2. **Beam** — the best configurations so far are extended one
//!    surviving predictor at a time, keeping the
//!    [`TunerOptions::beam_width`] best, until the budget runs out or a
//!    round stops improving.
//! 3. **Sizing** — the winner's table-occupancy counters propose smaller
//!    (and, for well-filled tables, larger) power-of-two L1/L2 sizes.
//!
//! Finally the tuned and base specs compress the *full* trace once each;
//! if the tuned spec loses, the base spec is emitted instead
//! ([`TuneOutcome::used_base`]), so tuning never publishes a regression.

use std::sync::Arc;

use tcgen_engine::{Engine, EngineOptions};
use tcgen_predictors::CandidateSpace;
use tcgen_spec::{SpecError, TraceSpec};
use tcgen_telemetry::{driver_span, Recorder};

mod report;
mod sample;
mod search;

pub use report::report_json;
pub use search::{Evaluation, FieldSearch, Stage};

/// Tuning parameters. The defaults suit multi-million-record traces;
/// shrink [`TunerOptions::sample_records`] and
/// [`TunerOptions::budget_evals`] for smoke tests.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Upper bound on records sampled for scoring. The sample is taken
    /// as evenly spaced chunks with a seed-derived phase, so it sees
    /// program phases beyond the warmup without reading the whole trace.
    pub sample_records: usize,
    /// Upper bound on candidate evaluations *per field*.
    pub budget_evals: usize,
    /// Seed for the sampling phase. Fixed seed + fixed trace + fixed
    /// budget means a byte-identical tuned spec, at any thread count.
    pub seed: u64,
    /// How many configurations survive each beam-search round.
    pub beam_width: usize,
    /// Most predictors a tuned field may combine.
    pub max_predictors: usize,
    /// The predictor menu to draw from.
    pub space: CandidateSpace,
    /// Engine configuration used for scoring and the final full-trace
    /// guard. Thread counts here only affect speed, never the result.
    pub engine: EngineOptions,
}

impl Default for TunerOptions {
    fn default() -> Self {
        Self {
            sample_records: 1 << 18,
            budget_evals: 96,
            seed: 0,
            beam_width: 3,
            max_predictors: 4,
            space: CandidateSpace::default(),
            engine: EngineOptions::tcgen(),
        }
    }
}

/// Tuner failures.
#[derive(Debug)]
pub enum TuneError {
    /// The trace does not match the base specification's layout.
    Engine(tcgen_engine::Error),
    /// The search produced a specification the validator rejects —
    /// indicates a bug in candidate generation, not bad input.
    Spec(SpecError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Engine(e) => write!(f, "{e}"),
            TuneError::Spec(e) => write!(f, "tuned spec failed validation: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Engine(e) => Some(e),
            TuneError::Spec(e) => Some(e),
        }
    }
}

impl From<tcgen_engine::Error> for TuneError {
    fn from(e: tcgen_engine::Error) -> Self {
        TuneError::Engine(e)
    }
}

impl From<SpecError> for TuneError {
    fn from(e: SpecError) -> Self {
        TuneError::Spec(e)
    }
}

/// Everything a tuning run found.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning specification — the search result, or the base spec
    /// when [`TuneOutcome::used_base`] is set.
    pub tuned: TraceSpec,
    /// The base specification the search started from.
    pub base: TraceSpec,
    /// Per-field search logs: every candidate evaluated and its score.
    pub fields: Vec<FieldSearch>,
    /// Records actually sampled for scoring.
    pub sampled_records: usize,
    /// Records in the trace.
    pub total_records: usize,
    /// Candidate evaluations spent across all fields.
    pub evals: usize,
    /// Full-trace container size under the base spec.
    pub base_container_bytes: u64,
    /// Full-trace container size under the search's best spec.
    pub tuned_container_bytes: u64,
    /// Whether the final guard fell back to the base spec because the
    /// search's best spec compressed the full trace worse.
    pub used_base: bool,
}

impl TuneOutcome {
    /// The emitted container size: tuned, unless the guard fell back.
    pub fn final_container_bytes(&self) -> u64 {
        if self.used_base {
            self.base_container_bytes
        } else {
            self.tuned_container_bytes
        }
    }
}

/// Tunes `base` against `raw` (a trace matching it) and returns the
/// winning specification plus the full search log.
///
/// Deterministic: the same `(base, raw, options)` triple — including
/// [`TunerOptions::seed`] — produces a byte-identical
/// [`TuneOutcome::tuned`] at any [`EngineOptions::threads`] setting.
///
/// # Errors
///
/// [`TuneError::Engine`] if `raw` is not a whole number of records
/// after the header.
pub fn tune(
    base: &TraceSpec,
    raw: &[u8],
    options: &TunerOptions,
) -> Result<TuneOutcome, TuneError> {
    tune_with_telemetry(base, raw, options, None)
}

/// [`tune`] with an optional telemetry recorder: sampling, each field's
/// search, and the full-trace guard are traced as `tune.sample` /
/// `tune.field` / `tune.guard` spans, candidate evaluations show up as
/// `tune.eval` spans and the `tune.evals` counter, and the guard
/// compressions feed the `compress.*` stages. The emitted spec is
/// byte-identical with and without a recorder.
pub fn tune_with_telemetry(
    base: &TraceSpec,
    raw: &[u8],
    options: &TunerOptions,
    tel: Option<&Recorder>,
) -> Result<TuneOutcome, TuneError> {
    let (columns, sampled_records, total_records) = {
        let _s = driver_span(tel, "tune.sample");
        sample::sample_columns(base, raw, options.sample_records, options.seed)?
    };
    let pc_index = base.pc_index();

    let mut tuned = base.clone();
    let mut fields = Vec::with_capacity(base.fields.len());
    let mut evals = 0usize;
    for (fi, field) in base.fields.iter().enumerate() {
        // The PC field models against its own column (its L1 is one, so
        // the line is always zero); everyone else against the PC column.
        let pcs: &Arc<Vec<u64>> = &columns[if fi == pc_index { fi } else { pc_index }];
        let _s = driver_span(tel, "tune.field");
        let result =
            search::search_field(field, pcs, &columns[fi], fi == pc_index, options, tel)?;
        evals += result.search.evaluations.len();
        tuned = tuned.with_field(result.field);
        fields.push(result.search);
    }
    tcgen_spec::validate(&tuned)?;

    // Full-trace guard: a sample can mislead, the emitted spec must not.
    let guard_span = driver_span(tel, "tune.guard");
    let guard_engine = |spec: &TraceSpec| {
        let engine = Engine::new(spec.clone(), options.engine);
        match tel {
            Some(rec) => engine.with_telemetry(rec.clone()),
            None => engine,
        }
    };
    let base_container_bytes = guard_engine(base).compress(raw)?.len() as u64;
    let tuned_container_bytes = guard_engine(&tuned).compress(raw)?.len() as u64;
    drop(guard_span);
    let used_base = tuned_container_bytes > base_container_bytes;
    if used_base {
        tuned = base.clone();
    }

    Ok(TuneOutcome {
        tuned,
        base: base.clone(),
        fields,
        sampled_records,
        total_records,
        evals,
        base_container_bytes,
        tuned_container_bytes,
        used_base,
    })
}
