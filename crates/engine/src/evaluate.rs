//! Candidate-configuration scoring for the spec auto-tuner.
//!
//! The tuner's unit of work is "how many post-compressed bytes would
//! this field cost under that predictor configuration?". Because a
//! field's streams depend only on its own value column and the PC
//! column (see the `columnar` module), candidates can be scored in
//! isolation: model the column once per candidate, post-compress the
//! resulting code and miss-value streams, and report the sizes. That is
//! exactly the engine's own modeling path — [`tcgen_predictors::FieldBank::model_column`]
//! plus [`blockzip`] at the engine's level — so sample scores rank
//! candidates the way full-container sizes would.
//!
//! Candidates fan out onto the ordered worker pool under
//! [`crate::EngineOptions::threads`]; results come back in submission
//! order, so scores are byte-identical for every thread count.

use std::sync::Arc;

use tcgen_predictors::{FieldBank, TableOccupancy};
use tcgen_spec::FieldSpec;
use tcgen_telemetry::{driver_span, Recorder};

use crate::options::EngineOptions;
use crate::pool::{Pipeline, PoolTelemetry};
use crate::postcodec::PostCodec;
use crate::streams::write_value;
use crate::Error;

/// The measured cost of one candidate field configuration on a sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateScore {
    /// Post-compressed size of both streams — the tuner's objective.
    pub packed_bytes: u64,
    /// Post-compressed size of the predictor-code stream alone.
    pub packed_codes: u64,
    /// Post-compressed size of the miss-value stream alone.
    pub packed_values: u64,
    /// How often each prediction slot was the emitted code.
    pub counts: Vec<u64>,
    /// How often no predictor was correct.
    pub misses: u64,
    /// Value-table bytes the candidate allocates.
    pub table_bytes: u64,
    /// Lines touched per table after modeling the sample.
    pub occupancy: Vec<TableOccupancy>,
}

struct EvalJob {
    field: FieldSpec,
    pcs: Arc<Vec<u64>>,
    values: Arc<Vec<u64>>,
}

fn evaluate(
    job: &EvalJob,
    options: &EngineOptions,
    codec: &mut PostCodec,
) -> Result<CandidateScore, Error> {
    let mut bank = FieldBank::new(&job.field, options.predictor);
    let mut codes: Vec<u8> = Vec::with_capacity(job.values.len());
    let mut misses: Vec<u64> = Vec::new();
    bank.model_column(&job.pcs, &job.values, &mut codes, &mut misses);

    let width = if options.minimize_types { job.field.bytes() as usize } else { 8 };
    let mut value_bytes: Vec<u8> = Vec::with_capacity(misses.len() * width);
    for &v in &misses {
        write_value(&mut value_bytes, v, width);
    }

    let n_slots = job.field.prediction_count() as usize;
    let mut counts = vec![0u64; n_slots];
    let mut miss_count = 0u64;
    for &c in &codes {
        if (c as usize) < n_slots {
            counts[c as usize] += 1;
        } else {
            miss_count += 1;
        }
    }

    let packed_codes = codec.compress(&codes).map_err(Error::Post)?.len() as u64;
    let packed_values = codec.compress(&value_bytes).map_err(Error::Post)?.len() as u64;
    Ok(CandidateScore {
        packed_bytes: packed_codes + packed_values,
        packed_codes,
        packed_values,
        counts,
        misses: miss_count,
        table_bytes: bank.table_bytes() as u64,
        occupancy: bank.occupancy(),
    })
}

/// Scores each candidate configuration of one field against a sampled
/// column, in order. `pcs` is the PC column of the same records; for the
/// PC field itself, pass the value column as both (its L1 is one, so the
/// line is always zero and the PC cannot matter).
///
/// Every candidate starts from freshly zeroed tables, and results are
/// collected in candidate order regardless of
/// [`EngineOptions::threads`], so a given `(candidates, sample)` pair
/// always scores identically.
///
/// # Panics
///
/// Panics if `pcs` and `values` differ in length (as
/// [`tcgen_predictors::FieldBank::model_column`] requires).
pub fn score_candidates(
    candidates: &[FieldSpec],
    pcs: &Arc<Vec<u64>>,
    values: &Arc<Vec<u64>>,
    options: &EngineOptions,
) -> Result<Vec<CandidateScore>, Error> {
    score_candidates_with_telemetry(candidates, pcs, values, options, None)
}

/// [`score_candidates`] with an optional telemetry recorder: each
/// candidate evaluation is traced as a `tune.eval` span (on the
/// `tune-eval` pool's worker tracks when fanned out, on the driver track
/// otherwise) and counted under `tune.evals`. Scores are unaffected.
pub fn score_candidates_with_telemetry(
    candidates: &[FieldSpec],
    pcs: &Arc<Vec<u64>>,
    values: &Arc<Vec<u64>>,
    options: &EngineOptions,
    tel: Option<&Recorder>,
) -> Result<Vec<CandidateScore>, Error> {
    if let Some(rec) = tel {
        rec.counter("tune.evals").add(candidates.len() as u64);
    }
    let jobs: Vec<EvalJob> = candidates
        .iter()
        .map(|f| EvalJob { field: f.clone(), pcs: Arc::clone(pcs), values: Arc::clone(values) })
        .collect();
    let threads = options.effective_threads().min(jobs.len().max(1));
    if threads <= 1 {
        let mut codec = options.backend.codec(options.level);
        return jobs
            .iter()
            .map(|j| {
                let _s = driver_span(tel, "tune.eval");
                evaluate(j, options, &mut codec)
            })
            .collect();
    }
    let pipe: Pipeline<'_, EvalJob, Result<CandidateScore, Error>> =
        Pipeline::start(threads, PoolTelemetry::from(tel, "tune-eval", "tune.eval"), || {
            let mut codec = options.backend.codec(options.level);
            move |job: EvalJob| evaluate(&job, options, &mut codec)
        });
    let n = jobs.len();
    for job in jobs {
        pipe.submit(job);
    }
    let mut scores = Vec::with_capacity(n);
    for _ in 0..n {
        scores.push(
            pipe.next().map_err(|_| Error::Internal("evaluation worker panicked".into()))??,
        );
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    fn sample() -> (Arc<Vec<u64>>, Arc<Vec<u64>>) {
        let pcs: Vec<u64> = (0..4_000u64).map(|i| 0x40_0000 + (i % 7) * 4).collect();
        let values: Vec<u64> = (0..4_000u64).map(|i| 0x9000 + i * 8).collect();
        (Arc::new(pcs), Arc::new(values))
    }

    fn candidates() -> Vec<FieldSpec> {
        let spec = parse(presets::TCGEN_A).unwrap();
        let base = &spec.fields[1];
        vec![
            base.clone(),
            base.with_predictors(vec![tcgen_spec::PredictorSpec::lv(1)]),
            base.with_predictors(vec![tcgen_spec::PredictorSpec::dfcm(1, 2)]),
        ]
    }

    #[test]
    fn scores_are_thread_count_independent() {
        let (pcs, values) = sample();
        let one = EngineOptions { threads: 1, ..EngineOptions::tcgen() };
        let four = EngineOptions { threads: 4, ..EngineOptions::tcgen() };
        let a = score_candidates(&candidates(), &pcs, &values, &one).unwrap();
        let b = score_candidates(&candidates(), &pcs, &values, &four).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stride_data_favors_the_stride_capable_candidate() {
        let (pcs, values) = sample();
        let options = EngineOptions::tcgen();
        let scores = score_candidates(&candidates(), &pcs, &values, &options).unwrap();
        // A pure stride is DFCM territory: the LV-only candidate misses
        // nearly always and must pay for every value.
        assert!(scores[2].packed_bytes < scores[1].packed_bytes, "{scores:?}");
        assert_eq!(scores[2].counts.len(), 2);
        assert_eq!(
            scores[2].counts.iter().sum::<u64>() + scores[2].misses,
            4_000,
            "every record is accounted for"
        );
        assert!(!scores[0].occupancy.is_empty());
    }

    #[test]
    fn empty_sample_scores_cleanly() {
        let pcs = Arc::new(Vec::new());
        let values = Arc::new(Vec::new());
        let scores =
            score_candidates(&candidates(), &pcs, &values, &EngineOptions::tcgen()).unwrap();
        assert_eq!(scores.len(), 3);
        assert_eq!(scores[0].counts.iter().sum::<u64>() + scores[0].misses, 0);
    }
}
