//! The in-process workloads, `corpus` and `large`: one caller in a closed
//! loop over `Engine::compress`, `Engine::decompress` and `extract_range`,
//! the entry points the CLI reaches through `tcgen_core::Tcgen`.

use std::io::Cursor;
use std::time::Instant;

use tcgen_engine::{extract_range, Engine, EngineOptions, Recorder};
use tcgen_spec::TraceSpec;
use tcgen_telemetry::TrackId;

use crate::inputs::{mix, range_in_span, Trace, RECORD_BYTES};
use crate::metrics::{same, Op, Sample, Tally};
use crate::timed;

/// A trace plus its checkpointed container, the source of extracts.
pub struct Item {
    pub trace: Trace,
    pub seekable: Vec<u8>,
}

/// Everything one pass loop needs.
pub struct Loop<'a> {
    pub workload: &'a str,
    pub spec: &'a TraceSpec,
    pub engine: &'a Engine,
    /// Options of the checkpointed containers (speed-only settings apply).
    pub seek_options: &'a EngineOptions,
    pub items: &'a [Item],
    pub seed: u64,
    pub extract_len: u64,
    /// Self-test hook: flip one byte of the first container before it is
    /// decompressed, which must surface as one failed check.
    pub flip_byte: bool,
    /// When set, the engine traces into this recorder and every call is
    /// wrapped in a `bench.*` span on the track.
    pub trace: Option<(&'a Recorder, TrackId)>,
}

/// When a pass loop stops: after the pass that crosses a time limit, or
/// after a fixed number of passes.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(f64),
    Passes(usize),
}

/// Runs whole passes — each trace compressed, its container decompressed
/// and checked, then one seeded range extracted and checked — so every
/// run measures the same mix of traces. Returns the samples, the wall
/// time and the number of passes.
pub fn passes(lp: &Loop, stop: Stop, tally: &mut Tally) -> (Vec<Sample>, f64, usize) {
    let traced;
    let engine = match lp.trace {
        Some((rec, _)) => {
            traced = lp.engine.clone().with_telemetry(rec.clone());
            &traced
        }
        None => lp.engine,
    };
    let span = |name: &'static str, start: Instant| {
        if let Some((rec, track)) = lp.trace {
            rec.record_span(track, name, start);
        }
    };
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut pass = 0usize;
    loop {
        match stop {
            Stop::After(secs) if pass > 0 && start.elapsed().as_secs_f64() >= secs => break,
            Stop::Passes(n) if pass >= n => break,
            _ => {}
        }
        for (i, item) in lp.items.iter().enumerate() {
            let label = &item.trace.label;
            let raw = &item.trace.raw;
            let t = Instant::now();
            let (packed, secs) = timed(|| engine.compress(raw).map_err(|e| e.to_string()));
            span("bench.compress", t);
            let packed = match packed {
                Ok(mut packed) => {
                    tally.check(lp.workload, "compress", label, Ok(()));
                    samples.push(Sample {
                        op: Op::Compress,
                        class: "tcgen_a.max",
                        input: i,
                        secs,
                        raw_bytes: raw.len(),
                        packed_bytes: packed.len(),
                    });
                    if lp.flip_byte && pass == 0 && i == 0 {
                        let mid = packed.len() / 2;
                        packed[mid] ^= 0x40;
                    }
                    Some(packed)
                }
                Err(e) => {
                    tally.check(lp.workload, "compress", label, Err(e));
                    None
                }
            };
            if let Some(packed) = packed {
                let t = Instant::now();
                let (out, secs) =
                    timed(|| engine.decompress(&packed).map_err(|e| e.to_string()));
                span("bench.decompress", t);
                let check = out.and_then(|out| same(&out, raw));
                if check.is_ok() {
                    samples.push(Sample {
                        op: Op::Decompress,
                        class: "decompress",
                        input: i,
                        secs,
                        raw_bytes: raw.len(),
                        packed_bytes: 0,
                    });
                }
                tally.check(lp.workload, "decompress", label, check);
            }

            let range = range_in_span(
                mix(lp.seed, i as u64),
                pass,
                item.trace.records(),
                lp.extract_len,
                lp.seek_options.block_records as u64,
                lp.seek_options.checkpoint_blocks as u64,
            );
            let t = Instant::now();
            let (got, secs) = timed(|| {
                extract_range(
                    lp.spec,
                    lp.seek_options,
                    &mut Cursor::new(&item.seekable),
                    range.clone(),
                    lp.trace.map(|(rec, _)| rec),
                )
                .map_err(|e| e.to_string())
            });
            span("bench.extract", t);
            let check = got.and_then(|got| same(&got, item.trace.slice(&range)));
            if check.is_ok() {
                samples.push(Sample {
                    op: Op::Extract,
                    class: "extract",
                    input: i,
                    secs,
                    raw_bytes: (range.end - range.start) as usize * RECORD_BYTES,
                    packed_bytes: 0,
                });
            }
            tally.check(lp.workload, "extract", label, check);
        }
        pass += 1;
    }
    (samples, start.elapsed().as_secs_f64(), pass)
}
