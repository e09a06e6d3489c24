//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions on the workload's own inputs, from this
//! crate, and records a span per call; the program gains no span or
//! counter for it.

use std::io::Cursor;
use std::time::Instant;

use tcgen_engine::codec::{raw_streams, replay_streams};
use tcgen_engine::{extract_range, Backend, Engine, EngineOptions, Recorder, SEEK_BYTES_READ};
use tcgen_spec::presets::TCGEN_A;
use tcgen_spec::TraceSpec;
use tcgen_telemetry::TrackId;

use crate::inputs::{mix, range_at, Trace, HEADER_BYTES, SMALL_SPEC};
use crate::metrics::{quantile, same, Metrics, Op, Sample, Tally, MIB};
use crate::timed;

/// A spec as the workloads pair it with a backend.
pub struct Pairing {
    pub label: &'static str,
    pub text: &'static str,
    pub backend: Backend,
}

impl Pairing {
    pub fn options(&self) -> EngineOptions {
        EngineOptions { backend: self.backend, ..EngineOptions::tcgen() }
    }
}

/// TCGEN_A with `max` (every workload) and the small-table spec with
/// `fast` (serve-mixed's second compress kind). Both are probed on every
/// workload's traces, so each workload reports the same metric names.
pub const PAIRINGS: [Pairing; 2] = [
    Pairing { label: "tcgen_a", text: TCGEN_A, backend: Backend::Max },
    Pairing { label: "small", text: SMALL_SPEC, backend: Backend::Fast },
];

/// Fixed per-call cost of one pairing, from a header-only trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fixed {
    pub compress_s: f64,
    pub decompress_s: f64,
}

/// The probe context: where spans go and where checks are counted.
pub struct Probe<'a> {
    pub workload: &'a str,
    pub rec: &'a Recorder,
    pub track: TrackId,
    pub tally: &'a mut Tally,
}

impl Probe<'_> {
    fn time<T>(
        &self,
        span: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> (Result<T, String>, f64) {
        let start = Instant::now();
        let result = timed(f);
        self.rec.record_span(self.track, span, start);
        result
    }

    pub fn check(&mut self, op: &str, input: &str, outcome: Result<(), String>) -> bool {
        let ok = outcome.is_ok();
        self.tally.check(self.workload, op, input, outcome);
        ok
    }
}

fn median_ms(secs: &[f64]) -> f64 {
    quantile(secs, 0.5) * 1e3
}

/// `spec.parse_ms`: the median time of `tcgen_spec::parse` over the
/// workload's spec texts.
pub fn spec_parse(p: &mut Probe, texts: &[&str], out: &mut Metrics) {
    let mut secs = Vec::new();
    for _ in 0..50 {
        for text in texts {
            let (spec, s) = p.time("probe.spec.parse", || {
                tcgen_spec::parse(text).map_err(|e| e.to_string())
            });
            if p.check("spec.parse", "spec", spec.map(drop)) {
                secs.push(s);
            }
        }
    }
    out.push("spec.parse_ms", median_ms(&secs), "ms");
}

/// The engine, predictor, post-codec and stage metrics of one pairing on
/// `traces`. Modeling and replay run single-threaded, so their wall time
/// is busy time; fixed cost is subtracted from them.
pub fn pairing(p: &mut Probe, pair: &Pairing, traces: &[&Trace], out: &mut Metrics) -> Fixed {
    let label = pair.label;
    let spec = match tcgen_spec::parse(pair.text) {
        Ok(spec) => spec,
        Err(e) => {
            p.check("spec.parse", label, Err(e.to_string()));
            return Fixed::default();
        }
    };
    let options = pair.options();
    let engine = Engine::new(spec.clone(), options);
    let serial = EngineOptions { threads: 1, model_threads: 1, ..options };
    let header = &traces[0].raw[..HEADER_BYTES];

    let mut fixed_c = Vec::new();
    let mut fixed_d = Vec::new();
    let mut fixed_model = Vec::new();
    let mut fixed_replay = Vec::new();
    for _ in 0..9 {
        let (packed, s) =
            p.time("probe.engine.fixed", || engine.compress(header).map_err(|e| e.to_string()));
        fixed_c.push(s);
        let (back, s) = p.time("probe.engine.fixed", || {
            engine.decompress(&packed?).map_err(|e| e.to_string())
        });
        if p.check("engine.fixed", "header-only", back.and_then(|b| same(&b, header))) {
            fixed_d.push(s);
        }
        let (streams, s) = p.time("probe.model", || {
            raw_streams(&spec, &serial, header).map_err(|e| e.to_string())
        });
        fixed_model.push(s);
        let (_, s) = p.time("probe.replay", || {
            replay_streams(&spec, &serial, streams?).map_err(|e| e.to_string())
        });
        fixed_replay.push(s);
    }
    let fixed =
        Fixed { compress_s: quantile(&fixed_c, 0.5), decompress_s: quantile(&fixed_d, 0.5) };
    let (model_fixed, replay_fixed) =
        (quantile(&fixed_model, 0.5), quantile(&fixed_replay, 0.5));

    let (mut model_s, mut replay_s, mut records, mut value_bytes) = (0.0, 0.0, 0u64, 0usize);
    let (mut hits, mut coded) = (0u64, 0u64);
    let (mut stream_bytes, mut packed_bytes, mut pack_s, mut unpack_s) =
        (0usize, 0usize, 0.0, 0.0);
    let (mut call_c, mut call_d) = (0.0, 0.0);
    let (pack_span, unpack_span) = match pair.backend {
        Backend::Fast => ("probe.pack.fast", "probe.unpack.fast"),
        _ => ("probe.pack.max", "probe.unpack.max"),
    };
    let mut codec = pair.backend.codec(options.level);
    for trace in traces {
        let input = trace.label.as_str();
        let (streams, s) = p.time("probe.model", || {
            raw_streams(&spec, &serial, &trace.raw).map_err(|e| e.to_string())
        });
        let streams = match streams {
            Ok(streams) => streams,
            Err(e) => {
                p.check("model", input, Err(e));
                continue;
            }
        };
        model_s += s - model_fixed;
        records += trace.records();
        value_bytes += streams.iter().skip(1).step_by(2).map(Vec::len).sum::<usize>();
        for stream in &streams {
            let (packed, s) =
                p.time(pack_span, || codec.compress(stream).map_err(|e| e.to_string()));
            let packed = match packed {
                Ok(packed) => packed,
                Err(e) => {
                    p.check("pack", input, Err(e));
                    continue;
                }
            };
            pack_s += s;
            let (back, s) = p.time(unpack_span, || {
                codec.decompress(&packed, stream.len()).map_err(|e| e.to_string())
            });
            if p.check("unpack", input, back.and_then(|b| same(&b, stream))) {
                stream_bytes += stream.len();
                packed_bytes += packed.len();
                unpack_s += s;
            }
        }
        let (body, s) = p.time("probe.replay", || {
            replay_streams(&spec, &serial, streams).map_err(|e| e.to_string())
        });
        if p.check("replay", input, body.and_then(|b| same(&b, &trace.raw[HEADER_BYTES..]))) {
            replay_s += s - replay_fixed;
        }
        let (usage, _) = p.time("probe.usage", || {
            engine.compress_with_usage(&trace.raw).map_err(|e| e.to_string())
        });
        match usage {
            Ok((_, usage)) => {
                for field in &usage.fields {
                    coded += field.total();
                    hits += field.total() - field.misses;
                }
            }
            Err(e) => {
                p.check("usage", input, Err(e));
            }
        }
        if pair.backend == Backend::Max {
            let (packed, s) = p.time("probe.engine.compress", || {
                engine.compress(&trace.raw).map_err(|e| e.to_string())
            });
            call_c += s;
            let (back, s) = p.time("probe.engine.decompress", || {
                engine.decompress(&packed?).map_err(|e| e.to_string())
            });
            if p.check("decompress", input, back.and_then(|b| same(&b, &trace.raw))) {
                call_d += s;
            }
        }
    }
    let n = records as f64;
    out.push(format!("engine.fixed_compress_ms.{label}"), fixed.compress_s * 1e3, "ms");
    out.push(format!("engine.fixed_decompress_ms.{label}"), fixed.decompress_s * 1e3, "ms");
    out.push(format!("model.ns_per_record.{label}"), model_s * 1e9 / n, "ns");
    out.push(format!("replay.ns_per_record.{label}"), replay_s * 1e9 / n, "ns");
    out.push(format!("model.hit_rate.{label}"), hits as f64 / coded as f64, "fraction");
    out.push(
        format!("model.value_bytes_per_record.{label}"),
        value_bytes as f64 / n,
        "B/record",
    );
    let backend = pair.backend.profile();
    out.push(format!("pack.mb_s.{backend}"), stream_bytes as f64 / MIB / pack_s, "MiB/s");
    out.push(format!("unpack.mb_s.{backend}"), stream_bytes as f64 / MIB / unpack_s, "MiB/s");
    out.push(format!("pack.ratio.{backend}"), stream_bytes as f64 / packed_bytes as f64, "x");
    if pair.backend == Backend::Max {
        let model_busy = model_s + model_fixed * traces.len() as f64;
        let replay_busy = replay_s + replay_fixed * traces.len() as f64;
        out.push("codec.compress_stage_frac", (model_busy + pack_s) / call_c, "fraction");
        out.push("codec.decompress_stage_frac", (replay_busy + unpack_s) / call_d, "fraction");
    }
    fixed
}

/// `seek.extract_ms` and `seek.bytes_read_per_record`: in-process
/// `extract_range` over in-memory containers, `reps` seeded ranges per
/// container, read through the `seek.bytes_read` counter.
#[allow(clippy::too_many_arguments)]
pub fn seek(
    p: &mut Probe,
    spec: &TraceSpec,
    options: &EngineOptions,
    sources: &[(&Trace, &[u8])],
    reps: usize,
    seed: u64,
    len: u64,
    out: &mut Metrics,
) {
    let counter_rec = Recorder::new();
    let mut secs = Vec::new();
    let mut records = 0u64;
    for (k, &(trace, container)) in sources.iter().enumerate() {
        for r in 0..reps {
            let key = mix(!seed, (k * reps + r) as u64);
            let range = range_at(key, trace.records(), len);
            let (got, s) = p.time("probe.seek.extract", || {
                extract_range(
                    spec,
                    options,
                    &mut Cursor::new(container),
                    range.clone(),
                    Some(&counter_rec),
                )
                .map_err(|e| e.to_string())
            });
            if p.check("extract", &trace.label, got.and_then(|g| same(&g, trace.slice(&range))))
            {
                secs.push(s);
                records += range.end - range.start;
            }
        }
    }
    let bytes = counter_rec.counter(SEEK_BYTES_READ).get();
    out.push("seek.extract_ms", median_ms(&secs), "ms");
    out.push("seek.bytes_read_per_record", bytes as f64 / records as f64, "B/record");
}

/// `engine.fixed_share`: the fixed cost of every timed call over the
/// summed call time — the share of the workload fixed-cost work can help.
pub fn fixed_share(samples: &[Sample], fixed: &[Fixed; 2]) -> f64 {
    let [a, small] = fixed;
    let cost: f64 = samples
        .iter()
        .map(|s| match (s.op, s.class) {
            (Op::Compress, "small.fast") => small.compress_s,
            (Op::Compress, _) => a.compress_s,
            _ => a.decompress_s,
        })
        .sum();
    cost / samples.iter().map(|s| s.secs).sum::<f64>()
}

/// Every probe of a traced run that needs only the workload's traces.
pub fn all(p: &mut Probe, texts: &[&str], traces: &[&Trace], out: &mut Metrics) -> [Fixed; 2] {
    spec_parse(p, texts, out);
    PAIRINGS.map(|pair| pairing(p, &pair, traces, out))
}
