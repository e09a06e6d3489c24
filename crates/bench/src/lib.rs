//! # tcgen-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures — the seven competing compressors behind one
//! interface, the three performance metrics of §6.5, harmonic-mean
//! aggregation, and the trace corpus of Table 1.

use std::time::Instant;

use tcgen_baselines::{BzipOnly, CodecError, Mache, Pdats2, Sbc, Sequitur, TraceCompressor};
use tcgen_engine::{Backend, Engine, EngineOptions, Recorder};
use tcgen_spec::presets;
use tcgen_tracegen::{generate_trace, suite, ProgramSpec, TraceKind, VpcTrace};

/// An engine configuration adapted to the common codec interface.
pub struct EngineCodec {
    name: &'static str,
    engine: Engine,
}

impl EngineCodec {
    /// Wraps an engine under a display name.
    pub fn new(name: &'static str, spec_source: &str, options: EngineOptions) -> Self {
        let spec = tcgen_spec::parse(spec_source).expect("preset specs are valid");
        Self { name, engine: Engine::new(spec, options) }
    }

    /// Attaches a telemetry recorder to the wrapped engine; measurements
    /// then feed its spans and counters without changing their bytes.
    #[must_use]
    pub fn with_telemetry(mut self, recorder: Recorder) -> Self {
        self.engine = self.engine.with_telemetry(recorder);
        self
    }
}

impl TraceCompressor for EngineCodec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compress(&self, raw: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.engine.compress(raw).map_err(|e| CodecError::BadTrace(e.to_string()))
    }

    fn decompress(&self, packed: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.engine.decompress(packed).map_err(|e| CodecError::Corrupt(e.to_string()))
    }
}

/// The seven §7 algorithms plus the two non-default TCgen post-
/// compression profiles, in a fixed display order. `TCgen` itself is
/// `--profile max`; the `TCgen-balanced` and `TCgen-fast` rows measure
/// the ratio/speed trade the other backends buy.
pub fn algorithms() -> Vec<Box<dyn TraceCompressor>> {
    vec![
        Box::new(EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())),
        Box::new(EngineCodec::new(
            "TCgen-balanced",
            presets::TCGEN_A,
            EngineOptions { backend: Backend::Balanced, ..EngineOptions::tcgen() },
        )),
        Box::new(EngineCodec::new(
            "TCgen-fast",
            presets::TCGEN_A,
            EngineOptions { backend: Backend::Fast, ..EngineOptions::tcgen() },
        )),
        Box::new(EngineCodec::new("VPC3", presets::TCGEN_A, EngineOptions::vpc3())),
        Box::new(Sbc),
        Box::new(Sequitur::default()),
        Box::new(Mache),
        Box::new(Pdats2),
        Box::new(BzipOnly),
    ]
}

/// The TCgen(B) configuration (paper §7.5).
pub fn tcgen_b() -> EngineCodec {
    EngineCodec::new("TCgen(B)", presets::TCGEN_B, EngineOptions::tcgen())
}

/// The six Table 2 engine configurations, labelled as in the paper.
pub fn ablation_rows() -> Vec<(&'static str, EngineOptions)> {
    vec![
        ("no smart update", EngineOptions::no_smart_update()),
        ("no type minimization", EngineOptions::no_type_minimization()),
        ("no shared tables", EngineOptions::no_shared_tables()),
        ("no fast hash function", EngineOptions::no_fast_hash()),
        ("all of the above", EngineOptions::all_deoptimized()),
        ("full optimizations", EngineOptions::tcgen()),
    ]
}

/// One compression + decompression measurement (§6.5 inputs).
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Uncompressed size in bytes.
    pub original: usize,
    /// Compressed size in bytes.
    pub compressed: usize,
    /// Compression wall time in seconds.
    pub compress_seconds: f64,
    /// Decompression wall time in seconds.
    pub decompress_seconds: f64,
}

impl Measurement {
    /// Compression rate: `uncompressed / compressed` (unitless).
    pub fn rate(&self) -> f64 {
        self.original as f64 / self.compressed as f64
    }

    /// Compression speed in bytes per second.
    pub fn compress_speed(&self) -> f64 {
        self.original as f64 / self.compress_seconds
    }

    /// Decompression speed in bytes per second.
    pub fn decompress_speed(&self) -> f64 {
        self.original as f64 / self.decompress_seconds
    }
}

/// Runs one codec over one raw trace, verifying losslessness (the paper
/// "diffs" every decompressed trace against the original).
///
/// # Panics
///
/// Panics if the codec fails or the decompressed trace differs.
pub fn measure(codec: &dyn TraceCompressor, raw: &[u8]) -> Measurement {
    let t0 = Instant::now();
    let packed = codec.compress(raw).expect("compression failed");
    let compress_seconds = t0.elapsed().as_secs_f64().max(1e-9);
    let t1 = Instant::now();
    let restored = codec.decompress(&packed).expect("decompression failed");
    let decompress_seconds = t1.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(restored, raw, "{} is not lossless", codec.name());
    Measurement {
        original: raw.len(),
        compressed: packed.len(),
        compress_seconds,
        decompress_seconds,
    }
}

/// Measured cost of leaving telemetry attached: TCgen compression
/// throughput (bytes/s) without and with a recorder, best of `runs`
/// passes each so scheduler noise doesn't masquerade as overhead.
/// Informational — the recorder's atomics tick at block boundaries, so
/// the two numbers should agree to within a couple of percent.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryOverhead {
    /// Best compression speed with no recorder attached (bytes/s).
    pub stats_off: f64,
    /// Best compression speed with a recorder attached (bytes/s).
    pub stats_on: f64,
}

impl TelemetryOverhead {
    /// Fractional slowdown: `0.02` means stats-on ran 2% slower.
    pub fn overhead_fraction(&self) -> f64 {
        (1.0 - self.stats_on / self.stats_off).max(0.0)
    }
}

/// Times TCgen compression of `raw` without and with a recorder.
///
/// # Panics
///
/// Panics if compression fails or `runs` is zero.
pub fn measure_telemetry_overhead(raw: &[u8], runs: usize) -> TelemetryOverhead {
    assert!(runs > 0, "need at least one run");
    let best = |codec: &EngineCodec| {
        (0..runs).map(|_| measure(codec, raw).compress_speed()).fold(f64::MIN, f64::max)
    };
    let plain = EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen());
    let observed = EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())
        .with_telemetry(Recorder::new());
    TelemetryOverhead { stats_off: best(&plain), stats_on: best(&observed) }
}

/// Measured cost of the *service* observability discipline on top of a
/// plain recorder: per-job histogram records plus a background window
/// sampler, exactly what `tcgen serve` adds over `--stats`. Like
/// [`TelemetryOverhead`], informational — histograms tick once per run
/// and the sampler reads counters off the hot path, so the two speeds
/// should agree to within noise.
#[derive(Debug, Clone, Copy)]
pub struct MetricsOverhead {
    /// Best compression speed with only a recorder attached (bytes/s).
    pub recorder_only: f64,
    /// Best compression speed with the recorder plus live histograms
    /// and a sampled window ring (bytes/s).
    pub metrics_on: f64,
}

impl MetricsOverhead {
    /// Fractional slowdown: `0.02` means metrics-on ran 2% slower.
    pub fn overhead_fraction(&self) -> f64 {
        (1.0 - self.metrics_on / self.recorder_only).max(0.0)
    }
}

/// Times TCgen compression of `raw` with a plain recorder, then with
/// the full serve-style metrics discipline: duration and size
/// histograms fed per run, and a sampler thread pushing a window
/// snapshot every 10ms (25× the daemon's rate, to bound the worst
/// case) while compression runs.
///
/// # Panics
///
/// Panics if compression fails or `runs` is zero.
pub fn measure_metrics_overhead(raw: &[u8], runs: usize) -> MetricsOverhead {
    use tcgen_engine::telemetry::WindowSnapshot;

    assert!(runs > 0, "need at least one run");
    let baseline = EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())
        .with_telemetry(Recorder::new());
    let recorder_only =
        (0..runs).map(|_| measure(&baseline, raw).compress_speed()).fold(f64::MIN, f64::max);

    let recorder = Recorder::new();
    let ring = recorder.window_ring(300);
    let durations = recorder.histogram("bench.job_duration_ns");
    let sizes = recorder.histogram("bench.job_bytes_in");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let recorder = recorder.clone();
        let ring = std::sync::Arc::clone(&ring);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                ring.push(WindowSnapshot {
                    at_ns: recorder.elapsed_ns(),
                    counters: recorder.counters_snapshot(),
                    queue_depth: 0,
                });
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };
    let metered = EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())
        .with_telemetry(recorder);
    let metrics_on = (0..runs)
        .map(|_| {
            let m = measure(&metered, raw);
            durations.record((m.compress_seconds * 1e9) as u64);
            sizes.record(m.original as u64);
            m.compress_speed()
        })
        .fold(f64::MIN, f64::max);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("sampler thread panicked");
    MetricsOverhead { recorder_only, metrics_on }
}

/// One row of [`measure_profile_speed`]: how one post-compression
/// backend fared on the reference trace.
#[derive(Debug, Clone, Copy)]
pub struct ProfileSpeedRow {
    /// CLI profile name (`max`, `balanced`, `fast`).
    pub profile: &'static str,
    /// Compressed size in bytes.
    pub compressed: usize,
    /// Best compression wall time in seconds.
    pub compress_seconds: f64,
    /// Best decompression wall time in seconds.
    pub decompress_seconds: f64,
    /// `max`'s best time divided by this profile's best time.
    pub speedup_vs_max: f64,
}

/// The profile trade-off measurement: each backend compressing the same
/// large gzip store-address trace in memory.
#[derive(Debug, Clone)]
pub struct ProfileSpeed {
    /// Base record count handed to the trace generator.
    pub records: usize,
    /// Uncompressed trace size in bytes.
    pub original: usize,
    /// One row per profile, in `max`, `balanced`, `fast` order.
    pub rows: Vec<ProfileSpeedRow>,
}

/// Times every post-compression profile on a gzip store-address trace of
/// `records` base records, interleaving the profiles across `runs`
/// passes so machine-load drift hits them evenly, and keeping each
/// profile's best. Losslessness is asserted on every pass by
/// [`measure`].
///
/// # Panics
///
/// Panics if `runs` is zero or any profile fails to round-trip.
pub fn measure_profile_speed(records: usize, runs: usize) -> ProfileSpeed {
    assert!(runs > 0, "need at least one run");
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let profiles: Vec<(&'static str, EngineCodec)> =
        [("max", Backend::Max), ("balanced", Backend::Balanced), ("fast", Backend::Fast)]
            .into_iter()
            .map(|(name, backend)| {
                (
                    name,
                    EngineCodec::new(
                        name,
                        presets::TCGEN_A,
                        EngineOptions { backend, ..EngineOptions::tcgen() },
                    ),
                )
            })
            .collect();
    let mut best: Vec<(usize, f64, f64)> = vec![(0, f64::MAX, f64::MAX); profiles.len()];
    for _ in 0..runs {
        for (slot, (_, codec)) in best.iter_mut().zip(&profiles) {
            let m = measure(codec, &raw);
            slot.0 = m.compressed;
            slot.1 = slot.1.min(m.compress_seconds);
            slot.2 = slot.2.min(m.decompress_seconds);
        }
    }
    let max_seconds = best[0].1;
    let rows = profiles
        .iter()
        .zip(&best)
        .map(|(&(profile, _), &(compressed, compress_seconds, decompress_seconds))| {
            ProfileSpeedRow {
                profile,
                compressed,
                compress_seconds,
                decompress_seconds,
                speedup_vs_max: max_seconds / compress_seconds,
            }
        })
        .collect();
    ProfileSpeed { records, original: raw.len(), rows }
}

/// One row of [`measure_checkpoint_speed`]: how one (checkpoint
/// interval, thread count) pairing fared on the reference trace.
/// `checkpoint_blocks == 0` is the sequential baseline.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSpeedRow {
    /// Blocks per checkpoint (`0` = no checkpoints, the legacy layout).
    pub checkpoint_blocks: usize,
    /// [`EngineOptions::threads`]: the workers packing and inflating
    /// block segments.
    pub threads: usize,
    /// Compressed size in bytes, checkpoints and footer included.
    pub compressed: usize,
    /// Best compression wall time in seconds.
    pub compress_seconds: f64,
    /// Best decompression wall time in seconds.
    pub decompress_seconds: f64,
}

/// The checkpointed-container cost measurement: the same large gzip
/// store-address trace compressed with and without checkpoints, and
/// decompressed with one and with four segment workers. Checkpoints
/// cost container bytes and snapshot time and buy record-range seeks
/// (`extract_range`); a whole-container decode replays sequentially
/// either way. The rows are informational — sizes here are never
/// golden-pinned.
#[derive(Debug, Clone)]
pub struct CheckpointSpeed {
    /// Base record count handed to the trace generator.
    pub records: usize,
    /// Uncompressed trace size in bytes.
    pub original: usize,
    /// Records per block (smaller than the engine default so the trace
    /// yields enough blocks for several checkpoint spans).
    pub block_records: usize,
    /// One row per (interval, threads) pairing.
    pub rows: Vec<CheckpointSpeedRow>,
}

/// Times checkpointed and sequential containers on a gzip store-address
/// trace of `records` base records at one and four worker threads,
/// interleaving the configurations across `runs` passes and keeping
/// each one's best. Losslessness is asserted on every pass by
/// [`measure`].
///
/// The checkpointed rows price the checkpoints: the compress side packs
/// a snapshot every 8 blocks, and the decompress side walks past the
/// checkpoint frames without inflating them, so its rows should track
/// the sequential baseline at the same thread count.
///
/// # Panics
///
/// Panics if `runs` is zero or any configuration fails to round-trip.
pub fn measure_checkpoint_speed(records: usize, runs: usize) -> CheckpointSpeed {
    assert!(runs > 0, "need at least one run");
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let block_records = 65_536;
    let configs: [(usize, usize); 4] = [(0, 1), (0, 4), (8, 1), (8, 4)];
    let codecs: Vec<EngineCodec> = configs
        .iter()
        .map(|&(checkpoint_blocks, threads)| {
            EngineCodec::new(
                "TCgen-checkpointed",
                presets::TCGEN_A,
                EngineOptions {
                    block_records,
                    checkpoint_blocks,
                    threads,
                    ..EngineOptions::tcgen()
                },
            )
        })
        .collect();
    let mut best: Vec<(usize, f64, f64)> = vec![(0, f64::MAX, f64::MAX); configs.len()];
    for _ in 0..runs {
        for (slot, codec) in best.iter_mut().zip(&codecs) {
            let m = measure(codec, &raw);
            slot.0 = m.compressed;
            slot.1 = slot.1.min(m.compress_seconds);
            slot.2 = slot.2.min(m.decompress_seconds);
        }
    }
    let rows = configs
        .iter()
        .zip(&best)
        .map(
            |(
                &(checkpoint_blocks, threads),
                &(compressed, compress_seconds, decompress_seconds),
            )| {
                CheckpointSpeedRow {
                    checkpoint_blocks,
                    threads,
                    compressed,
                    compress_seconds,
                    decompress_seconds,
                }
            },
        )
        .collect();
    CheckpointSpeed { records, original: raw.len(), block_records, rows }
}

/// One scenario of [`measure_service_speed`]: how the `tcgen serve`
/// daemon handled a given request pattern.
#[derive(Debug, Clone)]
pub struct ServiceSpeedRow {
    /// `"flood-small"` (many small jobs from concurrent clients) or
    /// `"one-big"` (a single job carrying the whole trace).
    pub scenario: &'static str,
    /// Requests submitted in the scenario.
    pub jobs: usize,
    /// Records carried by each request.
    pub records_per_job: usize,
    /// Best wall time for the whole scenario, in seconds.
    pub total_seconds: f64,
    /// Mean per-job latency (client-observed, open-to-result) in the
    /// best pass, in seconds.
    pub mean_job_seconds: f64,
}

impl ServiceSpeedRow {
    /// Completed requests per second in the best pass.
    pub fn requests_per_second(&self) -> f64 {
        self.jobs as f64 / self.total_seconds
    }
}

/// The service-throughput measurement: request rate and per-job latency
/// of an in-process `tcgen serve` daemon under a flood of small
/// compress jobs versus one big job over the same total workload.
#[derive(Debug, Clone)]
pub struct ServiceSpeed {
    /// Total records across each scenario.
    pub records: usize,
    /// Uncompressed bytes of the one-big trace.
    pub original: usize,
    /// One row per scenario.
    pub rows: Vec<ServiceSpeedRow>,
}

/// Benchmarks a daemon on a private unix socket: `jobs` concurrent
/// clients each compressing a `records / jobs`-record slice of a gzip
/// store-address trace ("flood-small"), then one client compressing
/// the whole trace ("one-big"). Each scenario runs `runs` passes and
/// keeps the fastest. Purely informational — wire framing and
/// scheduling cost wall time, never bytes (byte identity is CI-gated
/// separately).
///
/// # Panics
///
/// Panics if `runs` is zero or the daemon cannot be started.
pub fn measure_service_speed(records: usize, runs: usize) -> ServiceSpeed {
    use tcgen_server::{Client, JobKind, JobRequest, ServeOptions};

    assert!(runs > 0, "need at least one run");
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let jobs = 8;
    let small_records = records / jobs;
    let small = generate_trace(&program, TraceKind::StoreAddress, small_records).to_bytes();

    let socket =
        std::env::temp_dir().join(format!("tcgen-bench-serve-{}.sock", std::process::id()));
    let serve_path = socket.clone();
    let options =
        ServeOptions { max_jobs: 4, max_cached_engines: 4, ..ServeOptions::default() };
    let daemon = std::thread::spawn(move || {
        tcgen_server::serve_unix(&serve_path, &options).expect("bench daemon failed");
    });
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while std::os::unix::net::UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < deadline, "bench daemon never came up");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let request = JobRequest::new(JobKind::Compress, presets::TCGEN_A);

    // Warm the engine cache so both scenarios price requests, not the
    // first spec parse.
    Client::connect(&socket).expect("connect").run(&request, &small).expect("warmup compress");

    let mut flood = (f64::MAX, 0.0f64);
    let mut big = (f64::MAX, 0.0f64);
    for _ in 0..runs {
        let start = Instant::now();
        let clients: Vec<_> = (0..jobs)
            .map(|_| {
                let socket = socket.clone();
                let request = request.clone();
                let small = small.clone();
                std::thread::spawn(move || {
                    let job_start = Instant::now();
                    Client::connect(&socket)
                        .expect("connect")
                        .run(&request, &small)
                        .expect("flood compress");
                    job_start.elapsed().as_secs_f64()
                })
            })
            .collect();
        let latencies: Vec<f64> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let total = start.elapsed().as_secs_f64();
        if total < flood.0 {
            flood = (total, latencies.iter().sum::<f64>() / latencies.len() as f64);
        }

        let start = Instant::now();
        Client::connect(&socket).expect("connect").run(&request, &raw).expect("big compress");
        let total = start.elapsed().as_secs_f64();
        if total < big.0 {
            big = (total, total);
        }
    }
    Client::connect(&socket).expect("connect").shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");

    ServiceSpeed {
        records,
        original: raw.len(),
        rows: vec![
            ServiceSpeedRow {
                scenario: "flood-small",
                jobs,
                records_per_job: small_records,
                total_seconds: flood.0,
                mean_job_seconds: flood.1,
            },
            ServiceSpeedRow {
                scenario: "one-big",
                jobs: 1,
                records_per_job: records,
                total_seconds: big.0,
                mean_job_seconds: big.1,
            },
        ],
    }
}

/// The harmonic mean, the paper's aggregation for inversely normalized
/// metrics (§6.5).
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of nothing");
    let sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "harmonic mean needs positive values, got {v}");
            1.0 / v
        })
        .sum();
    values.len() as f64 / sum
}

/// The evaluation corpus: every (program, kind) pair of Table 1 that the
/// paper includes, with traces generated at `base_records` scale.
pub fn corpus(kind: TraceKind, base_records: usize) -> Vec<(ProgramSpec, VpcTrace)> {
    suite()
        .into_iter()
        .filter(|p| p.includes(kind))
        .map(|p| {
            let trace = generate_trace(&p, kind, base_records);
            (p, trace)
        })
        .collect()
}

/// Formats a byte count as mebibytes with one decimal.
pub fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // HM(1, 2) = 2 / (1 + 0.5) = 4/3.
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        // The harmonic mean is dominated by small values.
        assert!(harmonic_mean(&[100.0, 1.0]) < 2.0);
    }

    #[test]
    fn all_algorithms_measure_losslessly() {
        let trace = generate_trace(&suite()[6], TraceKind::StoreAddress, 2_000).to_bytes();
        for codec in algorithms() {
            let m = measure(codec.as_ref(), &trace);
            assert!(m.rate() > 0.0);
            assert!(m.compress_speed() > 0.0);
        }
    }

    #[test]
    fn corpus_sizes_match_table1_structure() {
        assert_eq!(corpus(TraceKind::StoreAddress, 100).len(), 19);
        assert_eq!(corpus(TraceKind::CacheMissAddress, 100).len(), 22);
        assert_eq!(corpus(TraceKind::LoadValue, 100).len(), 14);
    }

    #[test]
    fn ablation_has_six_rows_ending_with_full() {
        let rows = ablation_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5].0, "full optimizations");
    }
}
