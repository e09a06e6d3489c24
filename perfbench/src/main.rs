//! `perfbench` drives TCgen through the entry points its callers use —
//! `Engine::compress`, `Engine::decompress` and `extract_range`, in
//! process and through `tcgen serve` — and checks every output.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced and then traced, probes each layer's public
//! functions, prints the per-layer metrics and writes a Chrome trace of
//! the spans. The last stdout line is the JSON result. `run.py` builds
//! this package and the `tcgen` binary and runs it; README.md describes
//! the workloads and which layer metric should move which end-to-end one.

mod inproc;
mod inputs;
mod layers;
mod metrics;
mod served;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use tcgen_engine::{extract_range, Backend, Engine, EngineOptions, Recorder};
use tcgen_spec::presets::TCGEN_A;
use tcgen_tracegen::TraceKind::{self, CacheMissAddress, LoadValue, StoreAddress};

use crate::inproc::{Item, Loop};
use crate::inputs::{Trace, SMALL_SPEC};
use crate::layers::Probe;
use crate::metrics::{quantile, same, Metrics, Op, Tally};
use crate::served::{Daemon, Inputs, Kind, Seekable, Stats, Warm};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Corpus,
    Large,
    ServeMixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::Large => "large",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Input sizes. `--tiny` shrinks every one for the self-test.
struct Scale {
    corpus_base: usize,
    /// Seeded copies of the 55-trace corpus per run.
    corpus_instances: usize,
    large_records: usize,
    serve_compress: usize,
    serve_decompress: usize,
    serve_extract_source: usize,
    extract_len: u64,
    block_records: usize,
    checkpoint_blocks: usize,
    warm_records: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
}

const FULL: Scale = Scale {
    corpus_base: 2_000,
    corpus_instances: 16,
    large_records: 2_400_000,
    serve_compress: 100_000,
    serve_decompress: 400_000,
    serve_extract_source: 1_000_000,
    extract_len: 16_384,
    block_records: 65_536,
    checkpoint_blocks: 4,
    warm_records: 2_400,
    setups: 7,
};

const TINY: Scale = Scale {
    corpus_base: 200,
    corpus_instances: 2,
    large_records: 20_000,
    serve_compress: 5_000,
    serve_decompress: 20_000,
    serve_extract_source: 50_000,
    extract_len: 1_024,
    block_records: 4_096,
    checkpoint_blocks: 4,
    warm_records: 500,
    setups: 2,
};

struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tcgen: PathBuf,
    out: PathBuf,
    scale: &'static Scale,
    tiny: bool,
    flip_byte: bool,
    setup_probe: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: Workload::Corpus,
            seed: 1,
            seconds: 10.0,
            trace: false,
            tcgen: PathBuf::from("tcgen"),
            out: PathBuf::from("."),
            scale: &FULL,
            tiny: false,
            flip_byte: false,
            setup_probe: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    cfg.workload = match value()?.as_str() {
                        "corpus" => Workload::Corpus,
                        "large" => Workload::Large,
                        "serve-mixed" => Workload::ServeMixed,
                        other => return Err(format!("unknown workload {other}")),
                    }
                }
                "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => cfg.trace = value()? == "1",
                "--tcgen" => cfg.tcgen = PathBuf::from(value()?),
                "--out" => cfg.out = PathBuf::from(value()?),
                "--tiny" => {
                    cfg.scale = &TINY;
                    cfg.tiny = true;
                }
                "--flip-byte" => cfg.flip_byte = true,
                "--setup-probe" => cfg.setup_probe = true,
                other => return Err(format!("unexpected argument {other}")),
            }
        }
        Ok(cfg)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = Config::parse(&args).unwrap_or_else(|e| fail(&e));
    if cfg.setup_probe {
        match set_up_in_process(&cfg) {
            Ok(secs) => println!("{secs}"),
            Err(e) => fail(&format!("set-up probe: {e}")),
        }
        return;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cpus()
    );
    let mut tally = Tally::default();
    let result = match cfg.workload {
        Workload::Corpus | Workload::Large => in_process(&cfg, &mut tally),
        Workload::ServeMixed => serve_mixed(&cfg, &mut tally),
    };
    match result {
        Ok(metrics) => metrics.print(&tally),
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` on a monotonic clock; a panic becomes an error, so a hostile
/// output is counted instead of ending the run.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (Result<T, String>, f64) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    });
    (result, start.elapsed().as_secs_f64())
}

/// VmHWM (peak resident set) of a process, in MiB; NaN if unreadable.
pub fn vm_hwm_mib(status_path: &str) -> f64 {
    let status = std::fs::read_to_string(status_path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn prepared(
    tally: &mut Tally,
    workload: &str,
    label: &str,
    r: Result<Vec<u8>, String>,
) -> Vec<u8> {
    let ok = r.as_ref().map(drop).map_err(Clone::clone);
    tally.check(workload, "prepare", label, ok);
    r.unwrap_or_default()
}

fn report_inputs(traces: &[&Trace], started: Instant) {
    let bytes: usize = traces.iter().map(|t| t.raw.len()).sum();
    println!(
        "inputs: {} traces, {:.1} MiB, generated in {:.2} s (not measured)",
        traces.len(),
        bytes as f64 / metrics::MIB,
        started.elapsed().as_secs_f64()
    );
}

/// One in-process set-up, as a fresh process sees it: spec parse,
/// `Engine::new`, and the first warm-up round trip, which starts the
/// shared worker pool. Generating the warm-up trace is not timed.
fn set_up_in_process(cfg: &Config) -> Result<f64, String> {
    let warm = inputs::warm_up(cfg.scale.warm_records);
    let start = Instant::now();
    let spec = tcgen_spec::parse(TCGEN_A).map_err(|e| e.to_string())?;
    let engine = Engine::new(spec, EngineOptions::tcgen());
    let packed = engine.compress(&warm.raw).map_err(|e| e.to_string())?;
    let back = engine.decompress(&packed).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    same(&back, &warm.raw)?;
    Ok(secs)
}

/// `setup_s` of an in-process workload: the median of several set-ups,
/// each in a fresh child process, so every one pays pool start.
fn set_up_children(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut secs = Vec::new();
    for _ in 0..cfg.scale.setups {
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-probe", "--seed", &cfg.seed.to_string()]);
        if cfg.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd.output().map_err(|e| format!("set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up probe exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        secs.push(text.trim().parse::<f64>().map_err(|e| format!("set-up probe output: {e}"))?);
    }
    println!("set-ups: {secs:.4?} s");
    Ok(quantile(&secs, 0.5))
}

/// Serve-mixed inputs: the compress requests cycle over 24 traces, the
/// decompress requests over three containers; the extracts all read one
/// container, since with two sources in equal shares the extract median
/// would fall between them.
const SERVE_COMPRESS_INPUTS: usize = 24;
const SERVE_DECOMPRESS: [(&str, TraceKind); 3] =
    [("parser", StoreAddress), ("vortex", CacheMissAddress), ("gap", LoadValue)];
const SERVE_EXTRACT: [(&str, TraceKind); 1] = [("vpr", StoreAddress)];

/// Per-layer metrics of the server; an in-process workload has no server,
/// so they read 0 there.
const SERVER_METRICS: [(&str, &str); 7] = [
    ("serve.overhead_ms.compress_max", "ms"),
    ("serve.overhead_ms.compress_fast", "ms"),
    ("serve.overhead_ms.decompress", "ms"),
    ("serve.overhead_ms.extract", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.backpressure_waits", "count"),
    ("serve.cache_hit_ratio", "fraction"),
];

fn print_error_rate(tally: &Tally) {
    println!(
        "error_rate {} fraction ({} failed of {} checks)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
}

fn write_trace(cfg: &Config, rec: &Recorder, tally: &mut Tally) {
    let dir = cfg.out.join("traces");
    let path = dir.join(format!("{}-seed{}.trace.json", cfg.workload.name(), cfg.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()));
    if written.is_ok() {
        println!("spans: {} written to {}", rec.spans().len(), path.display());
    }
    tally.check(cfg.workload.name(), "write-trace", "spans", written);
}

/// `corpus` and `large`.
fn in_process(cfg: &Config, tally: &mut Tally) -> Result<Metrics, String> {
    let wl = cfg.workload.name();
    let scale = cfg.scale;
    let started = Instant::now();
    let traces: Vec<Trace> = match cfg.workload {
        Workload::Corpus => inputs::corpus(scale.corpus_base, scale.corpus_instances, cfg.seed),
        _ => vec![
            inputs::trace("gzip", StoreAddress, scale.large_records, cfg.seed),
            inputs::trace("mcf", CacheMissAddress, scale.large_records, cfg.seed),
            inputs::trace("gcc", LoadValue, scale.large_records, cfg.seed),
        ],
    };
    report_inputs(&traces.iter().collect::<Vec<_>>(), started);
    let setup_s = if cfg.trace { f64::NAN } else { set_up_children(cfg)? };

    let spec = tcgen_spec::parse(TCGEN_A).map_err(|e| e.to_string())?;
    let engine = Engine::new(spec.clone(), EngineOptions::tcgen());
    let seek_options = EngineOptions {
        block_records: scale.block_records,
        checkpoint_blocks: scale.checkpoint_blocks,
        ..EngineOptions::tcgen()
    };
    let seek_engine = Engine::new(spec.clone(), seek_options);
    let items: Vec<Item> = traces
        .into_iter()
        .map(|trace| {
            let seekable = seek_engine.compress(&trace.raw).map_err(|e| e.to_string());
            let seekable = prepared(tally, wl, &trace.label, seekable);
            Item { trace, seekable }
        })
        .collect();
    let lp = Loop {
        workload: wl,
        spec: &spec,
        engine: &engine,
        seek_options: &seek_options,
        items: &items,
        seed: cfg.seed,
        extract_len: scale.extract_len,
        flip_byte: cfg.flip_byte,
        trace: None,
    };
    let mut out = Metrics::default();
    if !cfg.trace {
        let (samples, wall, passes) =
            inproc::passes(&lp, inproc::Stop::After(cfg.seconds), tally);
        println!("timed: {passes} passes over {} traces", items.len());
        metrics::end_to_end(&mut out, &samples, wall);
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", vm_hwm_mib("/proc/self/status"), "MiB");
        print_error_rate(tally);
        return Ok(out);
    }

    // Traced run: the same passes untraced, then traced, then the probes.
    let (_, plain_wall, passes) =
        inproc::passes(&lp, inproc::Stop::After(cfg.seconds / 2.0), tally);
    let rec = Recorder::new();
    let track = rec.track("bench");
    let traced = Loop { trace: Some((&rec, track)), flip_byte: false, ..lp };
    let (samples, traced_wall, _) =
        inproc::passes(&traced, inproc::Stop::Passes(passes), tally);
    println!(
        "traced: {passes} passes untraced in {plain_wall:.3} s, traced in {traced_wall:.3} s"
    );
    let decompresses = samples.iter().filter(|s| s.op == Op::Decompress).count();
    let spans = rec.counter("decompress.spans").get();

    let probe_track = rec.track("probe");
    let mut probe = Probe { workload: wl, rec: &rec, track: probe_track, tally };
    // The probes cover one copy of the corpus.
    let (copies, reps) = match cfg.workload {
        Workload::Corpus => (scale.corpus_instances, 1),
        _ => (1, 3),
    };
    let probed = &items[..items.len() / copies];
    let traces: Vec<&Trace> = probed.iter().map(|i| &i.trace).collect();
    let fixed = layers::all(&mut probe, &[TCGEN_A], &traces, &mut out);
    let sources: Vec<(&Trace, &[u8])> =
        probed.iter().map(|i| (&i.trace, &i.seekable[..])).collect();
    layers::seek(
        &mut probe,
        &spec,
        &seek_options,
        &sources,
        reps,
        cfg.seed,
        scale.extract_len,
        &mut out,
    );
    out.push("engine.fixed_share", layers::fixed_share(&samples, &fixed), "fraction");
    out.push("checkpoint.spans_per_decompress", spans as f64 / decompresses as f64, "count");
    for (name, unit) in SERVER_METRICS {
        out.push(name, 0.0, unit);
    }
    out.push("trace.overhead_frac", traced_wall / plain_wall - 1.0, "fraction");
    write_trace(cfg, &rec, tally);
    Ok(out)
}

/// `serve-mixed`.
fn serve_mixed(cfg: &Config, tally: &mut Tally) -> Result<Metrics, String> {
    let wl = cfg.workload.name();
    let scale = cfg.scale;
    let seed = cfg.seed;
    let started = Instant::now();
    let gen = |list: &[(&str, TraceKind)], records: usize| -> Vec<Trace> {
        list.iter().map(|&(name, kind)| inputs::trace(name, kind, records, seed)).collect()
    };
    // Program i of the suite with the kinds in turn: 24 distinct pairs.
    let programs = tcgen_tracegen::suite();
    let pairs: Vec<(&str, TraceKind)> = (0..SERVE_COMPRESS_INPUTS)
        .map(|i| (programs[i % programs.len()].name, TraceKind::ALL[i % 3]))
        .collect();
    let compress = gen(&pairs, scale.serve_compress);
    let decompress = gen(&SERVE_DECOMPRESS, scale.serve_decompress);
    let extract = gen(&SERVE_EXTRACT, scale.serve_extract_source);
    let warm_trace = inputs::warm_up(scale.warm_records);
    report_inputs(
        &compress.iter().chain(&decompress).chain(&extract).collect::<Vec<_>>(),
        started,
    );

    // In-process engines configured like the daemon's cache keys; their
    // containers are the outputs the served requests must match.
    let spec_a = tcgen_spec::parse(TCGEN_A).map_err(|e| e.to_string())?;
    let spec_small = tcgen_spec::parse(SMALL_SPEC).map_err(|e| e.to_string())?;
    let max = Engine::new(spec_a.clone(), EngineOptions::tcgen());
    let fast = Engine::new(
        spec_small,
        EngineOptions { backend: Backend::Fast, ..EngineOptions::tcgen() },
    );
    let seek_options = EngineOptions {
        block_records: scale.block_records,
        checkpoint_blocks: scale.checkpoint_blocks,
        ..EngineOptions::tcgen()
    };
    let seekable = Engine::new(spec_a.clone(), seek_options);
    let mut pack = |engine: &Engine, t: &Trace| {
        let packed = engine.compress(&t.raw).map_err(|e| e.to_string());
        let checked = packed.and_then(|p| {
            let back = engine.decompress(&p).map_err(|e| e.to_string())?;
            same(&back, &t.raw).map(|()| p)
        });
        prepared(tally, wl, &t.label, checked)
    };
    let mut seekables = |traces: Vec<Trace>| -> Vec<Seekable> {
        traces
            .into_iter()
            .map(|trace| Seekable { container: pack(&seekable, &trace), trace })
            .collect()
    };
    let decompress = seekables(decompress);
    let extract = seekables(extract);
    let inputs = Inputs {
        expect_max: compress.iter().map(|t| pack(&max, t)).collect(),
        expect_fast: compress.iter().map(|t| pack(&fast, t)).collect(),
        compress,
        decompress,
        extract,
        extract_len: scale.extract_len,
        block_records: scale.block_records as u32,
        checkpoint_blocks: scale.checkpoint_blocks as u32,
    };
    let warm = Warm {
        expect_max: pack(&max, &warm_trace),
        expect_fast: pack(&fast, &warm_trace),
        container: pack(&seekable, &warm_trace),
        raw: warm_trace.raw,
    };

    // Set-up: spawn `tcgen serve` until every cache key has answered once.
    // Earlier daemons are stopped; the last one serves the timed phase.
    let socket = cfg.out.join(format!("serve-{}.sock", std::process::id()));
    let setups = if cfg.trace { 1 } else { scale.setups };
    let mut setup_secs = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..setups {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let start = Instant::now();
        let mut d = Daemon::spawn(&cfg.tcgen, &socket)?;
        let mut client = d.connect()?;
        let warmed = inputs.warm_up(&mut client, &warm);
        setup_secs.push(start.elapsed().as_secs_f64());
        tally.check(wl, "warm-up", "set-up", warmed);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up ran");
    let generator = served::Generator {
        workload: wl,
        socket: &socket,
        inputs: &inputs,
        seed,
        connections: cpus().min(2),
    };
    let deadline = |secs: f64| served::Stop::At(Instant::now() + Duration::from_secs_f64(secs));

    let mut out = Metrics::default();
    if !cfg.trace {
        println!("set-ups: {setup_secs:.4?} s");
        let (samples, wall, _) = generator.drive(deadline(cfg.seconds), None, tally);
        metrics::end_to_end(&mut out, &samples, wall);
        out.push("setup_s", quantile(&setup_secs, 0.5), "s");
        out.push("peak_rss_mb", daemon.peak_rss_mib(), "MiB");
        daemon.stop()?;
        print_error_rate(tally);
        return Ok(out);
    }

    // Traced run: the same requests untraced, then with client spans.
    let mut control = daemon.connect()?;
    let before = Stats::fetch(&mut control)?;
    let (_, plain_wall, issued) = generator.drive(deadline(cfg.seconds / 2.0), None, tally);
    let rec = Recorder::new();
    let (samples, traced_wall, _) =
        generator.drive(served::Stop::Count(issued), Some(&rec), tally);
    println!(
        "traced: {issued} requests untraced in {plain_wall:.3} s, traced in {traced_wall:.3} s"
    );
    let after = Stats::fetch(&mut control)?;
    drop(control);
    daemon.stop()?;

    let delta = |name: &str| after.counter(name) - before.counter(name);
    let (waits, wait_s) = after.stage("serve.wait");
    let (waits0, wait_s0) = before.stage("serve.wait");
    let hits = delta("serve.cache_hit");
    let misses = delta("serve.cache_miss");

    let probe_track = rec.track("probe");
    let mut probe = Probe { workload: wl, rec: &rec, track: probe_track, tally };
    let traces: Vec<&Trace> = inputs.compress.iter().collect();
    let fixed = layers::all(&mut probe, &[TCGEN_A, SMALL_SPEC], &traces, &mut out);
    let sources: Vec<(&Trace, &[u8])> =
        inputs.extract.iter().map(|s| (&s.trace, &s.container[..])).collect();
    layers::seek(
        &mut probe,
        &spec_a,
        &seek_options,
        &sources,
        16,
        seed,
        scale.extract_len,
        &mut out,
    );

    // What the server adds: client latency minus the same engine call in
    // process, per request kind.
    for kind in Kind::ALL {
        let client_ms: Vec<f64> =
            samples.iter().filter(|s| s.class == kind.class()).map(|s| s.secs * 1e3).collect();
        let mut local_ms = Vec::new();
        let same_kind = (0..).map(|i| inputs.request(seed, i)).filter(|r| r.kind == kind);
        for r in same_kind.take(8) {
            let err = |e: &dyn std::fmt::Display| e.to_string();
            let (result, secs) = timed(|| match kind {
                Kind::CompressMax => max.compress(r.input).map(drop).map_err(|e| err(&e)),
                Kind::CompressFast => fast.compress(r.input).map(drop).map_err(|e| err(&e)),
                Kind::Decompress => seekable.decompress(r.input).map(drop).map_err(|e| err(&e)),
                Kind::Extract => {
                    let mut reader = std::io::Cursor::new(r.input);
                    extract_range(&spec_a, &seek_options, &mut reader, r.range.clone(), None)
                        .map(drop)
                        .map_err(|e| err(&e))
                }
            });
            if probe.check(kind.class(), "in-process", result) {
                local_ms.push(secs * 1e3);
            }
        }
        let name = match kind {
            Kind::CompressMax => "serve.overhead_ms.compress_max",
            Kind::CompressFast => "serve.overhead_ms.compress_fast",
            Kind::Decompress => "serve.overhead_ms.decompress",
            Kind::Extract => "serve.overhead_ms.extract",
        };
        out.push(name, quantile(&client_ms, 0.5) - quantile(&local_ms, 0.5), "ms");
    }
    out.push("serve.wait_ms", (wait_s - wait_s0) / (waits - waits0) * 1e3, "ms");
    out.push("serve.backpressure_waits", delta("serve.backpressure_waits"), "count");
    out.push("serve.cache_hit_ratio", hits / (hits + misses), "fraction");
    out.push(
        "checkpoint.spans_per_decompress",
        delta("decompress.spans") / delta("serve.jobs.decompress.ok"),
        "count",
    );
    out.push("engine.fixed_share", layers::fixed_share(&samples, &fixed), "fraction");
    out.push("trace.overhead_frac", traced_wall / plain_wall - 1.0, "fraction");
    write_trace(cfg, &rec, tally);
    Ok(out)
}
