//! Regenerates every table and figure of the paper's evaluation (§7) on
//! the synthetic trace corpus.
//!
//! ```text
//! reproduce [--records N] [--csv FILE] [--json [FILE]] [--verbose]
//!           [--stats] [--trace-out FILE]
//!           [table1|fig6|fig7|fig8|table2|table3|all]
//! ```
//!
//! `--records N` sets the base trace length (default 100000 records;
//! each program scales it by its Table 1 size factor). Figures 6-8 print
//! both absolute harmonic means and values relative to TCgen, sorted
//! ascending per trace type exactly like the paper's bar charts. Every
//! trace is compressed and decompressed three times, each round trip
//! checked, and each direction keeps its median time.
//! `--csv FILE` additionally writes the per-trace measurements of the
//! figures as machine-readable rows. `--json [FILE]` writes the
//! per-algorithm harmonic-mean summary (compressed sizes plus
//! compression/decompression throughput) as JSON, defaulting to
//! `BENCH_pipeline.json`, plus informational `telemetry_overhead` and
//! `metrics_overhead` objects comparing TCgen throughput without and
//! with a recorder, and with the serve-style histogram/window sampling
//! on top of one.
//! `--verbose` restores the per-step progress notes on stderr.
//! `--stats` prints a per-stage telemetry summary of one instrumented
//! TCgen run after the tables; `--trace-out FILE` writes that run as a
//! Chrome trace-event file (open in Perfetto).

use std::collections::BTreeMap;

use tcgen_bench::{
    ablation_rows, algorithms, corpus, harmonic_mean, mb, measure, measure_checkpoint_speed,
    measure_metrics_overhead, measure_once, measure_profile_speed, measure_service_speed,
    measure_telemetry_overhead, tcgen_b, EngineCodec, Measurement,
};
use tcgen_engine::{EngineOptions, Recorder};
use tcgen_spec::presets;
use tcgen_tracegen::{generate_trace, suite, TraceKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records = 100_000usize;
    let mut command = "all".to_string();
    let mut csv: Option<String> = None;
    let mut json: Option<String> = None;
    let mut verbose = false;
    let mut stats = false;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                records = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--records needs a number"));
                i += 2;
            }
            "--csv" => {
                csv =
                    Some(args.get(i + 1).cloned().unwrap_or_else(|| die("--csv needs a path")));
                i += 2;
            }
            "--json" => {
                // The path operand is optional: a following argument that
                // looks like a flag or a command keeps the default name.
                const COMMANDS: [&str; 7] =
                    ["table1", "fig6", "fig7", "fig8", "table2", "table3", "all"];
                match args.get(i + 1) {
                    Some(next)
                        if !next.starts_with("--") && !COMMANDS.contains(&next.as_str()) =>
                    {
                        json = Some(next.clone());
                        i += 2;
                    }
                    _ => {
                        json = Some("BENCH_pipeline.json".to_string());
                        i += 1;
                    }
                }
            }
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(
                    args.get(i + 1).cloned().unwrap_or_else(|| die("--trace-out needs a path")),
                );
                i += 2;
            }
            cmd => {
                command = cmd.to_string();
                i += 1;
            }
        }
    }
    CSV_PATH.set(csv).expect("set once");
    JSON_PATH.set(json).expect("set once");
    // Progress notes ride the verbosity switches; plain runs stay quiet
    // on stderr so scripted pipelines see only the tables on stdout.
    VERBOSE.set(verbose || stats).expect("set once");
    match command.as_str() {
        "table1" => table1(records),
        "fig6" => figure(records, Metric::Rate),
        "fig7" => figure(records, Metric::DecompressSpeed),
        "fig8" => figure(records, Metric::CompressSpeed),
        "table2" => table2(records),
        "table3" => table3(records),
        "all" => {
            table1(records);
            let all = measure_all(records);
            dump_csv(&all);
            dump_json(&all, records);
            figure_from(&all, Metric::Rate);
            figure_from(&all, Metric::DecompressSpeed);
            figure_from(&all, Metric::CompressSpeed);
            table2(records);
            table3(records);
        }
        other => die(&format!("unknown command '{other}'")),
    }
    telemetry_pass(records, stats, trace_out.as_deref());
}

static VERBOSE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

/// Progress note on stderr, shown only under `--verbose` or `--stats`.
fn progress(message: std::fmt::Arguments<'_>) {
    if VERBOSE.get().copied().unwrap_or(false) {
        eprintln!("{message}");
    }
}

/// One instrumented TCgen compress + decompress over a representative
/// trace, feeding the `--stats` summary and the `--trace-out` Chrome
/// trace. Skipped entirely when neither sink is requested.
fn telemetry_pass(records: usize, stats: bool, trace_out: Option<&str>) {
    if !stats && trace_out.is_none() {
        return;
    }
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let rec = Recorder::new();
    let codec = EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())
        .with_telemetry(rec.clone());
    measure_once(&codec, &raw);
    if stats {
        eprint!("{}", rec.report());
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, rec.chrome_trace()) {
            eprintln!("reproduce: cannot write {path}: {e}");
        }
    }
}

fn die(message: &str) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(1)
}

static CSV_PATH: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();

/// Appends the per-trace measurements behind a figure as CSV rows:
/// `algorithm,trace_kind,original_bytes,compressed_bytes,compress_s,decompress_s`.
fn dump_csv(all: &AllResults) {
    let Some(Some(path)) = CSV_PATH.get() else {
        return;
    };
    let mut text = String::from(
        "algorithm,trace_kind,original_bytes,compressed_bytes,compress_s,decompress_s
",
    );
    for (name, per_kind) in all {
        for (kind, ms) in per_kind {
            for m in ms {
                text.push_str(&format!(
                    "{name},{kind},{},{},{:.6},{:.6}
",
                    m.original, m.compressed, m.compress_seconds, m.decompress_seconds
                ));
            }
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("reproduce: cannot write {path}: {e}");
    }
}

static JSON_PATH: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();

/// Writes the harmonic-mean summary behind the figures as JSON — one
/// object per (algorithm, trace kind) with total sizes and throughput —
/// so CI and scripts can consume the numbers without scraping tables.
/// Hand-rolled serialization: the shape is flat and fixed, and the
/// harness takes no serialization dependency for it.
fn dump_json(all: &AllResults, records: usize) {
    let Some(Some(path)) = JSON_PATH.get() else {
        return;
    };
    let mut rows = Vec::new();
    for (name, per_kind) in all {
        for (kind, ms) in per_kind {
            let original: u64 = ms.iter().map(|m| m.original as u64).sum();
            let compressed: u64 = ms.iter().map(|m| m.compressed as u64).sum();
            let rate = harmonic_mean(&ms.iter().map(Measurement::rate).collect::<Vec<_>>());
            let cspd =
                harmonic_mean(&ms.iter().map(|m| mb(m.compress_speed())).collect::<Vec<_>>());
            let dspd =
                harmonic_mean(&ms.iter().map(|m| mb(m.decompress_speed())).collect::<Vec<_>>());
            rows.push(format!(
                "    {{\"algorithm\": \"{name}\", \"trace_kind\": \"{kind}\", \
                 \"original_bytes\": {original}, \"compressed_bytes\": {compressed}, \
                 \"compression_rate\": {rate:.4}, \"compress_mb_per_s\": {cspd:.4}, \
                 \"decompress_mb_per_s\": {dspd:.4}}}"
            ));
        }
    }
    // Informational: the cost of leaving a telemetry recorder attached,
    // on one gzip store-address trace. Never gated on — the byte-identity
    // guarantee is tested elsewhere; this just tracks the time cost.
    progress(format_args!("[measuring telemetry overhead]"));
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let overhead = measure_telemetry_overhead(&raw, 3);
    // Informational: what the serve-style metrics discipline (per-job
    // histograms plus a window sampler) adds on top of that recorder.
    progress(format_args!("[measuring metrics overhead]"));
    let metrics = measure_metrics_overhead(&raw, 3);
    // Informational: the post-compression profile trade-off on the fixed
    // 2M-record gzip store-address trace, large enough that table misses
    // and entropy coding — not setup — dominate. Sizes and speedups here
    // are reported, never gated on; the corpus rows above stay the
    // regression surface.
    progress(format_args!("[measuring profile speeds on the 2M-record gzip store trace]"));
    let speeds = measure_profile_speed(PROFILE_SPEED_RECORDS, 3);
    let profile_rows: Vec<String> = speeds
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"profile\": \"{}\", \"compressed_bytes\": {}, \
                 \"compress_s\": {:.4}, \"compress_mb_per_s\": {:.4}, \
                 \"decompress_s\": {:.4}, \"decompress_mb_per_s\": {:.4}, \
                 \"speedup_vs_max\": {:.4}}}",
                r.profile,
                r.compressed,
                r.compress_seconds,
                mb(speeds.original as f64 / r.compress_seconds),
                r.decompress_seconds,
                mb(speeds.original as f64 / r.decompress_seconds),
                r.speedup_vs_max
            )
        })
        .collect();
    // Informational: the checkpointed-container trade on the same fixed
    // trace — container bytes spent on checkpoints versus decompression
    // wall time at one and four worker threads. Sizes here include the
    // checkpoint segments and footer and are never gated on.
    progress(format_args!("[measuring checkpointed decompression speeds]"));
    let ckpt = measure_checkpoint_speed(PROFILE_SPEED_RECORDS, 3);
    let ckpt_rows: Vec<String> = ckpt
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"checkpoint_blocks\": {}, \"threads\": {}, \
                 \"compressed_bytes\": {}, \"compress_s\": {:.4}, \
                 \"decompress_s\": {:.4}, \"decompress_mb_per_s\": {:.4}}}",
                r.checkpoint_blocks,
                r.threads,
                r.compressed,
                r.compress_seconds,
                r.decompress_seconds,
                mb(ckpt.original as f64 / r.decompress_seconds)
            )
        })
        .collect();
    // Informational: what the `tcgen serve` daemon adds on top of the
    // engine — requests/s and per-job latency for a flood of small
    // jobs from concurrent clients versus one big job over the same
    // workload. Wire framing and scheduling cost time, never bytes.
    progress(format_args!("[measuring service request throughput]"));
    let service = measure_service_speed(SERVICE_SPEED_RECORDS, 2);
    let service_rows: Vec<String> = service
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"scenario\": \"{}\", \"jobs\": {}, \"records_per_job\": {}, \
                 \"total_s\": {:.4}, \"requests_per_s\": {:.4}, \"mean_job_s\": {:.4}}}",
                r.scenario,
                r.jobs,
                r.records_per_job,
                r.total_seconds,
                r.requests_per_second(),
                r.mean_job_seconds
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"results\": [\n{}\n  ],\n  \"telemetry_overhead\": {{\
         \"stats_off_mb_per_s\": {:.4}, \"stats_on_mb_per_s\": {:.4}, \
         \"overhead_fraction\": {:.4}}},\n  \"metrics_overhead\": {{\
         \"recorder_only_mb_per_s\": {:.4}, \"metrics_on_mb_per_s\": {:.4}, \
         \"overhead_fraction\": {:.4}}},\n  \"profile_speed\": {{\n    \
         \"trace\": \"gzip store-address\", \"records\": {}, \"original_bytes\": {},\n    \
         \"profiles\": [\n{}\n    ]\n  }},\n  \"checkpoint_speed\": {{\n    \
         \"trace\": \"gzip store-address\", \"records\": {}, \"original_bytes\": {},\n    \
         \"block_records\": {}, \"informational\": true,\n    \
         \"rows\": [\n{}\n    ]\n  }},\n  \"service_speed\": {{\n    \
         \"trace\": \"gzip store-address\", \"records\": {}, \"original_bytes\": {},\n    \
         \"informational\": true,\n    \
         \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        rows.join(",\n"),
        mb(overhead.stats_off),
        mb(overhead.stats_on),
        overhead.overhead_fraction(),
        mb(metrics.recorder_only),
        mb(metrics.metrics_on),
        metrics.overhead_fraction(),
        speeds.records,
        speeds.original,
        profile_rows.join(",\n"),
        ckpt.records,
        ckpt.original,
        ckpt.block_records,
        ckpt_rows.join(",\n"),
        service.records,
        service.original,
        service_rows.join(",\n")
    );
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("reproduce: cannot write {path}: {e}");
    }
}

/// Base record count of the profile-speed measurement; fixed (rather
/// than riding `--records`) so the committed numbers always describe the
/// same trace.
const PROFILE_SPEED_RECORDS: usize = 2_000_000;

/// Smaller than the profile-speed trace: the service measurement prices
/// request handling (8 concurrent small jobs and 1 big one, twice), not
/// bulk throughput, and rides on every bench CI run.
const SERVICE_SPEED_RECORDS: usize = 400_000;

#[derive(Clone, Copy, PartialEq)]
enum Metric {
    Rate,
    DecompressSpeed,
    CompressSpeed,
}

impl Metric {
    fn title(self) -> &'static str {
        match self {
            Metric::Rate => "Figure 6: harmonic-mean compression rates",
            Metric::DecompressSpeed => "Figure 7: harmonic-mean decompression speeds (MB/s)",
            Metric::CompressSpeed => "Figure 8: harmonic-mean compression speeds (MB/s)",
        }
    }

    fn extract(self, m: &Measurement) -> f64 {
        match self {
            Metric::Rate => m.rate(),
            Metric::DecompressSpeed => mb(m.decompress_speed()),
            Metric::CompressSpeed => mb(m.compress_speed()),
        }
    }
}

/// Per-algorithm, per-kind measurements over the whole corpus.
type AllResults = BTreeMap<&'static str, BTreeMap<&'static str, Vec<Measurement>>>;

const KINDS: [TraceKind; 3] =
    [TraceKind::StoreAddress, TraceKind::CacheMissAddress, TraceKind::LoadValue];

fn measure_all(records: usize) -> AllResults {
    let codecs = algorithms();
    let mut results: AllResults = BTreeMap::new();
    for kind in KINDS {
        progress(format_args!("[generating {} traces]", kind.label()));
        let traces = corpus(kind, records);
        for codec in &codecs {
            progress(format_args!("[measuring {} on {}]", codec.name(), kind.label()));
            let entry =
                results.entry(codec.name()).or_default().entry(kind.label()).or_default();
            for (_, trace) in &traces {
                entry.push(measure(codec.as_ref(), &trace.to_bytes()));
            }
        }
    }
    results
}

fn table1(records: usize) {
    println!("Table 1: trace corpus (synthetic stand-ins, {records} base records)");
    println!(
        "{:<10} {:<5} {:<5} {:>16} {:>16} {:>16}",
        "program", "lang", "type", "store addr (MB)", "cache miss (MB)", "load values (MB)"
    );
    for p in suite() {
        let mut cells = Vec::new();
        for kind in KINDS {
            if p.includes(kind) {
                let trace = generate_trace(&p, kind, records);
                cells.push(format!("{:>16.1}", mb(trace.byte_len() as f64)));
            } else {
                cells.push(format!("{:>16}", "excluded"));
            }
        }
        println!(
            "{:<10} {:<5} {:<5} {} {} {}",
            p.name,
            p.lang,
            if p.fp { "fp" } else { "int" },
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!();
}

fn figure(records: usize, metric: Metric) {
    let all = measure_all(records);
    dump_csv(&all);
    dump_json(&all, records);
    figure_from(&all, metric);
}

fn figure_from(all: &AllResults, metric: Metric) {
    println!("{}", metric.title());
    for kind in KINDS {
        let mut rows: Vec<(&str, f64)> = all
            .iter()
            .map(|(name, per_kind)| {
                let values: Vec<f64> =
                    per_kind[kind.label()].iter().map(|m| metric.extract(m)).collect();
                (*name, harmonic_mean(&values))
            })
            .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let tcgen = rows
            .iter()
            .find(|(name, _)| *name == "TCgen")
            .map(|&(_, v)| v)
            .expect("TCgen is always measured");
        println!("  {}:", kind.label());
        for (name, value) in rows {
            println!(
                "    {:<10} {:>12.3}   relative to TCgen: {:>7.3}",
                name,
                value,
                value / tcgen
            );
        }
    }
    println!();
}

fn table2(records: usize) {
    println!("Table 2: performance impact of TCgen's optimizations");
    println!(
        "{:<24} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "", "rate", "d.spd", "c.spd", "rate", "d.spd", "c.spd", "rate", "d.spd", "c.spd"
    );
    println!(
        "{:<24} {:-^28}   {:-^28}   {:-^28}",
        "", "store addresses", "cache miss addrs", "load values"
    );
    // Pre-generate the corpus once.
    let traces: Vec<(TraceKind, Vec<Vec<u8>>)> = KINDS
        .iter()
        .map(|&kind| {
            (kind, corpus(kind, records).into_iter().map(|(_, t)| t.to_bytes()).collect())
        })
        .collect();
    for (label, options) in ablation_rows() {
        let codec = EngineCodec::new("TCgen*", presets::TCGEN_A, options);
        let mut cells = Vec::new();
        for (_, kind_traces) in &traces {
            let ms: Vec<Measurement> =
                kind_traces.iter().map(|raw| measure(&codec, raw)).collect();
            let rate = harmonic_mean(&ms.iter().map(Measurement::rate).collect::<Vec<_>>());
            let dspd =
                harmonic_mean(&ms.iter().map(|m| mb(m.decompress_speed())).collect::<Vec<_>>());
            let cspd =
                harmonic_mean(&ms.iter().map(|m| mb(m.compress_speed())).collect::<Vec<_>>());
            cells.push(format!("{rate:>8.1} {dspd:>8.1} {cspd:>8.1}"));
        }
        println!("{:<24} {}   {}   {}", label, cells[0], cells[1], cells[2]);
    }
    println!();
}

fn table3(records: usize) {
    println!("Table 3: harmonic-mean performance of TCgen(A) and TCgen(B)");
    println!(
        "{:<24} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
        "trace", "rate A", "rate B", "d.spd A", "d.spd B", "c.spd A", "c.spd B"
    );
    let a = EngineCodec::new("TCgen(A)", presets::TCGEN_A, EngineOptions::tcgen());
    let b = tcgen_b();
    for kind in KINDS {
        let traces = corpus(kind, records);
        let mut stats = Vec::new();
        for codec in [&a, &b] {
            let ms: Vec<Measurement> =
                traces.iter().map(|(_, t)| measure(codec, &t.to_bytes())).collect();
            stats.push((
                harmonic_mean(&ms.iter().map(Measurement::rate).collect::<Vec<_>>()),
                harmonic_mean(&ms.iter().map(|m| mb(m.decompress_speed())).collect::<Vec<_>>()),
                harmonic_mean(&ms.iter().map(|m| mb(m.compress_speed())).collect::<Vec<_>>()),
            ));
        }
        println!(
            "{:<24} {:>9.1} {:>9.1}   {:>9.1} {:>9.1}   {:>9.1} {:>9.1}",
            kind.label(),
            stats[0].0,
            stats[1].0,
            stats[0].1,
            stats[1].1,
            stats[0].2,
            stats[1].2
        );
    }
    println!();
}
