//! `tcgen` — the command-line face of the TCgen reproduction.
//!
//! ```text
//! tcgen generate <spec-file> [--lang c|rust]    emit compressor source
//! tcgen canon <spec-file>                       print the canonical spec
//! tcgen compress <spec-file> [in [out]] [--profile P] [--threads N] [--block-records N] [--checkpoint-blocks N]
//! tcgen decompress <spec-file> [in [out]] [--threads N]
//! tcgen inspect <container> [--json]            dump a container's prelude and footer
//! tcgen cat <spec-file> <container> [out] [--range A..B]   extract a record range
//! tcgen trace <program> <kind> <records> [out]  generate a synthetic trace
//! tcgen prune <spec-file> <trace> [threshold]   emit a pruned specification
//! tcgen usage <spec-file> <trace> [--json [FILE]]   predictor-usage report
//! tcgen tune <spec-file> <trace> [out-spec] [--json [FILE]] [...]  auto-tune
//! tcgen serve --socket PATH|--stdio [--max-jobs N] [--max-cached-engines N]
//! tcgen client --socket PATH <compress|decompress|inspect|extract|stats|shutdown> [...]
//! ```
//!
//! `compress` prints predictor-usage feedback to standard error, exactly
//! as the paper's generated tools do after each compression. Omitted
//! file operands mean standard input/output.

use std::io::{IsTerminal, Read, Write};
use std::process::ExitCode;

use tcgen_engine::telemetry::json;

use tcgen_core::{Backend, EngineOptions, Recorder, Tcgen};
use tcgen_server::{JobKind, JobRequest, ServeOptions};
use tcgen_tracegen::{generate_trace, suite, TraceKind};
use tcgen_tuner::TunerOptions;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tcgen: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "generate" => generate(&args[1..]),
        "canon" => canon(&args[1..]),
        "compress" => codec(&args[1..], true),
        "decompress" => codec(&args[1..], false),
        "inspect" => inspect_container(&args[1..]),
        "cat" => cat(&args[1..]),
        "trace" => trace(&args[1..]),
        "prune" => prune(&args[1..]),
        "usage" => usage_report(&args[1..]),
        "tune" => tune(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "top" => top(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  tcgen generate <spec-file> [--lang c|rust]\n  \
     tcgen canon <spec-file>\n  \
     tcgen compress <spec-file> [input [output]] [--profile P] [--threads N] [--block-records N] [--checkpoint-blocks N]\n  \
     tcgen decompress <spec-file> [input [output]] [--threads N]\n  \
     tcgen inspect <container> [--json]\n  \
     tcgen cat <spec-file> <container> [output] [--range A..B] [--threads N]\n  \
     tcgen trace <program> <store|miss|load> <records> [output]\n  \
     tcgen prune <spec-file> <trace-file> [threshold]\n  \
     tcgen usage <spec-file> <trace-file> [--json [FILE]] [--threads N]\n  \
     tcgen tune <spec-file> <trace-file> [output-spec] [--sample-records N]\n\
     \x20          [--budget-evals N] [--seed N] [--json [FILE]] [--profile P]\n\
     \x20          [--threads N]\n  \
     tcgen serve --socket PATH|--stdio [--max-jobs N] [--max-cached-engines N]\n\
     \x20          [--metrics-addr HOST:PORT] [--slow-ms N]\n  \
     tcgen top --socket PATH [--interval MS] [--iterations N]\n  \
     tcgen client --socket PATH compress <spec-file> [input [output]]\n\
     \x20          [--profile P] [--threads N]\n\
     \x20          [--block-records N] [--checkpoint-blocks N] [--priority N]\n  \
     tcgen client --socket PATH decompress <spec-file> [input [output]]\n\
     \x20          [--threads N] [--priority N]\n  \
     tcgen client --socket PATH inspect [container]\n  \
     tcgen client --socket PATH extract <spec-file> <container> [output] --range A..B\n\
     \x20          [--threads N] [--priority N]\n  \
     tcgen client --socket PATH stats\n  \
     tcgen client --socket PATH shutdown\n\
     \n\
     --profile P        post-compression backend: max (best ratio, the\n\
     \x20                   default) or fast (adaptive range coder). The\n\
     \x20                   chosen backend is recorded in the container, so\n\
     \x20                   decompress needs no flag — any build reads any\n\
     \x20                   profile\n\
     --threads N        worker threads for block segments and tuner\n\
     \x20                   candidates (0 = one per CPU, 1 = serial; output\n\
     \x20                   is identical for every N)\n\
     --block-records N  records per compressed block (0 = whole trace)\n\
     --checkpoint-blocks N  start a span every N blocks, each from fresh\n\
     \x20                   predictor state, plus a seekable footer (0 = off,\n\
     \x20                   the default). Containers with spans support\n\
     \x20                   `tcgen cat --range`\n\
     --range A..B       record range (absolute indices) for `cat`; the whole\n\
     \x20                   trace when omitted. Without a checkpoint footer,\n\
     \x20                   cat falls back to a sequential decompress\n\
     \n\
     serve observability (never changes container bytes):\n\
     --metrics-addr A   also serve GET /metrics (Prometheus text) and\n\
     \x20                   /healthz over HTTP on A (e.g. 127.0.0.1:9464)\n\
     --slow-ms N        log a structured slow_request line to stderr for\n\
     \x20                   any job slower than N ms (0 = off, the default)\n\
     \n\
     tcgen top          live view of a running daemon: one delta row (or\n\
     \x20                   refreshing screen on a tty) per interval with\n\
     \x20                   jobs/s, MB/s in/out, windowed p99 latency, queue\n\
     \x20                   depth, cache hit rate, and worker utilization.\n\
     \x20                   --interval MS between rows (default 1000);\n\
     \x20                   --iterations N rows then exit (0 = forever)\n\
     \n\
     telemetry (compress, decompress, usage, tune; never changes output bytes):\n\
     --stats            print a per-stage timing/throughput summary to stderr\n\
     \x20                   (also enables the usage and tune progress reports)\n\
     --stats-json [FILE] write the summary as JSON (default telemetry.json)\n\
     --trace-out FILE   write a Chrome trace-event file (open in Perfetto)"
        .to_string()
}

/// The shared telemetry flags: `--stats`, `--stats-json [FILE]`, and
/// `--trace-out FILE`. Any of them attaches a [`Recorder`] to the run;
/// none of them changes the bytes a command emits.
#[derive(Default)]
struct StatsOpts {
    stats: bool,
    stats_json: Option<String>,
    trace_out: Option<String>,
}

impl StatsOpts {
    /// Consumes the telemetry flag at `args[i]` (one of the three arms
    /// the caller matched) and returns the index after it.
    fn parse(&mut self, args: &[String], i: usize) -> Result<usize, String> {
        match args[i].as_str() {
            "--stats" => {
                self.stats = true;
                Ok(i + 1)
            }
            "--stats-json" => {
                let (path, next) = parse_json_flag(args, i, "telemetry.json");
                self.stats_json = Some(path);
                Ok(next)
            }
            "--trace-out" => {
                let path = args.get(i + 1).ok_or("--trace-out needs a file")?;
                self.trace_out = Some(path.clone());
                Ok(i + 2)
            }
            other => Err(format!("unexpected argument '{other}'")),
        }
    }

    /// A recorder when any telemetry sink is requested, else `None` —
    /// the instrumented paths then skip all bookkeeping.
    fn recorder(&self) -> Option<Recorder> {
        (self.stats || self.stats_json.is_some() || self.trace_out.is_some())
            .then(Recorder::new)
    }

    /// Drains the recorder into the requested sinks: the human summary
    /// to stderr, the JSON report and the Chrome trace to their files.
    fn emit(&self, recorder: Option<&Recorder>) -> Result<(), String> {
        let Some(rec) = recorder else { return Ok(()) };
        if self.stats {
            eprint!("{}", rec.report());
        }
        if let Some(path) = &self.stats_json {
            std::fs::write(path, rec.report().to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, rec.chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}

fn load_tcgen(spec_path: &str) -> Result<Tcgen, String> {
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    Tcgen::from_spec(&source).map_err(|e| e.to_string())
}

fn generate(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let mut lang = "c";
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--lang" => {
                lang = args.get(i + 1).map(String::as_str).ok_or("--lang needs a value")?;
                i += 2;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let tcgen = load_tcgen(spec_path)?;
    let source = match lang {
        "c" => tcgen.generate_c(),
        "rust" => tcgen.generate_rust(),
        other => return Err(format!("unsupported language '{other}' (use c or rust)")),
    };
    print!("{source}");
    Ok(())
}

fn canon(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let tcgen = load_tcgen(spec_path)?;
    print!("{}", tcgen.canonical_spec());
    Ok(())
}

fn codec(args: &[String], compressing: bool) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let mut options = EngineOptions::tcgen();
    let mut stats = StatsOpts::default();
    let mut files: Vec<&String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => {
                options.backend = parse_profile(args.get(i + 1))?;
                i += 2;
            }
            "--threads" => {
                options.threads = parse_count(args.get(i + 1), "--threads")?;
                i += 2;
            }
            "--block-records" => {
                options.block_records = parse_count(args.get(i + 1), "--block-records")?;
                i += 2;
            }
            "--checkpoint-blocks" => {
                if !compressing {
                    return Err("--checkpoint-blocks applies to compress only; \
                                decompress reads the interval from the container"
                        .into());
                }
                options.checkpoint_blocks =
                    parse_count(args.get(i + 1), "--checkpoint-blocks")?;
                i += 2;
            }
            "--stats" | "--stats-json" | "--trace-out" => {
                i = stats.parse(args, i)?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            _ => {
                files.push(&args[i]);
                i += 1;
            }
        }
    }
    if files.len() > 2 {
        return Err(format!("unexpected argument '{}'", files[2]));
    }
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut tcgen = Tcgen::with_options(&source, options).map_err(|e| e.to_string())?;
    let recorder = stats.recorder();
    if let Some(rec) = &recorder {
        tcgen = tcgen.with_telemetry(rec.clone());
    }
    let input = read_input(files.first().copied())?;
    let output = if compressing {
        let (packed, usage) = tcgen.compress_with_usage(&input).map_err(|e| e.to_string())?;
        // The paper's generated tools print this after every run; here it
        // rides on the telemetry switch so plain pipelines stay quiet.
        if stats.stats {
            eprint!("{usage}");
        }
        packed
    } else {
        tcgen.decompress(&input).map_err(|e| e.to_string())?
    };
    write_output(files.get(1).copied(), &output)?;
    stats.emit(recorder.as_ref())
}

fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let value = value.ok_or(format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("bad value '{value}' for {flag}: {e}"))
}

fn parse_profile(value: Option<&String>) -> Result<Backend, String> {
    let value = value.ok_or("--profile needs a value")?;
    Backend::from_profile(value)
        .ok_or_else(|| format!("unknown profile '{value}' (use fast or max)"))
}

/// `tcgen inspect` — dump a container's prelude and, for containers with
/// spans, its footer index: per-span blocks, records and offset. No
/// specification is needed; nothing inside the block frames is read.
fn inspect_container(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut path: Option<&String> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            _ => {
                if path.is_some() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                path = Some(arg);
            }
        }
    }
    let path = path.ok_or_else(usage)?;
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let info = tcgen_engine::inspect(&mut file).map_err(|e| format!("{path}: {e}"))?;
    if json {
        println!("{}", tcgen_server::jobs::inspect_json(&info));
        return Ok(());
    }
    println!("container:    {path}");
    println!("  version:    {}", info.version);
    let profile = info.backend.map_or("unknown", |b| b.profile());
    println!("  flags:      {:#04x} (profile {profile})", info.flags);
    println!("  spec hash:  {:#010x}", info.spec_hash);
    println!("  header:     {} bytes", info.header_len);
    println!("  size:       {} bytes", info.file_len);
    if !info.checkpointed {
        println!("  checkpoints: none (sequential container)");
        return Ok(());
    }
    println!(
        "  checkpoints: {} blocks, {} records, {} spans",
        info.n_blocks.unwrap_or(0),
        info.total_records.unwrap_or(0),
        info.spans.len()
    );
    for (i, s) in info.spans.iter().enumerate() {
        println!(
            "  span {i}: blocks {}..{}, records {}..{}, offset {}",
            s.first_block, s.end_block, s.start_record, s.end_record, s.offset
        );
    }
    Ok(())
}

/// `tcgen cat` — extract a record range from a container. Checkpointed
/// containers are read seekably: only the footer and the spans covering
/// the range are touched. Containers without a checkpoint footer fall
/// back to a full sequential decompress with a warning. Output is raw
/// record bytes, without the passthrough header.
fn cat(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let mut options = EngineOptions::tcgen();
    let mut stats = StatsOpts::default();
    let mut range: Option<(u64, u64)> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--range" => {
                let value = args.get(i + 1).ok_or("--range needs a value like 100..200")?;
                range = Some(parse_range(value)?);
                i += 2;
            }
            "--threads" => {
                options.threads = parse_count(args.get(i + 1), "--threads")?;
                i += 2;
            }
            "--stats" | "--stats-json" | "--trace-out" => {
                i = stats.parse(args, i)?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            _ => {
                files.push(&args[i]);
                i += 1;
            }
        }
    }
    let container_path = *files.first().ok_or_else(usage)?;
    if files.len() > 2 {
        return Err(format!("unexpected argument '{}'", files[2]));
    }
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut tcgen = Tcgen::with_options(&source, options).map_err(|e| e.to_string())?;
    let recorder = stats.recorder();
    if let Some(rec) = &recorder {
        tcgen = tcgen.with_telemetry(rec.clone());
    }
    let mut file = std::fs::File::open(container_path)
        .map_err(|e| format!("cannot read {container_path}: {e}"))?;
    let info =
        tcgen_engine::inspect(&mut file).map_err(|e| format!("{container_path}: {e}"))?;
    let engine = tcgen.engine();
    let record_len = engine.spec().record_bytes() as usize;
    let output = if info.checkpointed {
        let total = info.total_records.unwrap_or(0);
        let (start, end) = range.unwrap_or((0, total));
        tcgen_engine::extract_range(
            engine.spec(),
            engine.options(),
            &mut file,
            start..end,
            tcgen.telemetry(),
        )
        .map_err(|e| format!("{container_path}: {e}"))?
    } else {
        eprintln!(
            "tcgen: {container_path} has no checkpoint footer (compressed without \
             --checkpoint-blocks); falling back to a full sequential decompress"
        );
        let raw = std::fs::read(container_path)
            .map_err(|e| format!("cannot read {container_path}: {e}"))?;
        let full = tcgen.decompress(&raw).map_err(|e| e.to_string())?;
        let records = &full[engine.spec().header_bytes() as usize..];
        let total = (records.len() / record_len) as u64;
        let (start, end) = range.unwrap_or((0, total));
        if start > end || end > total {
            return Err(format!("record range {start}..{end} outside 0..{total}"));
        }
        records[start as usize * record_len..end as usize * record_len].to_vec()
    };
    write_output(files.get(1).copied(), &output)?;
    stats.emit(recorder.as_ref())
}

/// Parses `A..B` into an absolute record range.
fn parse_range(value: &str) -> Result<(u64, u64), String> {
    let err = || format!("bad range '{value}' (expected A..B, e.g. 100..200)");
    let (a, b) = value.split_once("..").ok_or_else(err)?;
    let start = a.parse().map_err(|_| err())?;
    let end = b.parse().map_err(|_| err())?;
    if start > end {
        return Err(format!("bad range '{value}': start exceeds end"));
    }
    Ok((start, end))
}

fn trace(args: &[String]) -> Result<(), String> {
    let [program_name, kind_name, count] = args.get(..3).ok_or_else(usage)? else {
        return Err(usage());
    };
    let program = suite().into_iter().find(|p| p.name == *program_name).ok_or_else(|| {
        let names: Vec<_> = suite().iter().map(|p| p.name).collect();
        format!("unknown program '{program_name}'; choose one of {}", names.join(", "))
    })?;
    let kind = match kind_name.as_str() {
        "store" => TraceKind::StoreAddress,
        "miss" => TraceKind::CacheMissAddress,
        "load" => TraceKind::LoadValue,
        other => return Err(format!("unknown trace kind '{other}' (store, miss, or load)")),
    };
    let records: usize =
        count.parse().map_err(|e| format!("bad record count '{count}': {e}"))?;
    let trace = generate_trace(&program, kind, records);
    write_output(args.get(3), &trace.to_bytes())
}

/// The paper's §7.5 workflow: compress once with the wide specification,
/// then emit a canonical specification with the idle predictors removed.
fn prune(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let trace_path = args.get(1).ok_or_else(usage)?;
    let mut stats = StatsOpts::default();
    let mut threshold = 0.02f64;
    let mut threshold_seen = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" | "--stats-json" | "--trace-out" => {
                i = stats.parse(args, i)?;
            }
            t => {
                if threshold_seen {
                    return Err(format!("unexpected argument '{t}'"));
                }
                threshold = t.parse().map_err(|e| format!("bad threshold '{t}': {e}"))?;
                threshold_seen = true;
                i += 1;
            }
        }
    }
    let mut tcgen = load_tcgen(spec_path)?;
    let recorder = stats.recorder();
    if let Some(rec) = &recorder {
        tcgen = tcgen.with_telemetry(rec.clone());
    }
    let raw =
        std::fs::read(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let (_, usage) = tcgen.compress_with_usage(&raw).map_err(|e| e.to_string())?;
    if stats.stats {
        eprint!("{usage}");
    }
    let pruned = usage.pruned_spec(tcgen.spec(), threshold);
    print!("{}", tcgen_spec::canonical(&pruned));
    stats.emit(recorder.as_ref())
}

/// Parses the optional path operand of `--json`, mirroring the bench
/// harness: a following argument that looks like a flag keeps the
/// default name.
fn parse_json_flag(args: &[String], i: usize, default: &str) -> (String, usize) {
    match args.get(i + 1) {
        Some(next) if !next.starts_with("--") => (next.clone(), i + 2),
        _ => (default.to_string(), i + 1),
    }
}

/// `tcgen usage` — compress once and report predictor usage, including
/// the per-table occupancy counters that flag oversized tables.
fn usage_report(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let trace_path = args.get(1).ok_or_else(usage)?;
    let mut options = EngineOptions::tcgen();
    let mut stats = StatsOpts::default();
    let mut json: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                options.threads = parse_count(args.get(i + 1), "--threads")?;
                i += 2;
            }
            "--json" => {
                let (path, next) = parse_json_flag(args, i, "usage.json");
                json = Some(path);
                i = next;
            }
            "--stats" | "--stats-json" | "--trace-out" => {
                i = stats.parse(args, i)?;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut tcgen = Tcgen::with_options(&source, options).map_err(|e| e.to_string())?;
    let recorder = stats.recorder();
    if let Some(rec) = &recorder {
        tcgen = tcgen.with_telemetry(rec.clone());
    }
    let raw =
        std::fs::read(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let (_, report) = tcgen.compress_with_usage(&raw).map_err(|e| e.to_string())?;
    print!("{report}");
    if let Some(path) = json {
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    stats.emit(recorder.as_ref())
}

/// `tcgen tune` — search the predictor-configuration space against a
/// trace and emit the winning spec (canonical form) plus an optional
/// JSON log of every candidate evaluated.
fn tune(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let trace_path = args.get(1).ok_or_else(usage)?;
    let mut options = TunerOptions::default();
    let mut stats = StatsOpts::default();
    let mut json: Option<String> = None;
    let mut out_spec: Option<&String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--sample-records" => {
                options.sample_records = parse_count(args.get(i + 1), "--sample-records")?;
                i += 2;
            }
            "--budget-evals" => {
                options.budget_evals = parse_count(args.get(i + 1), "--budget-evals")?;
                i += 2;
            }
            "--seed" => {
                options.seed = parse_count(args.get(i + 1), "--seed")? as u64;
                i += 2;
            }
            "--profile" => {
                options.engine.backend = parse_profile(args.get(i + 1))?;
                i += 2;
            }
            "--threads" => {
                options.engine.threads = parse_count(args.get(i + 1), "--threads")?;
                i += 2;
            }
            "--json" => {
                let (path, next) = parse_json_flag(args, i, "tune.json");
                json = Some(path);
                i = next;
            }
            "--stats" | "--stats-json" | "--trace-out" => {
                i = stats.parse(args, i)?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            _ => {
                if out_spec.is_some() {
                    return Err(format!("unexpected argument '{}'", args[i]));
                }
                out_spec = Some(&args[i]);
                i += 1;
            }
        }
    }
    let tcgen = load_tcgen(spec_path)?;
    let raw =
        std::fs::read(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let recorder = stats.recorder();
    let outcome =
        tcgen_tuner::tune_with_telemetry(tcgen.spec(), &raw, &options, recorder.as_ref())
            .map_err(|e| e.to_string())?;
    // Progress feedback rides on the telemetry switch so scripted
    // pipelines stay quiet by default.
    if stats.stats {
        eprintln!(
            "tuned {} of {} records in {} evaluations: base {} bytes, tuned {} bytes{}",
            outcome.sampled_records,
            outcome.total_records,
            outcome.evals,
            outcome.base_container_bytes,
            outcome.tuned_container_bytes,
            if outcome.used_base { " (keeping the base spec)" } else { "" }
        );
    }
    if let Some(path) = json {
        std::fs::write(&path, tcgen_tuner::report_json(&outcome, &options))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    write_output(out_spec, tcgen_spec::canonical(&outcome.tuned).as_bytes())?;
    stats.emit(recorder.as_ref())
}

/// `tcgen serve` — run the multi-tenant compression daemon until a
/// client asks it to shut down.
fn serve(args: &[String]) -> Result<(), String> {
    let mut socket: Option<&String> = None;
    let mut stdio = false;
    let mut options = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                socket = Some(args.get(i + 1).ok_or("--socket needs a path")?);
                i += 2;
            }
            "--stdio" => {
                stdio = true;
                i += 1;
            }
            "--max-jobs" => {
                options.max_jobs = parse_count(args.get(i + 1), "--max-jobs")?;
                i += 2;
            }
            "--max-cached-engines" => {
                options.max_cached_engines =
                    parse_count(args.get(i + 1), "--max-cached-engines")?;
                i += 2;
            }
            "--metrics-addr" => {
                let addr = args.get(i + 1).ok_or("--metrics-addr needs HOST:PORT")?;
                options.metrics_addr = Some(addr.clone());
                i += 2;
            }
            "--slow-ms" => {
                options.slow_ms = parse_count(args.get(i + 1), "--slow-ms")? as u64;
                i += 2;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    match (socket, stdio) {
        (Some(path), false) => tcgen_server::serve_unix(std::path::Path::new(path), &options)
            .map_err(|e| format!("serve on {path}: {e}")),
        (None, true) => tcgen_server::serve_stdio(&options).map_err(|e| format!("serve: {e}")),
        _ => Err("serve needs exactly one of --socket PATH or --stdio".into()),
    }
}

/// `tcgen top` — subscribe to a daemon's stats stream and render live
/// deltas between consecutive reports: jobs/s, MB/s in and out, the
/// windowed p99 job latency (from histogram bucket diffs), queue
/// depth, cache hit rate, and per-worker utilization. On a terminal
/// the view refreshes in place; on a pipe it prints one row per tick,
/// which is what the CI smoke test greps.
fn top(args: &[String]) -> Result<(), String> {
    let mut socket: Option<&String> = None;
    let mut interval_ms: u32 = 1000;
    let mut iterations: usize = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                socket = Some(args.get(i + 1).ok_or("--socket needs a path")?);
                i += 2;
            }
            "--interval" => {
                interval_ms = parse_count(args.get(i + 1), "--interval")? as u32;
                i += 2;
            }
            "--iterations" => {
                iterations = parse_count(args.get(i + 1), "--iterations")?;
                i += 2;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let socket = socket.ok_or("top needs --socket PATH")?;
    let tty = std::io::stdout().is_terminal();
    let mut client = connect_client(socket)?;
    let mut prev: Option<json::Value> = None;
    let mut rows = 0usize;
    let mut parse_error: Option<String> = None;
    client
        .stats_stream(interval_ms, |text| {
            let report = match json::parse(text) {
                Ok(v) => v,
                Err(e) => {
                    parse_error = Some(format!("bad stats report: {e}"));
                    return false;
                }
            };
            // The first report is the baseline; every later one renders
            // the delta against its predecessor.
            if let Some(before) = &prev {
                print!("{}", render_top_row(before, &report, tty));
                let _ = std::io::stdout().flush();
                rows += 1;
            }
            prev = Some(report);
            iterations == 0 || rows < iterations
        })
        .map_err(|e| e.to_string())?;
    parse_error.map_or(Ok(()), Err)
}

/// Pulls one cumulative counter out of a parsed stats report (0 when
/// the daemon has not touched it yet).
fn top_counter(report: &json::Value, name: &str) -> u64 {
    report.get("counters").and_then(|c| c.get(name)).and_then(json::Value::as_u64).unwrap_or(0)
}

/// The non-empty `(upper_bound, count)` buckets of one named histogram
/// in a parsed stats report.
fn top_hist_buckets(report: &json::Value, name: &str) -> Vec<(u64, u64)> {
    let Some(hists) = report.get("histograms").and_then(json::Value::as_arr) else {
        return Vec::new();
    };
    for hist in hists {
        if hist.get("histogram").and_then(json::Value::as_str) == Some(name) {
            let Some(buckets) = hist.get("buckets").and_then(json::Value::as_arr) else {
                return Vec::new();
            };
            return buckets
                .iter()
                .filter_map(|b| Some((b.get("le")?.as_u64()?, b.get("count")?.as_u64()?)))
                .collect();
        }
    }
    Vec::new()
}

/// The quantile of the *new* samples between two bucket snapshots of
/// the same histogram: subtract the old counts, then walk the diffed
/// distribution. `None` when no new sample landed in the window.
fn diffed_quantile(before: &[(u64, u64)], after: &[(u64, u64)], q: f64) -> Option<u64> {
    let old: std::collections::HashMap<u64, u64> = before.iter().copied().collect();
    let diff: Vec<(u64, u64)> = after
        .iter()
        .map(|&(le, count)| (le, count.saturating_sub(old.get(&le).copied().unwrap_or(0))))
        .filter(|&(_, count)| count > 0)
        .collect();
    let total: u64 = diff.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(le, count) in &diff {
        seen += count;
        if seen >= target {
            return Some(le);
        }
    }
    diff.last().map(|&(le, _)| le)
}

/// Per-track busy seconds keyed by `name:id`, for utilization deltas.
fn top_tracks(report: &json::Value) -> Vec<(String, f64)> {
    let Some(tracks) = report.get("tracks").and_then(json::Value::as_arr) else {
        return Vec::new();
    };
    tracks
        .iter()
        .filter_map(|t| {
            let name = t.get("track")?.as_str()?;
            let id = t.get("id")?.as_u64()?;
            let busy = t.get("busy_seconds")?.as_f64()?;
            Some((format!("{name}:{id}"), busy))
        })
        .collect()
}

/// Formats one `tcgen top` tick from two consecutive reports that share
/// a recorder epoch. On a tty the row becomes a small refreshing panel.
fn render_top_row(before: &json::Value, after: &json::Value, tty: bool) -> String {
    let wall =
        |r: &json::Value| r.get("wall_seconds").and_then(json::Value::as_f64).unwrap_or(0.0);
    let dt = (wall(after) - wall(before)).max(1e-9);
    let delta = |name: &str| top_counter(after, name).saturating_sub(top_counter(before, name));
    let jobs_per_s = delta("serve.jobs") as f64 / dt;
    let in_mb_per_s = delta("serve.bytes_in") as f64 / dt / 1e6;
    let out_mb_per_s = delta("serve.bytes_out") as f64 / dt / 1e6;
    let p99_ms = diffed_quantile(
        &top_hist_buckets(before, "serve.job_duration_ns"),
        &top_hist_buckets(after, "serve.job_duration_ns"),
        0.99,
    )
    .map(|ns| ns as f64 / 1e6);
    let errors = delta("serve.errors");
    let hits = delta("serve.cache_hit");
    let misses = delta("serve.cache_miss");
    let cache = if hits + misses > 0 {
        format!("{:.0}%", 100.0 * hits as f64 / (hits + misses) as f64)
    } else {
        "-".to_string()
    };
    // Queue-depth high watermark over the shortest trailing window the
    // daemon reports (its sampler feeds 10s and 60s windows).
    let queue_hwm = after
        .get("windows")
        .and_then(json::Value::as_arr)
        .and_then(|w| w.first())
        .and_then(|w| w.get("queue_depth_hwm"))
        .and_then(json::Value::as_u64)
        .unwrap_or(0);
    let before_busy: std::collections::HashMap<String, f64> =
        top_tracks(before).into_iter().collect();
    let mut utils: Vec<(String, f64)> = top_tracks(after)
        .into_iter()
        .map(|(key, busy)| {
            let share = (busy - before_busy.get(&key).copied().unwrap_or(0.0)) / dt;
            (key, (share * 100.0).clamp(0.0, 100.0))
        })
        .collect();
    let busy_sum: f64 = utils.iter().map(|(_, u)| u).sum();
    let workers = utils.len().max(1);
    let p99_text = p99_ms.map_or("-".to_string(), |ms| format!("{ms:.1}"));
    let row = format!(
        "jobs/s={jobs_per_s:.1} in_MB/s={in_mb_per_s:.2} out_MB/s={out_mb_per_s:.2} \
         p99_ms={p99_text} queue_hwm={queue_hwm} cache_hit={cache} errors={errors} \
         util={:.0}%",
        busy_sum / workers as f64
    );
    if !tty {
        return format!("tcgen top  dt={dt:.2}s {row}\n");
    }
    // Terminal: clear, headline, then the busiest workers one per line.
    utils.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut screen = format!(
        "\x1b[2J\x1b[H\
         tcgen top — {dt:.2}s window, uptime {:.1}s\n\n  {}\n\n  workers:\n",
        wall(after),
        row.replace(' ', "\n  ").replace('=', "  "),
    );
    for (key, util) in utils.iter().take(16) {
        let bars = "#".repeat((util / 5.0).round() as usize);
        screen.push_str(&format!("    {key:<28} {util:>5.1}% {bars}\n"));
    }
    screen
}

/// `tcgen client` — submit one job (or a stats/shutdown request) to a
/// running daemon and stream the result back.
fn client(args: &[String]) -> Result<(), String> {
    let (Some(flag), Some(socket), Some(action)) = (args.first(), args.get(1), args.get(2))
    else {
        return Err(usage());
    };
    if flag != "--socket" {
        return Err(usage());
    }
    let rest = &args[3..];
    match action.as_str() {
        "compress" => client_codec(socket, rest, true),
        "decompress" => client_codec(socket, rest, false),
        "inspect" => {
            let input = read_input(rest.first())?;
            let json = connect_client(socket)?
                .run(&JobRequest::new(JobKind::Inspect, ""), &input)
                .map_err(|e| e.to_string())?;
            println!("{}", String::from_utf8_lossy(&json));
            Ok(())
        }
        "extract" => client_extract(socket, rest),
        "stats" => {
            let report = connect_client(socket)?.stats().map_err(|e| e.to_string())?;
            println!("{report}");
            Ok(())
        }
        "shutdown" => connect_client(socket)?.shutdown().map_err(|e| e.to_string()),
        other => Err(format!("unknown client action '{other}'\n{}", usage())),
    }
}

fn connect_client(socket: &str) -> Result<tcgen_server::Client, String> {
    tcgen_server::Client::connect(std::path::Path::new(socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))
}

/// Shared argument handling for `client compress` / `client decompress`.
fn client_codec(socket: &str, args: &[String], compressing: bool) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let kind = if compressing { JobKind::Compress } else { JobKind::Decompress };
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut request = JobRequest::new(kind, spec);
    let mut files: Vec<&String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" if compressing => {
                request.profile = parse_profile(args.get(i + 1))?.id();
                i += 2;
            }
            "--threads" => {
                request.threads = parse_count(args.get(i + 1), "--threads")? as u32;
                i += 2;
            }
            "--block-records" if compressing => {
                request.block_records = parse_count(args.get(i + 1), "--block-records")? as u32;
                i += 2;
            }
            "--checkpoint-blocks" if compressing => {
                request.checkpoint_blocks =
                    parse_count(args.get(i + 1), "--checkpoint-blocks")? as u32;
                i += 2;
            }
            "--priority" => {
                request.priority = parse_count(args.get(i + 1), "--priority")?
                    .try_into()
                    .map_err(|_| "--priority must fit in 0..=255".to_string())?;
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            _ => {
                files.push(&args[i]);
                i += 1;
            }
        }
    }
    if files.len() > 2 {
        return Err(format!("unexpected argument '{}'", files[2]));
    }
    let input = read_input(files.first().copied())?;
    let output = connect_client(socket)?.run(&request, &input).map_err(|e| e.to_string())?;
    write_output(files.get(1).copied(), &output)
}

/// `tcgen client ... extract` — the service-side `tcgen cat`.
fn client_extract(socket: &str, args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or_else(usage)?;
    let container = args.get(1).ok_or_else(usage)?;
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut request = JobRequest::new(JobKind::Extract, spec);
    let mut range: Option<(u64, u64)> = None;
    let mut out: Option<&String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--range" => {
                let value = args.get(i + 1).ok_or("--range needs a value like 100..200")?;
                range = Some(parse_range(value)?);
                i += 2;
            }
            "--threads" => {
                request.threads = parse_count(args.get(i + 1), "--threads")? as u32;
                i += 2;
            }
            "--priority" => {
                request.priority = parse_count(args.get(i + 1), "--priority")?
                    .try_into()
                    .map_err(|_| "--priority must fit in 0..=255".to_string())?;
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument '{other}'"));
            }
            arg => {
                if out.is_some() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                out = Some(&args[i]);
                i += 1;
            }
        }
    }
    let (start, end) = range.ok_or("extract needs --range A..B")?;
    request.range_start = start;
    request.range_end = end;
    let input = read_input(Some(container))?;
    let output = connect_client(socket)?.run(&request, &input).map_err(|e| e.to_string())?;
    write_output(out, &output)
}

fn read_input(path: Option<&String>) -> Result<Vec<u8>, String> {
    match path {
        Some(p) if p != "-" => std::fs::read(p).map_err(|e| format!("cannot read {p}: {e}")),
        _ => {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| format!("cannot read standard input: {e}"))?;
            Ok(buf)
        }
    }
}

fn write_output(path: Option<&String>, data: &[u8]) -> Result<(), String> {
    match path {
        Some(p) if p != "-" => {
            std::fs::write(p, data).map_err(|e| format!("cannot write {p}: {e}"))
        }
        _ => std::io::stdout()
            .write_all(data)
            .map_err(|e| format!("cannot write standard output: {e}")),
    }
}
