//! Telemetry acceptance tests: attaching a recorder must never change a
//! single container byte at any thread/block configuration, and the
//! report and Chrome-trace sinks must emit valid, complete output.

use tcgen_engine::telemetry::json;
use tcgen_engine::{
    compress_stream_with_telemetry, decompress_stream_with_telemetry, Backend, Engine,
    EngineOptions, Recorder,
};
use tcgen_spec::{parse, presets, TraceSpec};

fn spec() -> TraceSpec {
    parse(presets::TCGEN_A).expect("preset parses")
}

fn demo_trace(records: usize) -> Vec<u8> {
    let mut raw = vec![9, 8, 7, 6];
    for i in 0..records as u64 {
        raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
        raw.extend_from_slice(&(0x2000 + i * 8 + (i % 3)).to_le_bytes());
    }
    raw
}

fn engine(block_records: usize, threads: usize) -> Engine {
    Engine::new(spec(), EngineOptions { block_records, threads, ..EngineOptions::tcgen() })
}

/// The tentpole invariant: telemetry is passive. For a matrix of
/// (threads, block_records) settings, the container with
/// a recorder attached is byte-identical to the one without, and
/// decompression under observation restores the identical trace.
#[test]
fn recorder_never_changes_container_bytes() {
    let raw = demo_trace(2_000);
    for block_records in [1usize, 64, 701, 0] {
        for threads in [1, 3, 4] {
            let plain = engine(block_records, threads);
            let baseline = plain.compress(&raw).expect("compress");

            let rec = Recorder::new();
            let observed = plain.clone().with_telemetry(rec.clone());
            let packed = observed.compress(&raw).expect("observed compress");
            assert_eq!(
                packed, baseline,
                "telemetry changed the container: block_records {block_records}, \
                 threads {threads}"
            );
            assert_eq!(
                observed.decompress(&packed).expect("observed decompress"),
                raw,
                "observed roundtrip failed: block_records {block_records}, \
                 threads {threads}"
            );
            // And the recorder actually saw the work it watched.
            let report = rec.report();
            assert_eq!(report.counter("compress.bytes_in"), Some(raw.len() as u64));
            assert_eq!(report.counter("compress.bytes_out"), Some(baseline.len() as u64));
            assert_eq!(report.counter("decompress.bytes_out"), Some(raw.len() as u64));
        }
    }
}

/// Streaming paths under the same invariant: streamed-with-recorder
/// output equals streamed-without equals the in-memory container.
#[test]
fn streaming_recorder_matches_in_memory_bytes() {
    let raw = demo_trace(1_500);
    let options = EngineOptions { block_records: 256, threads: 3, ..EngineOptions::tcgen() };
    let baseline = Engine::new(spec(), options).compress(&raw).expect("in-memory compress");

    let rec = Recorder::new();
    let mut packed = Vec::new();
    compress_stream_with_telemetry(
        &spec(),
        &options,
        &mut raw.as_slice(),
        &mut packed,
        Some(&rec),
    )
    .expect("streamed compress");
    assert_eq!(packed, baseline, "streamed container differs under telemetry");

    let mut restored = Vec::new();
    decompress_stream_with_telemetry(
        &spec(),
        &options,
        &mut packed.as_slice(),
        &mut restored,
        Some(&rec),
    )
    .expect("streamed decompress");
    assert_eq!(restored, raw);

    let report = rec.report();
    assert_eq!(report.counter("compress.bytes_out"), Some(baseline.len() as u64));
    assert_eq!(report.counter("decompress.bytes_in"), Some(baseline.len() as u64));
    assert_eq!(report.counter("decompress.bytes_out"), Some(raw.len() as u64));
    assert!(report.stage("io.read").is_some(), "io spans missing: {report}");
}

/// The JSON report parses, carries the schema's sections, and its
/// numbers agree with the run.
#[test]
fn json_report_is_valid_and_complete() {
    let raw = demo_trace(1_200);
    let rec = Recorder::new();
    let observed = engine(128, 3).with_telemetry(rec.clone());
    let packed = observed.compress(&raw).expect("compress");
    observed.decompress(&packed).expect("decompress");

    let text = rec.report().to_json();
    let value = json::parse(&text).expect("report JSON parses");
    assert!(value.get("wall_seconds").and_then(|v| v.as_f64()).unwrap() > 0.0);
    let counters = value.get("counters").expect("counters object");
    assert_eq!(
        counters.get("compress.records").and_then(|v| v.as_u64()),
        Some(1_200),
        "{text}"
    );
    let stages = value.get("stages").and_then(|v| v.as_arr()).expect("stages array");
    let stage_names: Vec<&str> =
        stages.iter().filter_map(|s| s.get("stage").and_then(|v| v.as_str())).collect();
    for expected in
        ["compress", "decompress", "model.chunk", "pack.segment.max", "replay.block"]
    {
        assert!(stage_names.contains(&expected), "stage {expected} missing: {stage_names:?}");
    }
    let pools = value.get("pools").and_then(|v| v.as_arr()).expect("pools array");
    let pack = pools
        .iter()
        .find(|p| p.get("pool").and_then(|v| v.as_str()) == Some("pack"))
        .expect("pack pool report");
    assert_eq!(pack.get("workers").and_then(|v| v.as_u64()), Some(3));
    let submitted = pack.get("submitted").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(pack.get("completed").and_then(|v| v.as_u64()), Some(submitted));
}

/// The Chrome trace parses, and every pool worker shows up as its own
/// named track with `X` duration events, so Perfetto renders one lane
/// per worker.
#[test]
fn chrome_trace_has_one_track_per_worker() {
    let threads = 3;
    let raw = demo_trace(1_000);
    let rec = Recorder::new();
    let observed = engine(128, threads).with_telemetry(rec.clone());
    let packed = observed.compress(&raw).expect("compress");
    observed.decompress(&packed).expect("decompress");

    let value = json::parse(&rec.chrome_trace()).expect("chrome trace parses");
    let events = value.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents");
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str()))
        .collect();
    assert!(thread_names.contains(&"driver"), "{thread_names:?}");
    for pool in ["pack", "unpack"] {
        for i in 0..threads {
            let track = format!("{pool}-{i}");
            assert!(
                thread_names.iter().any(|n| **n == track),
                "track {track} missing: {thread_names:?}"
            );
        }
    }
    // Duration events carry timestamps and land on registered tracks.
    let durations: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")).collect();
    assert!(!durations.is_empty());
    for e in &durations {
        assert!(e.get("ts").is_some() && e.get("dur").is_some() && e.get("name").is_some());
    }
}

/// An engine without a recorder records nothing and costs nothing — the
/// `telemetry()` accessor stays `None` and compression works as before.
#[test]
fn engine_without_recorder_stays_unobserved() {
    let raw = demo_trace(500);
    let plain = engine(128, 2);
    assert!(plain.telemetry().is_none());
    let packed = plain.compress(&raw).expect("compress");
    assert_eq!(plain.decompress(&packed).expect("decompress"), raw);
}

/// A trace whose records fit in one block of at most 512 KiB is packed
/// and unpacked on the calling thread: at four threads no `pack` or
/// `unpack` pool starts, and the container equals the one-thread
/// container. One 12-byte record more starts both pools.
#[test]
fn small_single_block_calls_start_no_pool() {
    let inline_records = (512 << 10) / 12;
    for (records, backend) in [(2_000, Backend::Max), (inline_records, Backend::Fast)] {
        for (records, pooled) in [(records, false), (records + 1, records == inline_records)] {
            let options =
                |threads| EngineOptions { threads, backend, ..EngineOptions::tcgen() };
            let raw = demo_trace(records);
            let serial = Engine::new(spec(), options(1)).compress(&raw).expect("compress");
            let rec = Recorder::new();
            let observed = Engine::new(spec(), options(4)).with_telemetry(rec.clone());
            let packed = observed.compress(&raw).expect("compress at four threads");
            assert_eq!(packed, serial, "{records} records: the thread count changed the bytes");
            assert_eq!(observed.decompress(&packed).expect("decompress"), raw);
            let report = rec.report();
            assert_eq!(report.counter("compress.blocks"), Some(1));
            let mut pools: Vec<&str> = report.pools.iter().map(|p| p.label.as_str()).collect();
            pools.sort_unstable();
            let expected: &[&str] = if pooled { &["pack", "unpack"] } else { &[] };
            assert_eq!(pools, expected, "{records} records in one block");
        }
    }
}

/// Table set-up is visible: a thread builds its bank set once, and every
/// later call and every span start resets that set instead, each under
/// one `tables.setup` span.
#[test]
fn table_sets_are_built_once_per_thread() {
    let raw = demo_trace(1_500);
    // 12 blocks of 128 records, a span every 2 blocks: 6 spans.
    let options = EngineOptions {
        block_records: 128,
        checkpoint_blocks: 2,
        threads: 1,
        ..EngineOptions::tcgen()
    };
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            let rec = Recorder::new();
            let observed = Engine::new(spec(), options).with_telemetry(rec.clone());
            let packed = observed.compress(&raw).expect("compress");
            assert_eq!(observed.decompress(&packed).expect("decompress"), raw);
            rec.report()
        })
        .join()
        .expect("traced thread")
    });
    // Built by the compress; reset by its 5 later spans, by the
    // decompress and by the decompress's 5 later spans.
    assert_eq!(report.counter("tables.built"), Some(1));
    assert_eq!(report.counter("tables.reused"), Some(11));
    assert_eq!(report.stage("tables.setup").map(|s| s.count), Some(12));
}
