//! Predictor tables outlive the call: a thread keeps its last bank set
//! and resets it for its next call. These tests run several calls on one
//! thread and check that the later calls produce exactly what a freshly
//! spawned thread — which builds its tables new — produces: the same
//! container bytes, the same usage report (table occupancy included),
//! and exact round trips.

use std::io::Cursor;

use tcgen_engine::{extract_range, Backend, Engine, EngineOptions, UsageReport};
use tcgen_spec::{parse, presets, TraceSpec};

fn spec() -> TraceSpec {
    parse(presets::TCGEN_A).expect("preset parses")
}

/// A TCGEN_A trace: 4-byte header, then (32-bit PC, 64-bit data) records
/// mixing strided and random data over a seed-dependent set of PCs.
fn trace(seed: u64, records: usize) -> Vec<u8> {
    let mut raw = vec![4, 3, 2, 1];
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in 0..records as u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pc = 0x40_0000 + ((x >> 40) % (20 + seed * 7)) as u32 * 4;
        let data = if i % 4 == 0 { x >> 3 } else { 0x8000 + i * (8 + seed) };
        raw.extend_from_slice(&pc.to_le_bytes());
        raw.extend_from_slice(&data.to_le_bytes());
    }
    raw
}

/// What `f` returns on a new thread, whose calls build their tables new.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh thread panicked"))
}

fn fresh_usage(engine: &Engine, raw: &[u8]) -> (Vec<u8>, UsageReport) {
    on_fresh_thread(|| engine.compress_with_usage(raw).expect("fresh compress"))
}

fn table2_presets() -> [EngineOptions; 7] {
    [
        EngineOptions::tcgen(),
        EngineOptions::vpc3(),
        EngineOptions::no_smart_update(),
        EngineOptions::no_type_minimization(),
        EngineOptions::no_shared_tables(),
        EngineOptions::no_fast_hash(),
        EngineOptions::all_deoptimized(),
    ]
}

/// Compress A, then B, then decompress both, on this thread: B's
/// container and usage equal a fresh thread's, for every Table 2 preset,
/// both segment backends and one or four threads.
#[test]
fn second_call_matches_a_fresh_thread_for_every_preset() {
    let spec = spec();
    let (a, b) = (trace(1, 3_000), trace(2, 2_000));
    for (p, preset) in table2_presets().into_iter().enumerate() {
        for backend in [Backend::Max, Backend::Fast] {
            for threads in [1, 4] {
                let options = EngineOptions { backend, threads, block_records: 700, ..preset };
                let engine = Engine::new(spec.clone(), options);
                let what = format!("preset {p}, {backend:?}, threads {threads}");
                let packed_a = engine.compress(&a).expect("compress A");
                let (packed_b, usage_b) = engine.compress_with_usage(&b).expect("compress B");
                assert_eq!(engine.decompress(&packed_a).unwrap(), a, "{what}: A roundtrip");
                assert_eq!(engine.decompress(&packed_b).unwrap(), b, "{what}: B roundtrip");
                let (want_b, want_usage) = fresh_usage(&engine, &b);
                assert_eq!(packed_b, want_b, "{what}: B's container");
                assert_eq!(usage_b, want_usage, "{what}: B's usage report");
                // And the decoder's reused set is as good as a new one.
                let again = engine.compress(&b).expect("compress B after the decodes");
                assert_eq!(again, want_b, "{what}: B after two decodes");
            }
        }
    }
}

/// Spans reset the tables in place on the writer and on every reader:
/// containers with spans, written after another call on the same thread,
/// equal a fresh thread's, and a seek into them reuses the thread's set.
#[test]
fn checkpointed_containers_match_a_fresh_thread() {
    let spec = spec();
    let (a, b) = (trace(3, 3_000), trace(4, 2_600));
    for threads in [1, 4] {
        let options = EngineOptions {
            block_records: 400,
            checkpoint_blocks: 2,
            threads,
            ..EngineOptions::tcgen()
        };
        let engine = Engine::new(spec.clone(), options);
        let packed_a = engine.compress(&a).unwrap();
        let (packed_b, usage_b) = engine.compress_with_usage(&b).unwrap();
        assert_eq!(engine.decompress(&packed_a).unwrap(), a, "threads {threads}");
        assert_eq!(engine.decompress(&packed_b).unwrap(), b, "threads {threads}");
        let (want_b, want_usage) = fresh_usage(&engine, &b);
        assert_eq!(packed_b, want_b, "threads {threads}: B's container");
        assert_eq!(usage_b, want_usage, "threads {threads}: B's usage report");
        for range in [0..100u64, 950..1_700, 2_000..2_600] {
            let got = extract_range(
                &spec,
                &options,
                &mut Cursor::new(&packed_b),
                range.clone(),
                None,
            )
            .unwrap();
            let (lo, hi) = (4 + range.start as usize * 12, 4 + range.end as usize * 12);
            assert_eq!(got, &b[lo..hi], "threads {threads}: extract {range:?}");
        }
        assert_eq!(engine.compress(&b).unwrap(), want_b, "threads {threads}: after seeks");
    }
}

/// A decode that fails partway leaves its set dirty; the next call on
/// the thread still starts from fresh tables.
#[test]
fn corrupt_decode_between_calls_leaves_no_trace() {
    let spec = spec();
    let (a, b) = (trace(5, 3_000), trace(6, 2_000));
    for threads in [1, 4] {
        let options = EngineOptions { block_records: 700, threads, ..EngineOptions::tcgen() };
        let engine = Engine::new(spec.clone(), options);
        let mut packed_a = engine.compress(&a).unwrap();
        // The byte before the end marker lies in the last block's last
        // segment: the earlier blocks replay before the decode fails.
        let last = packed_a.len() - 2;
        packed_a[last] ^= 0x5a;
        assert!(
            engine.decompress(&packed_a).is_err(),
            "threads {threads}: corruption unnoticed"
        );
        let (packed_b, usage_b) = engine.compress_with_usage(&b).unwrap();
        assert_eq!(fresh_usage(&engine, &b), (packed_b.clone(), usage_b), "threads {threads}");
        assert_eq!(engine.decompress(&packed_b).unwrap(), b, "threads {threads}");
    }
}

/// A TCgen engine decoding a VPC3 container replays under the
/// container's options, not its own; the calls after it still match a
/// fresh thread.
#[test]
fn cross_options_decode_between_calls() {
    let spec = spec();
    let (a, b) = (trace(7, 2_500), trace(8, 2_000));
    let tcgen = Engine::new(spec.clone(), EngineOptions::tcgen());
    let vpc3 = Engine::new(spec.clone(), EngineOptions::vpc3());
    let packed_a = vpc3.compress(&a).unwrap();
    assert_eq!(tcgen.decompress(&packed_a).unwrap(), a);
    let (packed_b, usage_b) = tcgen.compress_with_usage(&b).unwrap();
    assert_eq!(fresh_usage(&tcgen, &b), (packed_b.clone(), usage_b));
    assert_eq!(vpc3.decompress(&packed_b).unwrap(), b);
    assert_eq!(tcgen.decompress(&packed_a).unwrap(), a);
    let vpc3_b = on_fresh_thread(|| vpc3.compress(&b).unwrap());
    assert_eq!(vpc3.compress(&b).unwrap(), vpc3_b);
}
