//! Post-compression backend acceptance suite: every profile must
//! round-trip losslessly and deterministically across the thread/block
//! matrix, record its backend id in the container flags, and decode on
//! any configuration because dispatch reads the container — while
//! mismatched, truncated, or reserved-bit containers fail cleanly.

use tcgen_engine::{compress_stream, decompress_stream, Backend, Engine, EngineOptions, Error};
use tcgen_spec::{parse, presets, TraceSpec};

fn spec() -> TraceSpec {
    parse(presets::TCGEN_A).expect("preset parses")
}

fn demo_trace(records: usize) -> Vec<u8> {
    let mut raw = vec![9, 8, 7, 6];
    for i in 0..records as u64 {
        raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
        raw.extend_from_slice(&(0x2000 + i * 8 + (i % 5)).to_le_bytes());
    }
    raw
}

fn options(backend: Backend, block_records: usize, threads: usize) -> EngineOptions {
    EngineOptions { backend, block_records, threads, ..EngineOptions::tcgen() }
}

/// The tentpole matrix: every backend × threads × block_records
/// round-trips losslessly, produces identical bytes at every thread
/// count, and stamps its id into the flags byte.
#[test]
fn every_profile_roundtrips_across_the_thread_matrix() {
    let raw = demo_trace(2_000);
    for backend in Backend::ALL {
        for block_records in [256usize, 701, 0] {
            let mut baseline: Option<Vec<u8>> = None;
            for threads in [1usize, 3, 4] {
                let opts = options(backend, block_records, threads);
                let engine = Engine::new(spec(), opts);
                let packed = engine.compress(&raw).expect("compress");
                // Byte 5 is the flags byte; bits 3-4 carry the backend id.
                assert_eq!(
                    (packed[5] >> 3) & 0b11,
                    backend.id(),
                    "{backend:?} id missing from flags"
                );
                assert_eq!(engine.decompress(&packed).expect("decompress"), raw);
                match &baseline {
                    None => baseline = Some(packed),
                    Some(b) => assert_eq!(
                        &packed, b,
                        "{backend:?} differs at threads {threads}, \
                         block_records {block_records}"
                    ),
                }
            }
        }
    }
}

/// Dispatch reads the container, not the local configuration: a
/// decompressor configured for any profile reads containers from every
/// other profile, in memory and streaming.
#[test]
fn any_configuration_decompresses_any_profile() {
    let raw = demo_trace(800);
    for writer in Backend::ALL {
        let opts = options(writer, 300, 2);
        let packed = Engine::new(spec(), opts).compress(&raw).expect("compress");
        let mut streamed = Vec::new();
        compress_stream(&spec(), &opts, &mut raw.as_slice(), &mut streamed)
            .expect("streamed compress");
        assert_eq!(streamed, packed, "{writer:?}: streaming and in-memory containers differ");
        for reader in Backend::ALL {
            let reader_opts = options(reader, 300, 2);
            let engine = Engine::new(spec(), reader_opts);
            assert_eq!(engine.decompress(&packed).expect("decompress"), raw);
            let mut restored = Vec::new();
            decompress_stream(&spec(), &reader_opts, &mut packed.as_slice(), &mut restored)
                .expect("streamed decompress");
            assert_eq!(restored, raw, "{writer:?} container, {reader:?} reader");
        }
    }
}

/// Flipping the recorded backend id makes every segment a foreign
/// container for the dispatched codec — decoding must fail cleanly, not
/// panic or misdecode.
#[test]
fn mismatched_backend_bits_fail_cleanly() {
    let raw = demo_trace(500);
    for backend in Backend::ALL {
        let opts = options(backend, 0, 1);
        let engine = Engine::new(spec(), opts);
        let packed = engine.compress(&raw).expect("compress");
        for wrong in Backend::ALL {
            if wrong == backend {
                continue;
            }
            let mut forged = packed.clone();
            forged[5] = (forged[5] & !0b0001_1000) | (wrong.id() << 3);
            let err = engine.decompress(&forged).expect_err("forged id must fail");
            assert!(matches!(err, Error::Post(_)), "{backend:?} stamped as {wrong:?}: {err:?}");
        }
    }
}

/// The reserved backend id and reserved high flag bits are rejected
/// before any segment is touched.
#[test]
fn reserved_flag_bits_rejected() {
    let raw = demo_trace(200);
    let engine = Engine::new(spec(), EngineOptions::tcgen());
    let packed = engine.compress(&raw).expect("compress");
    for bits in [0b0001_1000u8, 0b1000_0000] {
        let mut forged = packed.clone();
        forged[5] |= bits;
        let err = engine.decompress(&forged).expect_err("reserved bits must fail");
        assert!(matches!(err, Error::Corrupt(_)), "bits {bits:#010b}: {err:?}");
    }
}

/// Forging the span flag onto a legacy container promises a footer that
/// is not there — the decoder must reject it, not misread the last
/// block's bytes as an index.
#[test]
fn forged_checkpoint_flag_rejected() {
    let raw = demo_trace(200);
    let engine = Engine::new(spec(), EngineOptions::tcgen());
    let mut forged = engine.compress(&raw).expect("compress");
    forged[5] |= 0b0100_0000;
    let err = engine.decompress(&forged).expect_err("forged checkpoint flag must fail");
    assert!(matches!(err, Error::Corrupt(_) | Error::Truncated), "{err:?}");
}

/// Truncating a container at any of a few cut points fails cleanly for
/// every profile.
#[test]
fn truncated_containers_fail_for_every_profile() {
    let raw = demo_trace(400);
    for backend in Backend::ALL {
        let opts = options(backend, 150, 1);
        let engine = Engine::new(spec(), opts);
        let packed = engine.compress(&raw).expect("compress");
        for cut in [3usize, 11, 17, packed.len() / 2, packed.len() - 1] {
            assert!(
                engine.decompress(&packed[..cut]).is_err(),
                "{backend:?} accepted a container cut to {cut} bytes"
            );
        }
    }
}

/// Empty traces (header only) work under every profile.
#[test]
fn empty_trace_roundtrips_under_every_profile() {
    let raw = vec![1, 2, 3, 4];
    for backend in Backend::ALL {
        let engine = Engine::new(spec(), options(backend, 0, 1));
        let packed = engine.compress(&raw).expect("compress");
        assert_eq!(engine.decompress(&packed).expect("decompress"), raw, "{backend:?}");
    }
}

/// The profiles genuinely trade ratio for speed on a predictable trace:
/// max compresses at least as well as fast's order-0 model on heavily
/// structured code streams.
#[test]
fn profiles_order_by_ratio_on_structured_data() {
    let raw = demo_trace(20_000);
    let size = |backend| {
        Engine::new(spec(), options(backend, 0, 1)).compress(&raw).expect("compress").len()
    };
    let (max, fast) = (size(Backend::Max), size(Backend::Fast));
    assert!(max <= fast, "max {max} should not lose to fast {fast}");
    assert!(
        max < raw.len() / 10 && fast < raw.len(),
        "all profiles compress: max {max}, fast {fast} of {}",
        raw.len()
    );
}

/// The tuner's candidate scoring follows the selected backend, so tuning
/// under `--profile fast` optimizes what fast actually ships.
#[test]
fn tuner_scoring_respects_the_backend() {
    use std::sync::Arc;
    let spec = spec();
    let candidates = vec![spec.fields[1].clone()];
    let pcs: Arc<Vec<u64>> = Arc::new((0..3_000u64).map(|i| 0x40_0000 + (i % 7) * 4).collect());
    let values: Arc<Vec<u64>> = Arc::new((0..3_000u64).map(|i| 0x9000 + i * 8).collect());
    let mut sizes = Vec::new();
    for backend in Backend::ALL {
        let opts = options(backend, 0, 1);
        let serial =
            tcgen_engine::score_candidates(&candidates, &pcs, &values, &opts).expect("score");
        let threaded = tcgen_engine::score_candidates(
            &candidates,
            &pcs,
            &values,
            &EngineOptions { threads: 4, ..opts },
        )
        .expect("score threaded");
        assert_eq!(serial, threaded, "{backend:?} scores depend on thread count");
        sizes.push(serial[0].packed_bytes);
    }
    // Backends produce genuinely different segment encodings, so at
    // least one pair of scores must differ.
    assert!(
        sizes.windows(2).any(|w| w[0] != w[1]),
        "backend never affected tuner scores: {sizes:?}"
    );
}
