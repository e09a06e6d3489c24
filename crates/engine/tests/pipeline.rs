//! Integration tests for the chunked, multi-threaded block pipeline:
//! the container must be byte-identical for every thread count, and
//! adversarial containers must fail with errors — never panics, hangs,
//! or allocations driven by forged header fields.

use tcgen_engine::{Engine, EngineOptions, Error};
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

fn max_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2)
}

/// The acceptance criterion of the pipeline: for every block size, every
/// thread count yields the same container bytes, and every thread count
/// can decompress them.
#[test]
fn thread_count_never_changes_the_container() {
    let raw = demo_trace(2_500);
    let n = max_threads();
    for block_records in [1usize, 7, 1024, 0] {
        let baseline = engine(block_records, 1).compress(&raw).expect("serial compress");
        for threads in [2, n] {
            let parallel = engine(block_records, threads).compress(&raw).expect("compress");
            assert_eq!(
                parallel, baseline,
                "container differs: block_records {block_records}, threads {threads}"
            );
        }
        for threads in [1, 2, n] {
            assert_eq!(
                engine(block_records, threads).decompress(&baseline).expect("decompress"),
                raw,
                "roundtrip failed: block_records {block_records}, threads {threads}"
            );
        }
    }
}

#[test]
fn auto_thread_count_matches_serial_output() {
    let raw = demo_trace(1_000);
    let serial = engine(256, 1).compress(&raw).unwrap();
    let auto = engine(256, 0).compress(&raw).unwrap();
    assert_eq!(auto, serial);
}

/// Every truncation point of a multi-block container must produce an
/// error, at every thread count — never a panic or a hang.
#[test]
fn every_truncation_is_an_error() {
    let raw = demo_trace(600);
    let packed = engine(100, 1).compress(&raw).unwrap();
    for threads in [1usize, 4] {
        let eng = engine(100, threads);
        let step = (packed.len() / 97).max(1);
        for cut in (0..packed.len()).step_by(step) {
            assert!(
                eng.decompress(&packed[..cut]).is_err(),
                "accepted a {cut}-byte prefix of {} bytes (threads {threads})",
                packed.len()
            );
        }
    }
}

/// Container layout: 12-byte prelude, trace header, then per block a
/// marker byte, a u32 record count, and length-prefixed segments.
fn first_block_offset(spec: &TraceSpec) -> usize {
    12 + spec.header_bytes() as usize
}

#[test]
fn oversized_segment_length_is_rejected() {
    let raw = demo_trace(400);
    let mut packed = engine(0, 1).compress(&raw).unwrap();
    let len_at = first_block_offset(&spec()) + 5;
    packed[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    for threads in [1usize, 4] {
        let err = engine(0, threads).decompress(&packed).unwrap_err();
        assert!(
            matches!(err, Error::Truncated | Error::Corrupt(_)),
            "threads {threads}: {err}"
        );
    }
}

#[test]
fn forged_record_count_is_rejected() {
    let raw = demo_trace(400);
    let mut packed = engine(0, 1).compress(&raw).unwrap();
    let count_at = first_block_offset(&spec()) + 1;
    packed[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    for threads in [1usize, 4] {
        // The segments genuinely hold 400 records' worth of data, so the
        // forged count must be caught when the streams come up short —
        // without allocating anywhere near u32::MAX bytes first.
        let err = engine(0, threads).decompress(&packed).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_) | Error::Post(_)), "threads {threads}: {err}");
    }
}

#[test]
fn zeroed_record_count_is_rejected() {
    let raw = demo_trace(400);
    let mut packed = engine(0, 1).compress(&raw).unwrap();
    let count_at = first_block_offset(&spec()) + 1;
    packed[count_at..count_at + 4].copy_from_slice(&0u32.to_le_bytes());
    for threads in [1usize, 4] {
        assert!(engine(0, threads).decompress(&packed).is_err(), "threads {threads}");
    }
}

#[test]
fn trailing_bytes_after_end_marker_rejected() {
    let raw = demo_trace(300);
    let mut packed = engine(100, 1).compress(&raw).unwrap();
    packed.push(0x00);
    for threads in [1usize, 4] {
        let err = engine(100, threads).decompress(&packed).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "threads {threads}: {err}");
    }
}

#[test]
fn wrong_spec_hash_is_a_spec_mismatch() {
    let raw = demo_trace(50);
    let mut packed = engine(0, 1).compress(&raw).unwrap();
    packed[6] ^= 0xFF;
    for threads in [1usize, 4] {
        let err = engine(0, threads).decompress(&packed).unwrap_err();
        assert!(matches!(err, Error::SpecMismatch { .. }), "threads {threads}: {err}");
    }
}

/// Random byte flips anywhere in the container must never panic; they
/// either error out or (for flips inside compressed payloads caught by
/// CRC, or in ignorable positions) are detected downstream.
#[test]
fn random_corruption_never_panics() {
    let raw = demo_trace(500);
    let packed = engine(128, 1).compress(&raw).unwrap();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    // The raw trace header (after the 12-byte prelude) is stored as
    // opaque passthrough bytes with no checksum, so flips there surface
    // as a (legitimately) different trace — exempt that region.
    let header = 12..first_block_offset(&spec());
    for threads in [1usize, 4] {
        let eng = engine(128, threads);
        for _ in 0..60 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (rng >> 33) as usize % packed.len();
            if header.contains(&pos) {
                continue;
            }
            let bit = 1u8 << ((rng >> 29) & 7);
            let mut bad = packed.clone();
            bad[pos] ^= bit;
            // A flip must either fail or decode back to the original
            // trace (e.g. a flip in a never-read reserved position).
            if let Ok(out) = eng.decompress(&bad) {
                assert_eq!(out, raw, "undetected corruption at byte {pos}");
            }
        }
    }
}
