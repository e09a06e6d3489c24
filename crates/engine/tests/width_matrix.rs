//! Width-matrix byte-identity suite.
//!
//! Drives specifications with 1/2/4/8-byte fields (plus a sub-byte-width
//! 12-bit field) through compress → decompress and `raw_streams` →
//! `replay_streams` across every (threads, block_records) setting,
//! pinning the containers to golden md5 digests captured from
//! the engine *before* predictor tables became width-specialized. The
//! narrowed table elements must not change a single stream byte — only
//! their in-memory footprint, which the `UsageReport` table-byte
//! accounting checks at the end.

use tcgen_engine::{codec, Engine, EngineOptions};
use tcgen_spec::TraceSpec;

mod md5;

/// A spec dominated by 1-byte fields: both L2 tables collapse to `u8`
/// elements (8× smaller than the seed's `u64` slots).
const SPEC_BYTES: &str = "\
TCgen Trace Specification;
8-Bit Header;
8-Bit Field 1 = {L1 = 1, L2 = 1024: FCM2[2], FCM1[1], LV[2]};
8-Bit Field 2 = {L1 = 64, L2 = 1024: DFCM2[2], FCM1[2], LV[2]};
PC = Field 1;
";

/// One field of every element width, with every predictor family.
const SPEC_MIXED: &str = "\
TCgen Trace Specification;
32-Bit Header;
8-Bit Field 1 = {L1 = 1, L2 = 1024: FCM2[2], LV[1]};
16-Bit Field 2 = {L1 = 64, L2 = 2048: DFCM2[2], LV[2]};
32-Bit Field 3 = {L1 = 64, L2 = 2048: FCM1[2], ST[2], LV[1]};
64-Bit Field 4 = {L1 = 64, L2 = 4096: DFCM3[2], DFCM1[1], FCM1[2], LV[4]};
PC = Field 1;
";

/// The paper's Figure 5 specification (TCgen(A) / VPC3 format).
const SPEC_VPC3: &str = include_str!("../../../specs/vpc3.tcgen");

/// A sub-byte-width field: 12 bits stored in 2 record bytes, so the
/// predictor arithmetic genuinely depends on masking below the element
/// width. The pre-change engine rejected such widths, so this spec has
/// no seed golden; its digest pins the width-specialized engine instead.
const SPEC_SUBBYTE: &str = "\
TCgen Trace Specification;
8-Bit Field 1 = {L1 = 1, L2 = 512: FCM2[2], LV[1]};
12-Bit Field 2 = {L1 = 16, L2 = 1024: DFCM2[2], ST[1], LV[2]};
PC = Field 1;
";

struct Case {
    name: &'static str,
    src: &'static str,
    records: usize,
    /// md5 of the container at block_records = 0 / 4096.
    golden_whole: &'static str,
    golden_blocked: &'static str,
    /// md5 of the concatenated `raw_streams` output.
    golden_streams: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "bytes",
        src: SPEC_BYTES,
        records: 60_000,
        golden_whole: "965b54268916f7ce8151eebbc3ed13f2",
        golden_blocked: "17bc59315ed56a0bdd8098f816075451",
        golden_streams: "9da0d47c024dba2e6673d31c77ac7a5c",
    },
    Case {
        name: "mixed",
        src: SPEC_MIXED,
        records: 40_000,
        golden_whole: "00fa92b9a7482d7755f255911f27e43d",
        golden_blocked: "a08fdd4686d94874f7aa5b7cb710abac",
        golden_streams: "117a640d6a0294d1427d1bb1216243f5",
    },
    Case {
        name: "vpc3",
        src: SPEC_VPC3,
        records: 50_000,
        golden_whole: "f196fa0a4b41167dd3a8b34de4d9be1e",
        golden_blocked: "da53167d2025ea76d825666b0867dd7b",
        golden_streams: "f96068fffbbfff44e19ed8deb766af3d",
    },
];

/// Deterministic trace: per-field mixtures of strides, repeats, and
/// noise so every predictor family both hits and misses.
fn trace_for(spec: &TraceSpec, records: usize) -> Vec<u8> {
    let mut raw = Vec::new();
    for i in 0..spec.header_bytes() {
        raw.push(0xc0 ^ i as u8);
    }
    let mut x = 0x0123_4567_89ab_cdefu64;
    for i in 0..records as u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for (fi, field) in spec.fields.iter().enumerate() {
            let value = match (i + fi as u64) % 5 {
                0 => x >> 17,                           // noise
                1 | 2 => i.wrapping_mul(8 + fi as u64), // stride
                3 => 0xb5b5_b5b5_b5b5_b5b5,             // repeat
                _ => (i / 7).wrapping_mul(4),           // slow stride
            };
            let bytes = field.bytes() as usize;
            let mask = if field.bits == 64 { u64::MAX } else { (1u64 << field.bits) - 1 };
            raw.extend_from_slice(&(value & mask).to_le_bytes()[..bytes]);
        }
    }
    raw
}

fn options(threads: usize, block_records: usize) -> EngineOptions {
    EngineOptions { threads, block_records, ..EngineOptions::tcgen() }
}

const THREADS: [usize; 3] = [1, 2, 4];

/// Containers must match the seed goldens byte-for-byte at every
/// (threads, block_records) setting: width-specialized
/// tables and recycled stream buffers are speed-only.
#[test]
fn containers_match_seed_goldens_across_thread_matrix() {
    for case in CASES {
        let spec = tcgen_spec::parse(case.src).unwrap();
        let raw = trace_for(&spec, case.records);
        for (golden, block_records) in
            [(case.golden_whole, 0usize), (case.golden_blocked, 4096)]
        {
            for threads in THREADS {
                let engine = Engine::new(spec.clone(), options(threads, block_records));
                let packed = engine.compress(&raw).unwrap();
                assert_eq!(
                    md5::hex(&packed),
                    golden,
                    "{} threads={threads} block_records={block_records}",
                    case.name
                );
                assert_eq!(
                    engine.decompress(&packed).unwrap(),
                    raw,
                    "{} roundtrip threads={threads}",
                    case.name
                );
            }
        }
    }
}

/// The un-post-compressed streams — the reference output for generated
/// compressors — must also be untouched, and replay back to the body.
#[test]
fn raw_streams_match_seed_goldens_and_replay() {
    for case in CASES {
        let spec = tcgen_spec::parse(case.src).unwrap();
        let raw = trace_for(&spec, case.records);
        let header_len = spec.header_bytes() as usize;
        let opts = options(1, 0);
        let streams = codec::raw_streams(&spec, &opts, &raw).unwrap();
        let flat: Vec<u8> = streams.concat();
        assert_eq!(md5::hex(&flat), case.golden_streams, "{}", case.name);
        let body = codec::replay_streams(&spec, &opts, streams).unwrap();
        assert_eq!(body, &raw[header_len..], "{} stream replay", case.name);
    }
}

/// Whole-trace container digest for [`SPEC_SUBBYTE`], captured from the
/// width-specialized engine (the seed rejected sub-byte widths, so this
/// golden pins the new behaviour against regressions).
const GOLDEN_SUBBYTE_WHOLE: &str = "bebf8490dac46490a8aa09669ed80dbf";

/// A 12-bit field exercises masking below the element width: the field
/// rides in a `u16` bank whose arithmetic is truncated to 12 bits.
#[test]
fn subbyte_field_roundtrips_with_masked_arithmetic() {
    let spec = tcgen_spec::parse(SPEC_SUBBYTE).unwrap();
    assert_eq!(spec.fields[1].bits, 12);
    assert_eq!(spec.fields[1].bytes(), 2);
    let raw = trace_for(&spec, 30_000);
    let header_len = spec.header_bytes() as usize;
    for threads in THREADS {
        for block_records in [0usize, 4096] {
            let engine = Engine::new(spec.clone(), options(threads, block_records));
            let packed = engine.compress(&raw).unwrap();
            if block_records == 0 {
                assert_eq!(md5::hex(&packed), GOLDEN_SUBBYTE_WHOLE, "threads={threads}");
            }
            assert_eq!(
                engine.decompress(&packed).unwrap(),
                raw,
                "roundtrip threads={threads} block_records={block_records}"
            );
        }
    }
    let opts = options(1, 0);
    let streams = codec::raw_streams(&spec, &opts, &raw).unwrap();
    let body = codec::replay_streams(&spec, &opts, streams).unwrap();
    assert_eq!(body, &raw[header_len..]);
}

/// The usage report's table-byte accounting must reflect the selected
/// element widths: minimal elements shrink an 8-bit field's value tables
/// by exactly 8× relative to the wide (`u64`-element) configuration.
#[test]
fn usage_table_bytes_reflect_minimal_elements() {
    let expectations: &[(&str, &[u64])] = &[(SPEC_BYTES, &[8, 8]), (SPEC_MIXED, &[8, 4, 2, 1])];
    for (src, ratios) in expectations {
        let spec = tcgen_spec::parse(src).unwrap();
        let raw = trace_for(&spec, 2_000);
        let minimal = Engine::new(spec.clone(), EngineOptions::tcgen());
        let wide = Engine::new(spec.clone(), EngineOptions::no_type_minimization());
        let (_, min_usage) = minimal.compress_with_usage(&raw).unwrap();
        let (_, wide_usage) = wide.compress_with_usage(&raw).unwrap();
        for ((m, w), &ratio) in min_usage.fields.iter().zip(&wide_usage.fields).zip(*ratios) {
            assert!(m.table_bytes > 0, "field {}", m.field_number);
            assert_eq!(
                m.table_bytes * ratio,
                w.table_bytes,
                "field {} expected a {ratio}x table reduction",
                m.field_number
            );
        }
        assert!(min_usage.to_string().contains("table bytes"));
    }
}
