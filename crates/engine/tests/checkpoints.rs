//! Checkpointed-container acceptance suite: round-trips across the
//! interval × thread matrix, byte-identity at every thread count,
//! streaming parity, footer hardening (corruption, truncation, forged
//! offsets), seekable range extraction with bounded I/O, and inspection.

use std::io::{Cursor, Read, Seek, SeekFrom};

use tcgen_engine::{
    compress_stream, decompress_stream, extract_range, inspect, Backend, Engine, EngineOptions,
    Error, Recorder, StreamError, SEEK_BYTES_READ,
};
use tcgen_spec::{parse, TraceSpec};

/// A fixture spec with the same record shape as the presets (32-bit
/// header, 32-bit PC field, 64-bit data field) but small tables, so the
/// per-checkpoint predictor snapshots stay a few KB and the suite runs
/// quickly in debug builds. Checkpoint behaviour is table-size-agnostic;
/// the preset specs are exercised by the golden and pipeline suites.
const SPEC: &str = "TCgen Trace Specification;\n\
    32-Bit Header;\n\
    32-Bit Field 1 = {L1 = 1, L2 = 64: LV[2], FCM1[2]};\n\
    64-Bit Field 2 = {L1 = 64, L2 = 256: LV[2], ST[2], DFCM2[2]};\n\
    PC = Field 1;\n";

fn spec() -> TraceSpec {
    parse(SPEC).expect("fixture spec parses")
}

fn demo_trace(records: usize) -> Vec<u8> {
    let mut raw = vec![9, 8, 7, 6];
    for i in 0..records as u64 {
        raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
        raw.extend_from_slice(&(0x2000 + i * 8 + (i % 5)).to_le_bytes());
    }
    raw
}

fn options(checkpoint_blocks: usize, threads: usize) -> EngineOptions {
    EngineOptions { checkpoint_blocks, block_records: 100, threads, ..EngineOptions::tcgen() }
}

/// Locates the footer region (everything after the end marker) from the
/// fixed tail: the last 12 bytes are crc, body_len, magic.
fn footer_start(packed: &[u8]) -> usize {
    assert_eq!(&packed[packed.len() - 4..], b"TCGF", "checkpointed container ends in TCGF");
    let at = packed.len() - 8;
    let body_len = u32::from_le_bytes(packed[at..at + 4].try_into().unwrap()) as usize;
    packed.len() - body_len - 12
}

/// The same reflected IEEE CRC-32 the container uses, reimplemented here
/// so forgery tests can produce structurally valid but lying footers.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// Every checkpoint interval round-trips losslessly at every thread
/// count, and the container bytes do not depend on threads — the same
/// guarantee legacy containers have always had.
#[test]
fn checkpointed_roundtrip_across_interval_and_thread_matrix() {
    let raw = demo_trace(1_200); // 12 blocks of 100
    for interval in [1usize, 4, 5, 50] {
        let mut baseline: Option<Vec<u8>> = None;
        for threads in [1usize, 4] {
            let engine = Engine::new(spec(), options(interval, threads));
            let packed = engine.compress(&raw).expect("compress");
            assert_ne!(packed[5] & 0b0010_0000, 0, "checkpoint flag set");
            assert_eq!(
                engine.decompress(&packed).expect("decompress"),
                raw,
                "interval {interval}, threads {threads}"
            );
            match &baseline {
                None => baseline = Some(packed),
                Some(b) => assert_eq!(
                    &packed, b,
                    "interval {interval} bytes differ at threads {threads}"
                ),
            }
        }
    }
}

/// A checkpointed container decodes on engines with different (or zero)
/// checkpoint settings — the decoder follows the container flag, never
/// the local knob — and the decoded bytes equal the legacy container's.
#[test]
fn checkpointed_and_legacy_containers_decode_identically() {
    let raw = demo_trace(800);
    let checkpointed = Engine::new(spec(), options(2, 1)).compress(&raw).expect("compress");
    let legacy = Engine::new(spec(), options(0, 1)).compress(&raw).expect("compress");
    assert_ne!(checkpointed, legacy, "checkpointing must change the container");
    for threads in [1usize, 4] {
        for reader_interval in [0usize, 2, 7] {
            let engine = Engine::new(spec(), options(reader_interval, threads));
            assert_eq!(engine.decompress(&checkpointed).expect("ckpt decode"), raw);
            assert_eq!(engine.decompress(&legacy).expect("legacy decode"), raw);
        }
    }
}

/// A reader that returns at most 7 bytes per `read`, so record, block and
/// checkpoint boundaries all straddle reads. Seeks pass through.
struct ShortReads<R>(R);

impl<R: Read> Read for ShortReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(7);
        self.0.read(&mut buf[..n])
    }
}

impl<R: Seek> Seek for ShortReads<R> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.0.seek(pos)
    }
}

/// Streaming compression emits byte-identical containers, checkpointed or
/// not, for every backend and thread count — even fed 7 bytes per read —
/// and every decode entry point (in-memory, streaming and, for
/// checkpointed containers, a full-range seek) reads them back, skipping
/// the checkpoint frames it doesn't need while verifying the footer.
#[test]
fn streaming_matches_in_memory_for_checkpointed_containers() {
    let raw = demo_trace(1_111);
    for backend in [Backend::Max, Backend::Fast] {
        for interval in [0usize, 3] {
            for threads in [1usize, 4] {
                let opts = EngineOptions { backend, ..options(interval, threads) };
                let case = format!("{backend:?}, interval {interval}, threads {threads}");
                let engine = Engine::new(spec(), opts);
                let in_memory = engine.compress(&raw).expect("compress");
                let mut streamed = Vec::new();
                compress_stream(&spec(), &opts, &mut ShortReads(raw.as_slice()), &mut streamed)
                    .expect("streamed compress");
                assert_eq!(streamed, in_memory, "{case}");
                assert_eq!(engine.decompress(&in_memory).expect("decompress"), raw, "{case}");
                let mut restored = Vec::new();
                let mut reader = ShortReads(in_memory.as_slice());
                decompress_stream(&spec(), &opts, &mut reader, &mut restored)
                    .expect("streamed decompress");
                assert_eq!(restored, raw, "{case}");
                if interval > 0 {
                    let mut reader = ShortReads(Cursor::new(&in_memory));
                    let records = extract_range(&spec(), &opts, &mut reader, 0..1_111, None)
                        .expect("full-range extract");
                    assert_eq!(records, raw[4..], "{case}");
                }
            }
        }
    }
}

/// Any single-byte corruption or truncation of the footer is rejected,
/// in memory and streaming.
#[test]
fn corrupt_or_truncated_footers_rejected() {
    let raw = demo_trace(400);
    let opts = options(1, 1);
    let engine = Engine::new(spec(), opts);
    let packed = engine.compress(&raw).expect("compress");
    let start = footer_start(&packed);
    for i in start..packed.len() {
        let mut bad = packed.clone();
        bad[i] ^= 0x41;
        assert!(engine.decompress(&bad).is_err(), "flipped footer byte {i} accepted");
    }
    for cut in [start, start + 5, packed.len() - 4, packed.len() - 1] {
        assert!(engine.decompress(&packed[..cut]).is_err(), "footer cut at {cut} accepted");
        let mut restored = Vec::new();
        assert!(
            decompress_stream(&spec(), &opts, &mut &packed[..cut], &mut restored).is_err(),
            "streamed footer cut at {cut} accepted"
        );
    }
}

/// A footer whose CRC is valid but whose checkpoint offset lies — the
/// forgery a CRC alone cannot catch — is rejected against the structure
/// the decoder actually walked.
#[test]
fn forged_checkpoint_offset_rejected() {
    let raw = demo_trace(600); // 6 blocks, checkpoints before blocks 2 and 4
    let opts = options(2, 1);
    let engine = Engine::new(spec(), opts);
    let packed = engine.compress(&raw).expect("compress");
    let start = footer_start(&packed);
    let body_end = packed.len() - 12;
    let body = &packed[start..body_end];
    let n_blocks = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let ckpt_count_at = 4 + n_blocks * 12;
    let n_ckpts =
        u32::from_le_bytes(body[ckpt_count_at..ckpt_count_at + 4].try_into().unwrap());
    assert_eq!(n_ckpts, 2, "expected two checkpoints in the fixture");
    // First checkpoint entry: u32 block_index, then u64 offset.
    let offset_at = start + ckpt_count_at + 4 + 4;
    let mut forged = packed.clone();
    let lying = u64::from_le_bytes(packed[offset_at..offset_at + 8].try_into().unwrap()) + 1;
    forged[offset_at..offset_at + 8].copy_from_slice(&lying.to_le_bytes());
    let crc = crc32(&forged[start..body_end]);
    forged[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
    let err = engine.decompress(&forged).expect_err("forged offset must fail");
    assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    let mut restored = Vec::new();
    assert!(
        decompress_stream(&spec(), &opts, &mut forged.as_slice(), &mut restored).is_err(),
        "streamed decode accepted the forged offset"
    );
}

/// Range extraction matches a full decompress slice for ranges landing
/// in every span, and reads only the footer plus the covering spans —
/// proven by the I/O byte counter, not by trusting the implementation.
#[test]
fn extract_range_matches_full_decode_and_bounds_io() {
    let raw = demo_trace(1_600); // 16 blocks of 100, checkpoints every 4
    let opts = options(4, 1);
    let engine = Engine::new(spec(), opts);
    let packed = engine.compress(&raw).expect("compress");
    let record_len = spec().record_bytes() as usize;
    let body = &raw[4..];
    let slice = |a: usize, b: usize| body[a * record_len..b * record_len].to_vec();
    for (a, b) in [(0usize, 10usize), (390, 410), (1000, 1000), (1560, 1600), (0, 1600)] {
        let rec = Recorder::new();
        let got = extract_range(
            &spec(),
            &opts,
            &mut Cursor::new(&packed),
            a as u64..b as u64,
            Some(&rec),
        )
        .unwrap_or_else(|e| panic!("extract {a}..{b}: {e}"));
        assert_eq!(got, slice(a, b), "range {a}..{b}");
    }
    // A tail range covers only the last span (blocks 12..16): the bytes
    // read must be far below the container size.
    let rec = Recorder::new();
    let counter = rec.counter(SEEK_BYTES_READ);
    let got = extract_range(&spec(), &opts, &mut Cursor::new(&packed), 1560..1600, Some(&rec))
        .expect("tail range");
    assert_eq!(got, slice(1560, 1600));
    let read = counter.get();
    assert!(
        read < packed.len() as u64 / 2,
        "tail extraction read {read} of {} container bytes — not seeking",
        packed.len()
    );

    // Out-of-range requests fail instead of clamping silently.
    assert!(extract_range(&spec(), &opts, &mut Cursor::new(&packed), 1590..1601, None).is_err());
}

/// Containers without checkpoints have no footer to seek: extraction
/// reports that clearly so callers can fall back to sequential replay.
#[test]
fn extract_range_requires_a_checkpointed_container() {
    let raw = demo_trace(500);
    let opts = options(0, 1);
    let packed = Engine::new(spec(), opts).compress(&raw).expect("compress");
    let err = extract_range(&spec(), &opts, &mut Cursor::new(&packed), 0..10, None)
        .expect_err("no footer must fail");
    match err {
        StreamError::Codec(Error::Corrupt(msg)) => {
            assert!(msg.contains("no checkpoint footer"), "{msg}")
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// `inspect` reads prelude and footer only — no spec required — and
/// reports the span structure with per-span record ranges.
#[test]
fn inspect_reports_spans_and_record_ranges() {
    let raw = demo_trace(1_200); // 12 blocks, checkpoints before 5 and 10
    let opts = options(5, 1);
    let packed = Engine::new(spec(), opts).compress(&raw).expect("compress");
    let info = inspect(&mut Cursor::new(&packed)).expect("inspect");
    assert_eq!(info.version, 1);
    assert!(info.checkpointed);
    assert_eq!(info.header_len, 4);
    assert_eq!(info.n_blocks, Some(12));
    assert_eq!(info.total_records, Some(1_200));
    assert_eq!(info.file_len, packed.len() as u64);
    assert_eq!(info.spans.len(), 3);
    assert_eq!(
        info.spans.iter().map(|s| (s.start_record, s.end_record)).collect::<Vec<_>>(),
        vec![(0, 500), (500, 1_000), (1_000, 1_200)]
    );
    assert!(info.spans[0].checkpoint_offset.is_none());
    assert!(info.spans[1].checkpoint_offset.is_some());

    // Legacy containers inspect too, just without a footer.
    let legacy = Engine::new(spec(), options(0, 1)).compress(&raw).expect("compress");
    let info = inspect(&mut Cursor::new(&legacy)).expect("inspect legacy");
    assert!(!info.checkpointed);
    assert_eq!(info.n_blocks, None);
    assert!(info.spans.is_empty());
}

/// A whole-container decode is sequential at every thread count: the
/// block decoder replays all 16 blocks on the calling thread, carrying
/// the predictor state through both checkpoints, and no span is fanned
/// out. The unpack pool is the only fan-out left.
#[test]
fn checkpointed_containers_decode_sequentially_at_every_thread_count() {
    let raw = demo_trace(1_600); // 16 blocks of 100, checkpoints every 8
    let packed = Engine::new(spec(), options(8, 1)).compress(&raw).expect("compress");
    let mut streamed = Vec::new();
    decompress_stream(&spec(), &options(0, 1), &mut packed.as_slice(), &mut streamed)
        .expect("streamed decompress");
    for threads in [1usize, 4] {
        let rec = Recorder::new();
        let engine = Engine::new(spec(), options(0, threads)).with_telemetry(rec.clone());
        let decoded = engine.decompress(&packed).expect("decompress");
        assert_eq!(decoded, raw, "threads {threads}");
        assert_eq!(decoded, streamed, "threads {threads}: in-memory and streamed differ");
        let report = rec.report();
        let replayed = report.stage("replay.block").map(|s| s.count);
        assert_eq!(replayed, Some(16), "threads {threads}: every block replays in order");
        assert!(report.stage("replay.span").is_none(), "threads {threads}: span jobs ran");
        assert!(report.pools.iter().all(|p| p.label != "span"), "threads {threads}: span pool");
    }
}
