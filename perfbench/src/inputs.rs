//! Seeded workload inputs. Every generator seed, request order and
//! extract range derives from the run seed, so one seed always yields
//! the same bytes, and the program under test sees only those bytes.

use std::ops::Range;

use tcgen_tracegen::{generate_trace, program, suite, ProgramSpec, TraceKind};

/// TCGEN_A with L1/L2 shrunk until every field's hashed tables fall under
/// the predictor bank's 1 MiB planning gate, so modeling and replay take
/// the one-pass kernel — the kind of spec `tcgen prune` emits for sparse
/// traces. Hashed bytes per field:
/// - field 1: FCM3 65536 lines + FCM1 16384 lines, 2 × u32 each = 640 KiB;
/// - field 2: DFCM3 32768 lines + DFCM1 and FCM1 8192 lines each,
///   2 × u64 each = 768 KiB, plus 4 × 8192 u32 hash slots = 128 KiB.
pub const SMALL_SPEC: &str = "\
TCgen Trace Specification;
32-Bit Header;
32-Bit Field 1 = {L1 = 1, L2 = 16384: FCM3[2], FCM1[2]};
64-Bit Field 2 = {L1 = 8192, L2 = 8192: DFCM3[2], DFCM1[2], FCM1[2], LV[4]};
PC = Field 1;
";

/// Bytes per VPC record and in the VPC header.
pub const RECORD_BYTES: usize = 12;
pub const HEADER_BYTES: usize = 4;

/// A splitmix64 step: a well-mixed 64-bit value from two inputs.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One named raw trace (VPC format: 4-byte header, 12-byte records).
pub struct Trace {
    pub label: String,
    pub raw: Vec<u8>,
}

impl Trace {
    pub fn records(&self) -> u64 {
        ((self.raw.len() - HEADER_BYTES) / RECORD_BYTES) as u64
    }

    /// The raw record bytes of `range`, header excluded — what
    /// `extract_range` must return.
    pub fn slice(&self, range: &Range<u64>) -> &[u8] {
        let at = |r: u64| HEADER_BYTES + r as usize * RECORD_BYTES;
        &self.raw[at(range.start)..at(range.end)]
    }
}

fn short(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::StoreAddress => "store",
        TraceKind::CacheMissAddress => "miss",
        TraceKind::LoadValue => "load",
    }
}

fn seeded(prog: ProgramSpec, seed: u64) -> ProgramSpec {
    ProgramSpec { seed: mix(seed, prog.seed), ..prog }
}

/// `instances` seeded copies of the 55 Table 1 (program, kind) traces at
/// `base` base records each, scaled by each program's size factor as in
/// the paper corpus. A 2,000-record trace holds only a few kernel bursts,
/// so one copy's figures hinge on the seed; several copies average that.
pub fn corpus(base: usize, instances: usize, seed: u64) -> Vec<Trace> {
    let mut out = Vec::new();
    for copy in 0..instances {
        let seed = mix(seed, copy as u64);
        for kind in TraceKind::ALL {
            for prog in suite().into_iter().filter(|p| p.includes(kind)) {
                let prog = seeded(prog, seed);
                let raw = generate_trace(&prog, kind, base).to_bytes();
                out.push(Trace { label: format!("{}/{}#{copy}", prog.name, short(kind)), raw });
            }
        }
    }
    out
}

/// `records` records of one suite program's `kind` trace.
pub fn trace(name: &str, kind: TraceKind, records: usize, seed: u64) -> Trace {
    let prog = program(name).expect("the name is a Table 1 program");
    let prog = ProgramSpec { size_factor: 1.0, ..seeded(prog, seed) };
    let raw = generate_trace(&prog, kind, records).to_bytes();
    Trace { label: format!("{name}/{}", short(kind)), raw }
}

/// The set-up warm-up trace: gzip store addresses under the suite's own
/// seed, the same for every run seed. How many table pages a small trace
/// touches depends on its data, and with a seeded warm-up the set-up
/// time moved threefold from seed to seed.
pub fn warm_up(records: usize) -> Trace {
    let prog =
        ProgramSpec { size_factor: 1.0, ..program("gzip").expect("gzip is a Table 1 program") };
    let raw = generate_trace(&prog, TraceKind::StoreAddress, records).to_bytes();
    Trace { label: "warm-up".into(), raw }
}

/// The `pass`-th `len`-record range of one trace, for traces split into
/// checkpoint spans of `span_blocks` blocks of `block` records. An extract
/// restores its span's checkpoint and replays the span up to the range,
/// so its cost depends on which span and which block it hits. Golden-ratio
/// steps from a point placed by `key` spread the passes' spans evenly
/// over the trace, and the block within the span cycles with the pass,
/// so every run gets the same mix of cheap and costly extracts. Traces
/// shorter than one span get a plain [`range_at`] range.
pub fn range_in_span(
    key: u64,
    pass: usize,
    total: u64,
    len: u64,
    block: u64,
    span_blocks: u64,
) -> Range<u64> {
    let span = block * span_blocks;
    let spans = total / span;
    if spans == 0 || len > block {
        return range_at(mix(key, pass as u64), total, len);
    }
    let at = (key >> 11) as f64 / (1u64 << 53) as f64 + pass as f64 * 0.618_033_988_749_895;
    let span_index = (at.fract() * spans as f64) as u64;
    let block_index = pass as u64 % span_blocks;
    let start =
        span_index * span + block_index * block + mix(key, pass as u64) % (block - len + 1);
    start..start + len
}

/// A `len`-record range inside `0..total` (shortened to a quarter of
/// `total` on small traces), placed by `key`.
pub fn range_at(key: u64, total: u64, len: u64) -> Range<u64> {
    let len = len.min(total / 4).max(1).min(total);
    let start = key % (total - len + 1);
    start..start + len
}
