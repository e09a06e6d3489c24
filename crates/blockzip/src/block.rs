//! Block framing: splits input into blocks, runs each through
//! BWT → MTF → RLE2 → Huffman, and frames the result with lengths and a
//! CRC-32 so corruption is detected on decompression.

use std::time::Instant;

use tcgen_telemetry::{Counter, Recorder};

use crate::bitio::{BitReader, BitWriter};
use crate::bwt;
use crate::crc::crc32;
use crate::groups;
use crate::{mtf, rle, Error};

/// File magic for the blockzip container.
const MAGIC: &[u8; 4] = b"BZR1";
/// Marker byte that introduces a block.
const BLOCK_MARKER: u8 = 0x42;
/// Marker byte that terminates the stream.
const END_MARKER: u8 = 0x45;

/// Compression level: determines the block size (`level * 100_000` bytes),
/// mirroring BZIP2's `-1` … `-9` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(u8);

impl Level {
    /// The strongest level (900 kB blocks), equivalent to `bzip2 --best`.
    pub const BEST: Level = Level(9);
    /// The fastest level (100 kB blocks).
    pub const FAST: Level = Level(1);

    /// Creates a level, clamping to the valid `1..=9` range.
    pub fn new(level: u8) -> Self {
        Level(level.clamp(1, 9))
    }

    /// Block size in bytes for this level.
    pub fn block_size(self) -> usize {
        usize::from(self.0) * 100_000
    }
}

impl Default for Level {
    fn default() -> Self {
        Level::BEST
    }
}

/// Compresses `data` at [`Level::BEST`].
///
/// # Errors
///
/// Returns [`Error::TooLarge`] if a block's framing field would
/// overflow — unreachable through the level-bounded chunking, but checked
/// rather than silently truncated.
///
/// # Examples
///
/// ```
/// let data = b"compress me ".repeat(1000);
/// let packed = blockzip::compress(&data)?;
/// assert!(packed.len() < data.len() / 10);
/// assert_eq!(blockzip::decompress(&packed).unwrap(), data);
/// # Ok::<(), blockzip::Error>(())
/// ```
pub fn compress(data: &[u8]) -> Result<Vec<u8>, Error> {
    compress_with(data, Level::BEST)
}

/// Compresses `data` with an explicit block-size level.
///
/// # Errors
///
/// As for [`compress`].
pub fn compress_with(data: &[u8], level: Level) -> Result<Vec<u8>, Error> {
    compress_with_scratch(data, level, &mut Scratch::default())
}

/// Reusable working storage for [`compress_with_scratch`] and
/// [`decompress_with_scratch`]: the suffix-array buffers plus the MTF-rank
/// and RLE-symbol vectors. All fields are owned `Vec`s, so a scratch is
/// `Send` and can live in a worker thread that processes many blocks.
#[derive(Debug, Default)]
pub struct Scratch {
    bwt: bwt::Scratch,
    ranks: Vec<u8>,
    symbols: Vec<u16>,
    pub(crate) bytes: Vec<u8>,
    lf: Vec<u32>,
    pub(crate) probes: Option<Probes>,
}

impl Scratch {
    /// Attaches sub-stage timing probes; subsequent calls through this
    /// scratch accumulate per-stage nanoseconds into `recorder`'s
    /// `blockzip.*` counters. Timing is observation-only: output bytes
    /// are identical with probes attached or not.
    pub fn attach_probes(&mut self, recorder: &Recorder) {
        self.probes = Some(Probes::new(recorder));
    }
}

/// Counter handles for the three compress stages (BWT, MTF+RLE, entropy)
/// and their three inverses, plus block counts. Held by a [`Scratch`] so
/// a worker thread resolves the counters once and then pays one `Instant`
/// read per stage per 100–900 kB block — nothing on the byte-level paths.
#[derive(Debug)]
pub(crate) struct Probes {
    bwt_ns: Counter,
    mtf_rle_ns: Counter,
    pub(crate) entropy_ns: Counter,
    pub(crate) blocks: Counter,
    pub(crate) entropy_decode_ns: Counter,
    unrle_ns: Counter,
    unbwt_ns: Counter,
    pub(crate) blocks_decoded: Counter,
}

impl Probes {
    fn new(rec: &Recorder) -> Self {
        Self {
            bwt_ns: rec.counter("blockzip.bwt_ns"),
            mtf_rle_ns: rec.counter("blockzip.mtf_rle_ns"),
            entropy_ns: rec.counter("blockzip.entropy_ns"),
            blocks: rec.counter("blockzip.blocks"),
            entropy_decode_ns: rec.counter("blockzip.entropy_decode_ns"),
            unrle_ns: rec.counter("blockzip.unrle_ns"),
            unbwt_ns: rec.counter("blockzip.unbwt_ns"),
            blocks_decoded: rec.counter("blockzip.blocks_decoded"),
        }
    }
}

/// Advances the stage clock: charges the time since `*mark` to the
/// counter `pick` selects and restarts the mark. No-ops without probes.
pub(crate) fn lap(
    probes: &Option<Probes>,
    mark: &mut Option<Instant>,
    pick: fn(&Probes) -> &Counter,
) {
    if let (Some(p), Some(start)) = (probes.as_ref(), *mark) {
        pick(p).add(start.elapsed().as_nanos() as u64);
        *mark = Some(Instant::now());
    }
}

/// Like [`compress_with`], but reuses `scratch` across calls, avoiding the
/// per-block working allocations (~9 bytes of scratch per input byte).
/// Output is byte-identical to [`compress_with`].
///
/// # Errors
///
/// As for [`compress`].
pub fn compress_with_scratch(
    data: &[u8],
    level: Level,
    scratch: &mut Scratch,
) -> Result<Vec<u8>, Error> {
    let mut out = Vec::with_capacity(data.len() / 4 + 64);
    out.extend_from_slice(MAGIC);
    for chunk in data.chunks(level.block_size().max(1)) {
        compress_block(chunk, &mut out, scratch)?;
    }
    out.push(END_MARKER);
    Ok(out)
}

/// Converts a length into its `u32` framing field, refusing to truncate.
pub(crate) fn frame_len(len: usize) -> Result<u32, Error> {
    u32::try_from(len).map_err(|_| Error::TooLarge { len })
}

fn compress_block(chunk: &[u8], out: &mut Vec<u8>, scratch: &mut Scratch) -> Result<(), Error> {
    let mut mark = scratch.probes.as_ref().map(|_| Instant::now());
    let transformed = bwt::forward_with(chunk, &mut scratch.bwt);
    lap(&scratch.probes, &mut mark, |p| &p.bwt_ns);
    mtf::encode_into(&transformed.data, &mut scratch.ranks);
    rle::encode_into(&scratch.ranks, &mut scratch.symbols);
    lap(&scratch.probes, &mut mark, |p| &p.mtf_rle_ns);

    let mut bits = BitWriter::new();
    groups::encode_symbols(&scratch.symbols, rle::ALPHABET, &mut bits);
    let payload = bits.into_bytes();
    lap(&scratch.probes, &mut mark, |p| &p.entropy_ns);
    if let Some(p) = &scratch.probes {
        p.blocks.add(1);
    }

    out.push(BLOCK_MARKER);
    out.extend_from_slice(&frame_len(chunk.len())?.to_le_bytes());
    out.extend_from_slice(&transformed.sentinel.to_le_bytes());
    out.extend_from_slice(&crc32(chunk).to_le_bytes());
    out.extend_from_slice(&frame_len(payload.len())?.to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

/// Decompresses a blockzip container produced by [`compress`].
///
/// # Errors
///
/// Returns an [`Error`] if the magic, framing, entropy stream, or CRC is
/// invalid.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    decompress_with_limit(data, usize::MAX)
}

/// Like [`decompress`], but fails with [`Error::Corrupt`] if the output
/// would exceed `max_len` bytes — checked against each block's declared
/// length *before* decoding and enforced inside the run-length stage, so a
/// corrupt or adversarial container can never force an allocation larger
/// than `max_len`.
///
/// # Errors
///
/// As for [`decompress`], plus the size-limit violation.
pub fn decompress_with_limit(data: &[u8], max_len: usize) -> Result<Vec<u8>, Error> {
    decompress_with_scratch(data, max_len, &mut Scratch::default())
}

/// Like [`decompress_with_limit`], but reuses `scratch` across calls.
pub fn decompress_with_scratch(
    data: &[u8],
    max_len: usize,
    scratch: &mut Scratch,
) -> Result<Vec<u8>, Error> {
    let mut cursor = Cursor { data, pos: 0 };
    let magic = cursor.take(4)?;
    if magic != MAGIC {
        return Err(Error::BadMagic);
    }
    let mut out = Vec::new();
    loop {
        match cursor.take(1)?[0] {
            END_MARKER => return Ok(out),
            BLOCK_MARKER => decompress_block(&mut cursor, &mut out, max_len, scratch)?,
            other => return Err(Error::Corrupt(format!("unexpected marker byte {other:#x}"))),
        }
    }
}

fn decompress_block(
    cursor: &mut Cursor<'_>,
    out: &mut Vec<u8>,
    max_len: usize,
    scratch: &mut Scratch,
) -> Result<(), Error> {
    let raw_len = cursor.take_u32()? as usize;
    let sentinel = cursor.take_u32()?;
    let expected_crc = cursor.take_u32()?;
    let payload_len = cursor.take_u32()? as usize;
    let payload = cursor.take(payload_len)?;
    // `out` never exceeds max_len, so the subtraction cannot underflow.
    if raw_len > max_len - out.len() {
        return Err(Error::Corrupt(format!(
            "block claims {raw_len} bytes, exceeding the {max_len}-byte output limit"
        )));
    }

    let mut mark = scratch.probes.as_ref().map(|_| Instant::now());
    let mut bits = BitReader::new(payload);
    groups::decode_symbols_into(&mut bits, rle::ALPHABET, &mut scratch.symbols)
        .map_err(Error::Corrupt)?;
    lap(&scratch.probes, &mut mark, |p| &p.entropy_decode_ns);
    // The fused inverse undoes RLE2 and MTF in a single pass, leaving the
    // BWT last-column bytes in `scratch.bytes`.
    rle::decode_mtf_into(&scratch.symbols, raw_len, &mut scratch.bytes)
        .map_err(Error::Corrupt)?;
    lap(&scratch.probes, &mut mark, |p| &p.unrle_ns);
    if scratch.bytes.len() != raw_len {
        return Err(Error::Corrupt(format!(
            "block length mismatch: header {raw_len}, decoded {}",
            scratch.bytes.len()
        )));
    }
    if (sentinel as usize) > raw_len {
        return Err(Error::Corrupt(format!(
            "sentinel row {sentinel} out of range for {raw_len}-byte block"
        )));
    }
    // Move the scratch buffer into the Bwt view (no copy) and put it back
    // afterwards so the allocation is reused for the next block.
    let transformed = bwt::Bwt { data: std::mem::take(&mut scratch.bytes), sentinel };
    let base = out.len();
    let walked = bwt::inverse_into(&transformed, &mut scratch.lf, out);
    scratch.bytes = transformed.data;
    walked.map_err(Error::Corrupt)?;
    let actual_crc = crc32(&out[base..]);
    lap(&scratch.probes, &mut mark, |p| &p.unbwt_ns);
    if let Some(p) = &scratch.probes {
        p.blocks_decoded.add(1);
    }
    if actual_crc != expected_crc {
        out.truncate(base);
        return Err(Error::CrcMismatch { expected: expected_crc, actual: actual_crc });
    }
    Ok(())
}

pub(crate) struct Cursor<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.pos + n > self.data.len() {
            return Err(Error::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data).unwrap();
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        let packed = compress(b"").unwrap();
        assert_eq!(decompress(&packed).unwrap(), b"");
        // magic + end marker only
        assert_eq!(packed.len(), 5);
    }

    #[test]
    fn small_inputs() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"hello, hello, hello");
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        roundtrip(&data);
    }

    #[test]
    fn multi_block_input() {
        let data = b"0123456789".repeat(30_000); // 300 kB > FAST block size
        let packed = compress_with(&data, Level::FAST).unwrap();
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn compresses_repetitive_data_well() {
        let data = b"the same line over and over\n".repeat(10_000);
        let packed = compress(&data).unwrap();
        assert!(
            packed.len() * 100 < data.len(),
            "expected >100x on trivial data, got {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        let mut x = 0x853c49e6748fea9bu64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let packed = compress(&data).unwrap();
        assert!(packed.len() < data.len() + data.len() / 8 + 1024);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(decompress(b"NOPE\x45"), Err(Error::BadMagic)));
    }

    #[test]
    fn truncated_rejected() {
        let packed = compress(b"some data to compress").unwrap();
        for cut in [3, 5, 10, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corruption_detected_by_crc() {
        let data = b"integrity matters ".repeat(500);
        let mut packed = compress(&data).unwrap();
        // Flip a bit somewhere inside the entropy payload.
        let idx = packed.len() / 2;
        packed[idx] ^= 0x10;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn scratch_reuse_is_byte_identical() {
        let mut scratch = Scratch::default();
        let inputs: [&[u8]; 4] =
            [b"first block of data", b"", b"x", &b"longer repetitive payload ".repeat(9_000)];
        for data in inputs {
            let fresh = compress_with(data, Level::FAST).unwrap();
            let reused = compress_with_scratch(data, Level::FAST, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
            assert_eq!(
                decompress_with_scratch(&reused, usize::MAX, &mut scratch).unwrap(),
                data
            );
        }
    }

    #[test]
    fn output_limit_is_enforced() {
        let data = b"0123456789".repeat(5_000);
        let packed = compress(&data).unwrap();
        assert_eq!(decompress_with_limit(&packed, data.len()).unwrap(), data);
        assert!(matches!(
            decompress_with_limit(&packed, data.len() - 1),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(decompress_with_limit(&packed, 0), Err(Error::Corrupt(_))));
    }

    #[test]
    fn forged_giant_block_rejected_without_allocation() {
        // A hand-built container whose single block claims u32::MAX raw
        // bytes: the limit check must fire before any decode work.
        let mut forged = Vec::new();
        forged.extend_from_slice(b"BZR1");
        forged.push(0x42);
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // raw_len
        forged.extend_from_slice(&0u32.to_le_bytes()); // sentinel
        forged.extend_from_slice(&0u32.to_le_bytes()); // crc
        forged.extend_from_slice(&0u32.to_le_bytes()); // payload_len
        forged.push(0x45);
        assert!(matches!(decompress_with_limit(&forged, 1 << 20), Err(Error::Corrupt(_))));
    }

    #[test]
    fn probes_observe_without_perturbing_output() {
        let rec = Recorder::new();
        let mut probed = Scratch::default();
        probed.attach_probes(&rec);
        let data = b"probe me gently ".repeat(20_000); // multi-block at FAST
        let plain = compress_with_scratch(&data, Level::FAST, &mut Scratch::default()).unwrap();
        let observed = compress_with_scratch(&data, Level::FAST, &mut probed).unwrap();
        assert_eq!(plain, observed, "probes must not perturb output bytes");
        assert_eq!(decompress_with_scratch(&observed, usize::MAX, &mut probed).unwrap(), data);
        let report = rec.report();
        assert!(report.counter("blockzip.blocks").unwrap() >= 2);
        assert_eq!(
            report.counter("blockzip.blocks"),
            report.counter("blockzip.blocks_decoded")
        );
        for stage in ["blockzip.bwt_ns", "blockzip.mtf_rle_ns", "blockzip.entropy_ns"] {
            assert!(report.counter(stage).is_some(), "{stage} missing");
        }
    }

    #[test]
    fn levels_trade_block_size() {
        assert_eq!(Level::new(0), Level::FAST);
        assert_eq!(Level::new(99), Level::BEST);
        assert_eq!(Level::new(3).block_size(), 300_000);
        assert_eq!(Level::default(), Level::BEST);
    }
}
