//! The TCGZ container format and its one frame reader. The block writer
//! ([`crate::codec`]) emits [`prelude`] and [`Footer::encode`] verbatim,
//! and every decode path — in-memory, streaming and seek — reads frames
//! through [`FrameReader`], so writers and readers can never
//! desynchronize on magic, version, framing or index layout.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "TCGZ"  u8 version  u8 flags  u32 spec_hash  u16 header_len
//! ```
//!
//! followed by `header_len` passthrough header bytes, then block frames.
//!
//! When the checkpoint flag bit is set, `0x02`-marked checkpoint
//! segments (a compressed predictor-state snapshot) may precede block
//! frames, and the end marker is followed by a footer:
//!
//! ```text
//! u32 n_blocks       n_blocks × { u64 offset  u32 n_records }
//! u32 n_checkpoints  n_checkpoints × { u32 block_index  u64 offset }
//! u32 crc32(body)    u32 body_len  "TCGF"
//! ```
//!
//! Offsets are absolute container offsets of the frame's marker byte, so
//! a seekable reader can locate the footer from the file tail (fixed
//! 12-byte trailer), pick the checkpoint covering a record range, and
//! replay only the spans it needs.

use std::io::{Read, Seek, SeekFrom};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::Counter;

use crate::options::EngineOptions;
use crate::{Error, StreamError};

/// Container magic.
pub(crate) const MAGIC: &[u8; 4] = b"TCGZ";
/// Container format version.
pub(crate) const VERSION: u8 = 1;
/// Marker byte that introduces a block frame.
pub(crate) const BLOCK_MARKER: u8 = 0x01;
/// Marker byte that introduces a checkpoint segment (checkpointed
/// containers only).
pub(crate) const CHECKPOINT_MARKER: u8 = 0x02;
/// Marker byte that terminates the block sequence.
pub(crate) const END_MARKER: u8 = 0x00;
/// Fixed prelude size: magic, version, flags, spec hash, header length.
pub(crate) const PRELUDE_LEN: usize = 12;
/// Footer magic, the last four bytes of a checkpointed container.
pub(crate) const FOOTER_MAGIC: &[u8; 4] = b"TCGF";
/// Fixed footer tail: crc, body length, footer magic.
pub(crate) const FOOTER_TAIL_LEN: usize = 12;

/// Encodes the fixed-size prelude the block writer emits verbatim.
pub(crate) fn prelude(flags: u8, spec_hash: u32, header_len: u16) -> [u8; PRELUDE_LEN] {
    let mut p = [0u8; PRELUDE_LEN];
    p[..4].copy_from_slice(MAGIC);
    p[4] = VERSION;
    p[5] = flags;
    p[6..10].copy_from_slice(&spec_hash.to_le_bytes());
    p[10..12].copy_from_slice(&header_len.to_le_bytes());
    p
}

/// The decoded prelude fields.
pub(crate) struct Prelude {
    pub(crate) flags: u8,
    pub(crate) spec_hash: u32,
    pub(crate) header_len: usize,
}

/// Parses and validates a prelude: magic and version are checked here,
/// the spec hash and flags are the caller's to interpret.
pub(crate) fn parse_prelude(bytes: &[u8; PRELUDE_LEN]) -> Result<Prelude, Error> {
    if &bytes[..4] != MAGIC {
        return Err(Error::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(Error::Corrupt(format!("unsupported container version {}", bytes[4])));
    }
    Ok(Prelude {
        flags: bytes[5],
        spec_hash: u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]),
        header_len: u16::from_le_bytes([bytes[10], bytes[11]]) as usize,
    })
}

/// One block frame in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockEntry {
    /// Absolute container offset of the block's marker byte.
    pub(crate) offset: u64,
    /// Records stored in the block.
    pub(crate) n_records: u32,
}

/// One checkpoint segment in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CheckpointEntry {
    /// Index of the first block the checkpoint state covers.
    pub(crate) block_index: u32,
    /// Absolute container offset of the segment's marker byte.
    pub(crate) offset: u64,
}

/// The decoded footer index of a checkpointed container.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Footer {
    pub(crate) blocks: Vec<BlockEntry>,
    pub(crate) checkpoints: Vec<CheckpointEntry>,
}

impl Footer {
    /// Records the block starting at container offset `offset`.
    pub(crate) fn push_block(&mut self, offset: u64, n_records: u32) {
        self.blocks.push(BlockEntry { offset, n_records });
    }

    /// Records a checkpoint whose state covers blocks from `block_index`.
    pub(crate) fn push_checkpoint(&mut self, block_index: u32, offset: u64) {
        self.checkpoints.push(CheckpointEntry { block_index, offset });
    }

    /// Absolute record index at which block `i` starts.
    pub(crate) fn start_record(&self, i: usize) -> u64 {
        self.blocks[..i].iter().map(|b| u64::from(b.n_records)).sum()
    }

    /// Total records across all blocks.
    pub(crate) fn total_records(&self) -> u64 {
        self.start_record(self.blocks.len())
    }

    /// Serializes the footer: body, then the fixed crc/len/magic tail.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut body =
            Vec::with_capacity(8 + self.blocks.len() * 12 + self.checkpoints.len() * 12);
        body.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            body.extend_from_slice(&b.offset.to_le_bytes());
            body.extend_from_slice(&b.n_records.to_le_bytes());
        }
        body.extend_from_slice(&(self.checkpoints.len() as u32).to_le_bytes());
        for c in &self.checkpoints {
            body.extend_from_slice(&c.block_index.to_le_bytes());
            body.extend_from_slice(&c.offset.to_le_bytes());
        }
        let crc = crc32(&body);
        let len = body.len() as u32;
        body.extend_from_slice(&crc.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
        body.extend_from_slice(FOOTER_MAGIC);
        body
    }
}

/// Parses the footer occupying exactly `bytes` (the container's tail
/// after the end marker). CRC, trailing magic, and internal consistency
/// (monotonic offsets, checkpoint indices inside the block range) are
/// all validated here so replay can trust the index.
pub(crate) fn parse_footer(bytes: &[u8]) -> Result<Footer, Error> {
    let corrupt = |what: &str| Error::Corrupt(format!("checkpoint footer: {what}"));
    if bytes.len() < FOOTER_TAIL_LEN {
        return Err(Error::Truncated);
    }
    let (body_and_crc, tail) = bytes.split_at(bytes.len() - 8);
    if &tail[4..] != FOOTER_MAGIC {
        return Err(corrupt("missing trailing magic"));
    }
    let body_len = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) as usize;
    if body_len + FOOTER_TAIL_LEN != bytes.len() {
        return Err(corrupt("length field does not match the footer size"));
    }
    let (body, crc_bytes) = body_and_crc.split_at(body_len);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored {
        return Err(corrupt("crc mismatch"));
    }

    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], Error> {
        let s = body.get(pos..pos + n).ok_or(Error::Truncated)?;
        pos += n;
        Ok(s)
    };
    let read_u32 = |s: &[u8]| u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
    let read_u64 =
        |s: &[u8]| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);

    let n_blocks = read_u32(take(4)?) as usize;
    // Each entry consumes body bytes, so the counts cannot exceed the
    // body length; reject before reserving.
    if n_blocks > body.len() / 12 {
        return Err(corrupt("block count exceeds the footer body"));
    }
    let mut footer = Footer::default();
    footer.blocks.reserve_exact(n_blocks);
    for _ in 0..n_blocks {
        let offset = read_u64(take(8)?);
        let n_records = read_u32(take(4)?);
        if let Some(prev) = footer.blocks.last() {
            if offset <= prev.offset {
                return Err(corrupt("block offsets must increase"));
            }
        }
        footer.blocks.push(BlockEntry { offset, n_records });
    }
    let n_checkpoints = read_u32(take(4)?) as usize;
    if n_checkpoints > body.len() / 12 {
        return Err(corrupt("checkpoint count exceeds the footer body"));
    }
    footer.checkpoints.reserve_exact(n_checkpoints);
    for _ in 0..n_checkpoints {
        let block_index = read_u32(take(4)?);
        let offset = read_u64(take(8)?);
        if block_index == 0 || block_index as usize >= n_blocks {
            return Err(corrupt("checkpoint block index outside the block range"));
        }
        if let Some(prev) = footer.checkpoints.last() {
            if block_index <= prev.block_index {
                return Err(corrupt("checkpoint block indices must increase"));
            }
        }
        footer.checkpoints.push(CheckpointEntry { block_index, offset });
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes in the footer body"));
    }
    Ok(footer)
}

/// Buffer growth step for reads whose length the source cannot vouch
/// for: a forged length costs at most about twice the bytes present.
const READ_STEP: usize = 1 << 16;

/// Fills `buf` from `r` until it is full or the reader is exhausted;
/// returns the bytes read.
pub(crate) fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One block frame: the offset of its marker byte, its record count,
/// and its `2 * n_fields` packed segments in container order.
pub(crate) struct BlockFrame {
    pub(crate) offset: u64,
    pub(crate) n_records: usize,
    pub(crate) segments: Vec<Vec<u8>>,
}

/// A frame as [`FrameReader::next`] yields it.
pub(crate) enum Frame {
    Block(BlockFrame),
    /// A checkpoint frame, indexed in [`FrameReader::walked`]. The
    /// snapshot stays unread: [`FrameReader::payload`] reads it, and the
    /// next frame read skips it.
    Checkpoint,
}

/// The one reader of container frames, over any [`Read`]: the in-memory
/// decoder (over a byte slice), the streaming decoder and range
/// extraction (over a seekable reader) all walk containers through it.
///
/// Every length is checked before anything is allocated for it — against
/// the bytes left when the container length is known, and otherwise by
/// growing the buffer in steps as bytes actually arrive — so a forged
/// length fails as [`Error::Truncated`] having cost at most about the
/// bytes present. The reader records the structure it walks and, at the
/// end marker, runs the only footer check.
pub(crate) struct FrameReader<R> {
    inner: R,
    /// Container offset of the next byte to read.
    pub(crate) pos: u64,
    /// The container length, when the source knows it.
    len: Option<u64>,
    /// Segments per block frame, two per field.
    segments: usize,
    checkpointed: bool,
    /// Bytes of the last checkpoint payload that nobody read yet.
    unread: u64,
    /// The frames read so far, in footer form.
    pub(crate) walked: Footer,
    /// Fed with every byte read from `inner`.
    bytes_read: Option<Counter>,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(inner: R, len: Option<u64>, bytes_read: Option<Counter>) -> Self {
        Self {
            inner,
            pos: 0,
            len,
            segments: 0,
            checkpointed: false,
            unread: 0,
            walked: Footer::default(),
            bytes_read,
        }
    }

    /// Reads the prelude. A wrong magic beats a truncation report even
    /// for tiny inputs: "not our container" is the more useful diagnosis.
    pub(crate) fn prelude(&mut self) -> Result<Prelude, StreamError> {
        let mut bytes = [0u8; PRELUDE_LEN];
        let got = read_full(&mut self.inner, &mut bytes)?;
        self.advance(got as u64);
        if !bytes[..got].starts_with(MAGIC) {
            return Err(Error::BadMagic.into());
        }
        if got < PRELUDE_LEN {
            return Err(Error::Truncated.into());
        }
        Ok(parse_prelude(&bytes)?)
    }

    /// Reads the prelude and checks it against the decoding `spec`, whose
    /// canonical hash is `hash`. Returns `options` carrying the
    /// container's semantic flags: the backend every segment decode
    /// dispatches on comes from the container, and unknown flag bits fail
    /// here, before any decoding.
    pub(crate) fn open(
        &mut self,
        spec: &TraceSpec,
        options: &EngineOptions,
        hash: u32,
    ) -> Result<EngineOptions, StreamError> {
        let prelude = self.prelude()?;
        if prelude.spec_hash != hash {
            return Err(Error::SpecMismatch { expected: hash, found: prelude.spec_hash }.into());
        }
        let header_len = prelude.header_len;
        if header_len != spec.header_bytes() as usize {
            let msg = format!("header length {header_len} does not match the specification");
            return Err(StreamError::corrupt(msg));
        }
        let effective = options.with_flags(prelude.flags)?;
        self.segments = 2 * spec.fields.len();
        self.checkpointed = effective.checkpoint_blocks > 0;
        Ok(effective)
    }

    /// Reads the next frame, or `None` at the end marker once the footer
    /// check has passed.
    pub(crate) fn next(&mut self) -> Result<Option<Frame>, StreamError> {
        let unread = std::mem::take(&mut self.unread);
        self.skip(unread)?;
        let offset = self.pos;
        let [marker] = self.array()?;
        match marker {
            END_MARKER => {
                self.check_footer()?;
                Ok(None)
            }
            BLOCK_MARKER => {
                let n_records = u32::from_le_bytes(self.array()?);
                let mut segments = Vec::with_capacity(self.segments);
                for _ in 0..self.segments {
                    let len = u32::from_le_bytes(self.array()?);
                    segments.push(self.bytes(len as usize)?);
                }
                let block = BlockFrame { offset, n_records: n_records as usize, segments };
                self.walked.push_block(block.offset, n_records);
                Ok(Some(Frame::Block(block)))
            }
            CHECKPOINT_MARKER if self.checkpointed => {
                let len = u32::from_le_bytes(self.array()?);
                self.walked.push_checkpoint(self.walked.blocks.len() as u32, offset);
                self.unread = u64::from(len);
                Ok(Some(Frame::Checkpoint))
            }
            other => Err(StreamError::corrupt(format!("unexpected block marker {other:#x}"))),
        }
    }

    /// Reads the packed snapshot of the checkpoint frame just returned.
    pub(crate) fn payload(&mut self) -> Result<Vec<u8>, StreamError> {
        let len = std::mem::take(&mut self.unread);
        self.bytes(len as usize)
    }

    /// The footer check, the only one: a checkpointed container must
    /// close with exactly the footer the frames read encode — offsets,
    /// record counts, checkpoint placement and CRC included — so a forged
    /// index can never point a seek at bytes a sequential decode would
    /// not have read. Nothing may follow.
    fn check_footer(&mut self) -> Result<(), StreamError> {
        if self.checkpointed {
            let expected = self.walked.encode();
            if self.bytes(expected.len())? != expected {
                let msg = "checkpoint footer: index does not match the container structure";
                return Err(StreamError::corrupt(msg));
            }
        }
        if read_full(&mut self.inner, &mut [0u8; 1])? != 0 {
            return Err(StreamError::corrupt("trailing bytes after the end marker"));
        }
        Ok(())
    }

    /// Reads `len` bytes, checking the length before allocating for it.
    pub(crate) fn bytes(&mut self, len: usize) -> Result<Vec<u8>, StreamError> {
        self.check_left(len as u64)?;
        let step = if self.len.is_some() { len } else { READ_STEP };
        let mut buf = Vec::new();
        while buf.len() < len {
            let start = buf.len();
            buf.resize(start + (len - start).min(step.max(start)), 0);
            self.read_exact(&mut buf[start..])?;
        }
        Ok(buf)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StreamError> {
        let mut bytes = [0u8; N];
        self.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StreamError> {
        let got = read_full(&mut self.inner, buf)?;
        self.advance(got as u64);
        if got != buf.len() {
            return Err(Error::Truncated.into());
        }
        Ok(())
    }

    /// Discards `n` bytes without buffering them.
    fn skip(&mut self, n: u64) -> Result<(), StreamError> {
        self.check_left(n)?;
        let skipped = std::io::copy(&mut (&mut self.inner).take(n), &mut std::io::sink())?;
        self.advance(skipped);
        if skipped != n {
            return Err(Error::Truncated.into());
        }
        Ok(())
    }

    fn check_left(&self, n: u64) -> Result<(), StreamError> {
        match self.len {
            Some(len) if n > len.saturating_sub(self.pos) => Err(Error::Truncated.into()),
            _ => Ok(()),
        }
    }

    fn advance(&mut self, n: u64) {
        self.pos += n;
        if let Some(c) = &self.bytes_read {
            c.add(n);
        }
    }
}

impl<R: Read + Seek> FrameReader<R> {
    /// A reader over a seekable container, whose length it measures.
    pub(crate) fn seekable(
        mut inner: R,
        bytes_read: Option<Counter>,
    ) -> Result<Self, StreamError> {
        let len = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;
        Ok(Self::new(inner, Some(len), bytes_read))
    }

    /// The container length.
    pub(crate) fn file_len(&self) -> u64 {
        self.len.unwrap_or(0)
    }

    /// Moves to container offset `offset`, dropping any unread payload.
    pub(crate) fn seek(&mut self, offset: u64) -> Result<(), StreamError> {
        if offset >= self.file_len() {
            return Err(Error::Truncated.into());
        }
        self.inner.seek(SeekFrom::Start(offset))?;
        self.pos = offset;
        self.unread = 0;
        Ok(())
    }

    /// Locates the footer from the fixed 12-byte file tail and parses it.
    pub(crate) fn footer(&mut self) -> Result<Footer, StreamError> {
        let (len, tail_len) = (self.file_len(), FOOTER_TAIL_LEN as u64);
        if len < PRELUDE_LEN as u64 + tail_len {
            return Err(Error::Truncated.into());
        }
        self.seek(len - tail_len)?;
        let tail: [u8; FOOTER_TAIL_LEN] = self.array()?;
        let footer_len =
            u64::from(u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]])) + tail_len;
        if footer_len > len - PRELUDE_LEN as u64 {
            return Err(StreamError::corrupt(
                "checkpoint footer: length field exceeds the file",
            ));
        }
        self.seek(len - footer_len)?;
        let bytes = self.bytes(footer_len as usize)?;
        Ok(parse_footer(&bytes)?)
    }
}

/// CRC-32 (IEEE, reflected) over `bytes`. Bitwise — footers are a few
/// hundred bytes, so a lookup table would be pure cache pressure.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_roundtrips() {
        let p = prelude(0b0000_1111, 0xdead_beef, 513);
        let parsed = parse_prelude(&p).unwrap();
        assert_eq!(parsed.flags, 0b0000_1111);
        assert_eq!(parsed.spec_hash, 0xdead_beef);
        assert_eq!(parsed.header_len, 513);
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let mut p = prelude(0, 0, 0);
        p[0] = b'X';
        assert!(matches!(parse_prelude(&p), Err(Error::BadMagic)));
        let mut p = prelude(0, 0, 0);
        p[4] = VERSION + 1;
        assert!(matches!(parse_prelude(&p), Err(Error::Corrupt(_))));
    }

    fn demo_footer() -> Footer {
        let mut f = Footer::default();
        f.push_block(12, 500);
        f.push_block(900, 500);
        f.push_checkpoint(1, 700);
        f.push_block(1800, 123);
        f.push_checkpoint(2, 1600);
        f
    }

    #[test]
    fn footer_roundtrips_with_record_ranges() {
        let f = demo_footer();
        let parsed = parse_footer(&f.encode()).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.start_record(0), 0);
        assert_eq!(parsed.start_record(2), 1_000);
        assert_eq!(parsed.total_records(), 1_123);
    }

    #[test]
    fn footer_rejects_corruption() {
        let good = demo_footer().encode();
        // Any single corrupted body byte trips the crc.
        for i in 0..good.len() - FOOTER_TAIL_LEN {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(parse_footer(&bad).is_err(), "byte {i} corruption accepted");
        }
        // Truncation at every point fails.
        for cut in 0..good.len() {
            assert!(parse_footer(&good[..cut]).is_err(), "cut {cut} accepted");
        }
        // Bad magic, bad length field.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] = b'X';
        assert!(parse_footer(&bad).is_err());
        let mut bad = good.clone();
        bad[n - 8] ^= 1;
        assert!(parse_footer(&bad).is_err());
    }

    #[test]
    fn footer_rejects_inconsistent_indices() {
        // Checkpoint at block 0 (the implicit fresh-state span) or past
        // the last block is never valid.
        for bad_index in [0u32, 3, 900] {
            let mut f = demo_footer();
            f.checkpoints[0].block_index = bad_index;
            if bad_index > 2 || bad_index == 0 {
                assert!(parse_footer(&f.encode()).is_err(), "index {bad_index} accepted");
            }
        }
        // Non-increasing block offsets.
        let mut f = demo_footer();
        f.blocks[1].offset = f.blocks[0].offset;
        assert!(parse_footer(&f.encode()).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
