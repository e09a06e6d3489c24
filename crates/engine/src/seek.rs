//! Seekable access to checkpointed containers: inspect a container's
//! prelude and footer without a specification, and extract an arbitrary
//! record range by reading only the footer plus the spans that cover it.
//!
//! Both entry points work over `Read + Seek` through the container's one
//! frame reader (`container::FrameReader`), so a multi-gigabyte
//! container on disk costs three reads for [`inspect`] (prelude, footer
//! tail, footer body) and, for [`extract_range`], additionally the
//! covering checkpoint frame and block frames — never the whole file.
//! The covering span decodes through the same block decoder as a full
//! decompression (`codec::decode_span`).

use std::io::{Read, Seek};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::Recorder;

use crate::codec::{decode_span, spec_hash};
use crate::container::{self, Frame, FrameReader};
use crate::options::EngineOptions;
use crate::postcodec::Backend;
use crate::StreamError;

/// Telemetry counter fed with every byte [`extract_range`] reads from
/// the container, so tests (and curious users) can verify that a range
/// extraction touches only the footer and the covering spans.
pub const SEEK_BYTES_READ: &str = "seek.bytes_read";

/// One independently replayable span of a checkpointed container, as
/// reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Index of the first block in the span.
    pub first_block: u32,
    /// One past the last block in the span.
    pub end_block: u32,
    /// Absolute index of the first record in the span.
    pub start_record: u64,
    /// One past the last record in the span.
    pub end_record: u64,
    /// Container offset of the checkpoint segment opening the span;
    /// `None` for span 0, which replays from fresh predictor state.
    pub checkpoint_offset: Option<u64>,
}

/// A container's prelude and (when present) footer index, decoded
/// without a trace specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Container format version.
    pub version: u8,
    /// Raw flags byte.
    pub flags: u8,
    /// FNV-1a hash of the canonical specification text.
    pub spec_hash: u32,
    /// Passthrough header length in bytes.
    pub header_len: usize,
    /// The post-compression backend recorded in the flags, when the id
    /// is valid.
    pub backend: Option<Backend>,
    /// Whether the checkpoint flag bit is set.
    pub checkpointed: bool,
    /// Total container size in bytes.
    pub file_len: u64,
    /// Block count from the footer (checkpointed containers only).
    pub n_blocks: Option<usize>,
    /// Total records from the footer (checkpointed containers only).
    pub total_records: Option<u64>,
    /// The replayable spans, in container order (checkpointed only).
    pub spans: Vec<SpanInfo>,
}

/// Reads a container's prelude — and, for checkpointed containers, its
/// footer — from a seekable reader. No specification is needed: nothing
/// inside the block frames is touched.
///
/// # Errors
///
/// [`StreamError::Codec`] on a malformed prelude or footer, and I/O
/// errors from the reader.
pub fn inspect(reader: &mut (impl Read + Seek)) -> Result<ContainerInfo, StreamError> {
    let mut frames = FrameReader::seekable(reader, None)?;
    let prelude = frames.prelude()?;
    let checkpointed = prelude.flags & EngineOptions::FLAG_CHECKPOINTS != 0;
    let mut info = ContainerInfo {
        version: container::VERSION,
        flags: prelude.flags,
        spec_hash: prelude.spec_hash,
        header_len: prelude.header_len,
        backend: Backend::from_id((prelude.flags >> 3) & 0b11),
        checkpointed,
        file_len: frames.file_len(),
        n_blocks: None,
        total_records: None,
        spans: Vec::new(),
    };
    if checkpointed {
        let footer = frames.footer()?;
        info.n_blocks = Some(footer.blocks.len());
        info.total_records = Some(footer.total_records());
        info.spans = spans_of(&footer);
    }
    Ok(info)
}

/// Extracts records `range.start..range.end` (absolute indices, header
/// excluded) from a checkpointed container, reading only the prelude,
/// the footer, and the frames of the covering span: the latest
/// checkpoint at or before the range start is restored and replay runs
/// from there, never from record zero.
///
/// Returns the raw record bytes, without the passthrough header. Every
/// byte read from `reader` is counted into the [`SEEK_BYTES_READ`]
/// telemetry counter when a recorder is given.
///
/// # Errors
///
/// Fails with [`StreamError::Codec`] when the container has no
/// checkpoint footer (callers wanting a fallback should [`inspect`]
/// first and run a full sequential decompress themselves), when the
/// range exceeds the container's record count, or on corruption; I/O
/// errors are propagated.
pub fn extract_range(
    spec: &TraceSpec,
    options: &EngineOptions,
    reader: &mut (impl Read + Seek),
    range: std::ops::Range<u64>,
    tel: Option<&Recorder>,
) -> Result<Vec<u8>, StreamError> {
    let mut frames =
        FrameReader::seekable(reader, tel.map(|rec| rec.counter(SEEK_BYTES_READ)))?;
    let effective = frames.open(spec, options, spec_hash(spec))?;
    if effective.checkpoint_blocks == 0 {
        let msg = "container has no checkpoint footer; use a sequential decompress";
        return Err(StreamError::corrupt(msg));
    }
    let footer = frames.footer()?;
    let total = footer.total_records();
    if range.start > range.end || range.end > total {
        return Err(StreamError::corrupt(format!("record range {range:?} outside 0..{total}")));
    }
    if range.start == range.end {
        return Ok(Vec::new());
    }

    // Per-block starting record indices, computed once.
    let ends = footer.blocks.iter().scan(0u64, |acc, b| {
        *acc += u64::from(b.n_records);
        Some(*acc)
    });
    let starts: Vec<u64> = std::iter::once(0).chain(ends).collect();

    // The latest checkpoint whose opening block starts at or before the
    // range: restore it and skip everything earlier.
    let opening =
        footer.checkpoints.iter().rev().find(|c| starts[c.block_index as usize] <= range.start);
    let first_block = opening.map_or(0, |c| c.block_index as usize);
    let snapshot = match opening {
        Some(c) => {
            frames.seek(c.offset)?;
            let Some(Frame::Checkpoint) = frames.next()? else {
                let msg = format!("expected a checkpoint frame at offset {}", c.offset);
                return Err(StreamError::corrupt(msg));
            };
            Some(frames.payload()?)
        }
        None => None,
    };
    // Each covering block is read where the footer puts it, so later
    // checkpoint frames inside the range are never read.
    let covering = footer.blocks.iter().enumerate().skip(first_block);
    let blocks = covering.take_while(|&(bi, _)| starts[bi] < range.end).map(|(_, entry)| {
        frames.seek(entry.offset)?;
        match frames.next()? {
            Some(Frame::Block(block))
                if block.offset == entry.offset
                    && block.n_records == entry.n_records as usize =>
            {
                Ok(block)
            }
            _ => Err(StreamError::corrupt(format!(
                "block frame at offset {} does not match the footer",
                entry.offset
            ))),
        }
    });
    let mut out = decode_span(spec, &effective, snapshot.as_deref(), blocks, tel)?;

    // `out` holds records from starts[first_block]; slice the request.
    let record_len = spec.record_bytes() as usize;
    let skip = (range.start - starts[first_block]) as usize * record_len;
    let want = (range.end - range.start) as usize * record_len;
    if skip + want > out.len() {
        let msg = "span replay yielded fewer records than the footer promised";
        return Err(StreamError::corrupt(msg));
    }
    out.drain(..skip);
    out.truncate(want);
    Ok(out)
}

/// Builds the span list a checkpointed container's footer describes.
fn spans_of(footer: &container::Footer) -> Vec<SpanInfo> {
    let mut opens = vec![(0u32, None)];
    opens.extend(footer.checkpoints.iter().map(|c| (c.block_index, Some(c.offset))));
    let ends = opens.iter().skip(1).map(|o| o.0).chain([footer.blocks.len() as u32]);
    let spans = opens.iter().zip(ends).map(|(&(first_block, checkpoint_offset), end_block)| {
        let start_record = footer.start_record(first_block as usize);
        let end_record = footer.start_record(end_block as usize);
        SpanInfo { first_block, end_block, start_record, end_record, checkpoint_offset }
    });
    spans.collect()
}
