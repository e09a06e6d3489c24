//! Seekable access to containers with spans: inspect a container's
//! prelude and footer without a specification, and extract an arbitrary
//! record range by reading only the footer plus the span that covers it.
//!
//! Both entry points work over `Read + Seek` through the container's one
//! frame reader (`container::FrameReader`), so a multi-gigabyte
//! container on disk costs three reads for [`inspect`] (prelude, footer
//! tail, footer body) and, for [`extract_range`], additionally the
//! covering block frames — never the whole file. Every span starts from
//! fresh predictor state, so the covering span decodes on its own,
//! through the same block decoder as a full decompression
//! (`codec::decode_span`).

use std::io::{Read, Seek};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::Recorder;

use crate::codec::{decode_span, spec_hash};
use crate::container::{self, FrameReader, PRELUDE_LEN};
use crate::options::EngineOptions;
use crate::postcodec::Backend;
use crate::StreamError;

/// Telemetry counter fed with every byte [`extract_range`] reads from
/// the container, so tests (and curious users) can verify that a range
/// extraction touches only the footer and the covering span.
pub const SEEK_BYTES_READ: &str = "seek.bytes_read";

/// One independently replayable span of a container, as reported by
/// [`inspect`]. Every span starts from fresh predictor state.
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
    /// Container offset where the span's frames start: its span marker,
    /// or for span 0 the byte after the passthrough header.
    pub offset: u64,
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
    /// Whether the span flag bit is set: the container has spans and a
    /// footer.
    pub checkpointed: bool,
    /// Total container size in bytes.
    pub file_len: u64,
    /// Block count from the footer (containers with spans only).
    pub n_blocks: Option<usize>,
    /// Total records from the footer (containers with spans only).
    pub total_records: Option<u64>,
    /// The replayable spans, in container order (containers with spans
    /// only).
    pub spans: Vec<SpanInfo>,
}

/// Reads a container's prelude — and, for containers with spans, its
/// footer — from a seekable reader. No specification is needed: nothing
/// inside the block frames is touched.
///
/// # Errors
///
/// [`StreamError::Codec`] on a malformed prelude or footer or on flags
/// that mark a retired layout (snapshot checkpoints, the `balanced`
/// backend), and I/O errors from the reader.
pub fn inspect(reader: &mut (impl Read + Seek)) -> Result<ContainerInfo, StreamError> {
    let mut frames = FrameReader::seekable(reader, None)?;
    let prelude = frames.prelude()?;
    EngineOptions::reject_retired(prelude.flags)?;
    let checkpointed = prelude.flags & EngineOptions::FLAG_SPANS != 0;
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
        info.spans = spans_of(&footer, prelude.header_len);
    }
    Ok(info)
}

/// Extracts records `range.start..range.end` (absolute indices, header
/// excluded) from a container with spans, reading only the prelude, the
/// footer, and the frames that cover the range: replay starts from fresh
/// predictor state at the latest span start at or before the range
/// start, never from record zero, and restarts at every span the range
/// crosses.
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

    // The latest span starting at or before the range: seek once to its
    // start, then read forward, checking each block — and whether a span
    // marker opens it — against the footer.
    let spans = spans_of(&footer, spec.header_bytes() as usize);
    let span = spans.iter().rfind(|s| s.start_record <= range.start).expect("span 0 covers 0");
    frames.seek(span.offset)?;
    let mut start = span.start_record;
    let covering = footer.blocks.iter().enumerate().skip(span.first_block as usize);
    let blocks = covering
        .take_while(|(_, entry)| {
            let covers = start < range.end;
            start += u64::from(entry.n_records);
            covers
        })
        .map(|(bi, entry)| {
            let opens = footer.checkpoints.iter().any(|c| c.block_index as usize == bi);
            match frames.next()? {
                Some(block)
                    if block.offset == entry.offset
                        && block.n_records == entry.n_records as usize
                        && block.opens_span == opens =>
                {
                    Ok(block)
                }
                _ => Err(StreamError::corrupt(format!(
                    "block frame at offset {} does not match the footer",
                    entry.offset
                ))),
            }
        });
    let mut out = decode_span(spec, &effective, blocks, tel)?;

    // `out` holds records from the span's start; slice the request.
    let record_len = spec.record_bytes() as usize;
    let skip = (range.start - span.start_record) as usize * record_len;
    let want = (range.end - range.start) as usize * record_len;
    if skip + want > out.len() {
        let msg = "span replay yielded fewer records than the footer promised";
        return Err(StreamError::corrupt(msg));
    }
    out.drain(..skip);
    out.truncate(want);
    Ok(out)
}

/// Builds the span list a footer describes, for a container whose
/// passthrough header is `header_len` bytes: span 0's frames start right
/// after it.
fn spans_of(footer: &container::Footer, header_len: usize) -> Vec<SpanInfo> {
    let mut opens = vec![(0u32, (PRELUDE_LEN + header_len) as u64)];
    opens.extend(footer.checkpoints.iter().map(|c| (c.block_index, c.offset)));
    let ends = opens.iter().skip(1).map(|o| o.0).chain([footer.blocks.len() as u32]);
    let spans = opens.iter().zip(ends).map(|(&(first_block, offset), end_block)| {
        let start_record = footer.start_record(first_block as usize);
        let end_record = footer.start_record(end_block as usize);
        SpanInfo { first_block, end_block, start_record, end_record, offset }
    });
    spans.collect()
}
