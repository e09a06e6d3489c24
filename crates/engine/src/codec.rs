//! The container codec: one block writer, one block decoder, and the
//! entry points built on them and on the frame reader
//! (`container::FrameReader`).
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! "TCGZ"  u8 version  u8 flags  u32 spec_hash  u16 header_len  header bytes
//! blocks: 0x01  u32 n_records  per field { codes segment, values segment }
//! span:   0x02, before the first block of every span but the first (flag bit 6 only)
//! end:    0x00  then, when flag bit 6 is set, the block-index footer
//! segment: u32 compressed_len  blockzip container
//! ```
//!
//! The flag byte records the semantics-affecting options so that any
//! engine configuration can decompress any container (speed-only options
//! do not change the streams).
//!
//! Each direction is one loop. `BlockWriter` takes trace records in
//! whatever pieces its caller has them — [`crate::Engine::compress`]
//! passes its whole input slice, [`compress_stream`] the chunks it reads
//! — and owns block splitting, the span starts, packing and the footer
//! offsets, so the bytes cannot depend on the entry point.
//! `BlockDecoder` inflates and replays the block frames the frame
//! reader yields; the in-memory decode, [`decompress_stream`] and
//! [`crate::extract_range`] all run it.
//!
//! ## Threading model
//!
//! Blocks are the only fan-out. Modeling and replay are one serial chain
//! — every record's prediction depends on the table state all earlier
//! records left — so they run on the calling thread, field by field
//! (`columnar`). Packing a finished block's `2 * n_fields` segments, and
//! inflating them again, is independent work: [`EngineOptions::threads`]
//! fans it out to the shared pool at most `2 * threads` blocks ahead of
//! the serial stage, and the results come back in submission order, so
//! the container is byte-identical for every thread count.
//!
//! Spans ([`EngineOptions::checkpoint_blocks`]) are a seek index. Every
//! span starts from fresh predictor banks, on the writer and on every
//! reader alike, so [`crate::extract_range`] replays only the span
//! covering a record range; a whole-container decode replays every span
//! in order, resetting the banks in place at each span marker.

use std::collections::VecDeque;
use std::io::{Read, Write};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::{driver_span, OpCounters, Recorder};

use crate::columnar::{Modeler, Replayer, COLUMN_CHUNK_RECORDS};
use crate::container::{
    self, read_full, BlockFrame, Footer, FrameReader, BLOCK_MARKER, END_MARKER, SPAN_MARKER,
};
use crate::options::EngineOptions;
use crate::pool::{Pipeline, PoolTelemetry};
use crate::postcodec::PostCodec;
use crate::streams::BlockStreams;
use crate::usage::UsageReport;
use crate::{Engine, Error, StreamError};

/// FNV-1a hash of the canonical specification text; stored in the
/// container so mismatched decompressors fail fast. [`crate::Engine`]
/// computes this once at construction and reuses it across calls.
pub fn spec_hash(spec: &TraceSpec) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in tcgen_spec::canonical(spec).bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// Runs the compression loop over the whole trace as a single block and
/// returns the raw, un-post-compressed streams, flattened as
/// `[field0.codes, field0.values, field1.codes, …]` in declaration order.
///
/// This is the reference against which TCgen-generated C and Rust
/// programs are validated: their stream files must match byte-for-byte.
pub fn raw_streams(
    spec: &TraceSpec,
    options: &EngineOptions,
    raw: &[u8],
) -> Result<Vec<Vec<u8>>, Error> {
    let header_len = whole_records(spec, raw)?;
    let mut modeler = Modeler::new(spec, options, None);
    let mut streams = BlockStreams::new(spec.fields.len());
    modeler.model_chunk(&raw[header_len..], &mut streams, &mut None);
    Ok(streams.fields.into_iter().flat_map(|fs| [fs.codes, fs.values]).collect())
}

/// The passthrough header length of trace `raw`, which must be that
/// header plus a whole number of records.
fn whole_records(spec: &TraceSpec, raw: &[u8]) -> Result<usize, Error> {
    let header_len = spec.header_bytes() as usize;
    let record_len = spec.record_bytes() as usize;
    if raw.len() < header_len || !(raw.len() - header_len).is_multiple_of(record_len) {
        return Err(Error::PartialRecord { len: raw.len(), header_len, record_len });
    }
    Ok(header_len)
}

/// The inverse of [`raw_streams`]: reconstructs the record bytes (the
/// trace body, without its passthrough header) from flattened
/// `[field0.codes, field0.values, field1.codes, …]` streams. The record
/// count is taken from the code streams, which must all agree.
///
/// Used by the modeling benchmark to measure replay in isolation and by
/// tests as the stream-level roundtrip check.
pub fn replay_streams(
    spec: &TraceSpec,
    options: &EngineOptions,
    streams: Vec<Vec<u8>>,
) -> Result<Vec<u8>, Error> {
    let n_fields = spec.fields.len();
    if streams.len() != 2 * n_fields {
        return Err(Error::Corrupt(format!("{} streams for {n_fields} fields", streams.len())));
    }
    let mut pairs = streams.into_iter();
    let (codes, values): (Vec<_>, Vec<_>) =
        std::iter::from_fn(|| Some((pairs.next()?, pairs.next()?))).unzip();
    let (mut replayer, mut out) = (Replayer::new(spec, options), Vec::new());
    replayer.replay_block(codes[0].len(), &codes, &values, &mut out, None)?;
    Ok(out)
}

/// `codec` with stage-timing probes attached when a recorder is present.
fn probed(mut codec: PostCodec, tel: Option<&Recorder>) -> PostCodec {
    if let Some(rec) = tel {
        codec.attach_probes(rec);
    }
    codec
}

fn worker_panicked(stage: &str) -> Error {
    Error::Internal(format!("{stage} worker panicked"))
}

/// The threaded post-compression pool: each worker consumes a segment
/// payload and hands it back (cleared, capacity intact) alongside the
/// packed bytes, so block stream buffers are recycled instead of
/// reallocated every block.
type PackPipe = Pipeline<'static, Vec<u8>, (Vec<u8>, Result<Vec<u8>, blockzip::Error>)>;

/// Where finished blocks are packed.
enum Pack {
    /// On the calling thread, as each block closes.
    Inline(PostCodec),
    /// On the ordered pack pool.
    Pool {
        pipe: PackPipe,
        /// Most blocks in flight before the oldest is written out.
        ahead: usize,
        /// Submitted blocks not yet written: the record count and
        /// whether the block opens a span.
        pending: VecDeque<(u32, bool)>,
        /// Stream buffers back from the pool, ready for reuse.
        free: Vec<Vec<u8>>,
    },
}

/// The one block writer: models records into blocks, restarts the
/// predictor banks where a span falls due, packs every block inline or
/// on the pack pool, and writes the frames and the footer to `out`. The
/// bytes depend only on the records and the options, never on how the
/// caller splits the records or on the thread count.
pub(crate) struct BlockWriter<'a, W: Write> {
    out: W,
    /// Bytes written so far: the container offset of the next frame.
    pos: u64,
    modeler: Modeler,
    streams: BlockStreams,
    pack: Pack,
    /// The block index; present exactly when the container has spans.
    footer: Option<Footer>,
    /// The open block starts a span.
    opens_span: bool,
    /// Blocks closed so far.
    blocks: usize,
    record_len: usize,
    block_records: usize,
    checkpoint_blocks: usize,
    usage: Option<&'a mut UsageReport>,
    tel: Option<&'a Recorder>,
    counters: Option<OpCounters>,
}

impl<'a, W: Write> BlockWriter<'a, W> {
    /// Writes the prelude and the passthrough `header`. `hash` is the
    /// spec's [`spec_hash`]; `usage`, when given, accumulates predictor
    /// usage and, at [`BlockWriter::finish`], the table statistics.
    pub(crate) fn new(
        spec: &TraceSpec,
        options: &EngineOptions,
        hash: u32,
        header: &[u8],
        out: W,
        usage: Option<&'a mut UsageReport>,
        tel: Option<&'a Recorder>,
    ) -> Result<Self, StreamError> {
        let threads = options.effective_threads();
        let (backend, level) = (options.backend, options.level);
        let pack = if threads <= 1 {
            Pack::Inline(probed(backend.codec(level), tel))
        } else {
            let pipe = Pipeline::start(
                threads,
                PoolTelemetry::from(tel, "pack", backend.pack_span()),
                || {
                    let mut codec = probed(backend.codec(level), tel);
                    move |mut payload: Vec<u8>| {
                        let packed = codec.compress(&payload);
                        payload.clear();
                        (payload, packed)
                    }
                },
            );
            Pack::Pool { pipe, ahead: 2 * threads, pending: VecDeque::new(), free: Vec::new() }
        };
        let mut writer = Self {
            out,
            pos: 0,
            modeler: Modeler::new(spec, options, tel),
            streams: BlockStreams::new(spec.fields.len()),
            pack,
            footer: (options.checkpoint_blocks > 0).then(Footer::default),
            opens_span: false,
            blocks: 0,
            record_len: spec.record_bytes() as usize,
            block_records: options.effective_block_records(),
            checkpoint_blocks: options.checkpoint_blocks,
            usage,
            tel,
            counters: tel.map(OpCounters::compress),
        };
        writer.put(&container::prelude(options.flags(), hash, header.len() as u16))?;
        writer.put(header)?;
        if let Some(c) = &writer.counters {
            c.bytes_in.add(header.len() as u64);
        }
        Ok(writer)
    }

    /// Models whole `records`, closing a block at every block boundary.
    pub(crate) fn push(&mut self, mut records: &[u8]) -> Result<(), StreamError> {
        debug_assert!(records.len().is_multiple_of(self.record_len));
        if let Some(c) = &self.counters {
            c.bytes_in.add(records.len() as u64);
            c.records.add((records.len() / self.record_len) as u64);
        }
        while !records.is_empty() {
            if self.streams.is_empty()
                && self.footer.is_some()
                && self.blocks > 0
                && self.blocks.is_multiple_of(self.checkpoint_blocks)
            {
                // Before the block's first record is modeled, so that a
                // reader starts the block from fresh banks too.
                self.modeler.start_span(&mut self.usage, self.tel);
                self.opens_span = true;
            }
            let room = self.block_records - self.streams.records;
            let (head, rest) =
                records.split_at(room.min(records.len() / self.record_len) * self.record_len);
            {
                let _s = driver_span(self.tel, "model.chunk");
                self.modeler.model_chunk(head, &mut self.streams, &mut self.usage);
            }
            if self.streams.records == self.block_records {
                self.close_block()?;
            }
            records = rest;
        }
        Ok(())
    }

    /// Closes the open block and packs it — inline, writing it at once,
    /// or on the pool, writing the oldest block in flight once more than
    /// `ahead` are.
    fn close_block(&mut self) -> Result<(), StreamError> {
        let n_records = self.streams.records as u32;
        let opens_span = std::mem::take(&mut self.opens_span);
        self.blocks += 1;
        match &mut self.pack {
            Pack::Inline(codec) => {
                let _s = driver_span(self.tel, "block.flush");
                let segments =
                    self.streams.fields.iter().flat_map(|fs| [&fs.codes, &fs.values]);
                let segments = segments
                    .map(|payload| codec.compress(payload))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(Error::Post)?;
                self.streams.clear();
                self.write_block(n_records, opens_span, &segments)
            }
            Pack::Pool { pipe, ahead, pending, free } => {
                pending.push_back((n_records, opens_span));
                for fs in &mut self.streams.fields {
                    for stream in [&mut fs.codes, &mut fs.values] {
                        pipe.submit(std::mem::replace(stream, free.pop().unwrap_or_default()));
                    }
                }
                self.streams.clear();
                if pending.len() > *ahead {
                    self.write_pooled()?;
                }
                Ok(())
            }
        }
    }

    /// Writes the oldest block in flight on the pack pool, consuming its
    /// segments in submission order; returns whether there was one.
    fn write_pooled(&mut self) -> Result<bool, StreamError> {
        let Pack::Pool { pipe, pending, free, .. } = &mut self.pack else {
            return Ok(false);
        };
        let Some((n_records, opens_span)) = pending.pop_front() else {
            return Ok(false);
        };
        let _s = driver_span(self.tel, "block.flush");
        let mut segments = Vec::with_capacity(2 * self.streams.fields.len());
        for _ in 0..2 * self.streams.fields.len() {
            let (payload, packed) = pipe.next().map_err(|_| worker_panicked("compression"))?;
            free.push(payload);
            segments.push(packed.map_err(Error::Post)?);
        }
        self.write_block(n_records, opens_span, &segments)?;
        Ok(true)
    }

    /// Writes one block frame — after a span marker, when the block
    /// opens a span — and indexes both at the offsets they land on.
    fn write_block(
        &mut self,
        n_records: u32,
        opens_span: bool,
        segments: &[Vec<u8>],
    ) -> Result<(), StreamError> {
        if opens_span {
            let f = self.footer.as_mut().expect("spans imply a footer");
            f.push_checkpoint(f.blocks.len() as u32, self.pos);
            self.put(&[SPAN_MARKER])?;
        }
        if let Some(f) = self.footer.as_mut() {
            f.push_block(self.pos, n_records);
        }
        self.put(&[BLOCK_MARKER])?;
        self.put(&n_records.to_le_bytes())?;
        for packed in segments {
            self.put(&(packed.len() as u32).to_le_bytes())?;
            self.put(packed)?;
        }
        if let Some(c) = &self.counters {
            c.blocks.add(1);
        }
        Ok(())
    }

    /// Closes the last block, drains the pack pool, and writes the end
    /// marker and the footer. Returns the writer it was given.
    pub(crate) fn finish(mut self) -> Result<W, StreamError> {
        if !self.streams.is_empty() {
            self.close_block()?;
        }
        while self.write_pooled()? {}
        self.put(&[END_MARKER])?;
        if let Some(f) = self.footer.take() {
            self.put(&f.encode())?;
        }
        self.out.flush()?;
        // Table stats are taken after the run so the occupancy counters
        // reflect every record modeled; each earlier span was folded in
        // as it closed.
        if let Some(u) = self.usage.take() {
            self.modeler.record_table_stats(u);
        }
        if let Some(c) = &self.counters {
            c.bytes_out.add(self.pos);
        }
        Ok(self.out)
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), StreamError> {
        self.out.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }
}

/// Most record bytes that [`crate::Engine::compress`] and
/// [`crate::Engine::decompress`] pack or unpack on the calling thread,
/// whatever `threads` says, when they fit in one block. The pool then
/// has only that block's segments to run side by side, and below this
/// size starting it costs more than that saves. Measured on TCGEN_A
/// one-block traces, 2-vCPU VM: at 420–516 KB inline ran 12–47% faster
/// when the host stole 10–14% of the CPU and within 5% of the pool when
/// it stole 4%; at 2.4 MB the pool compressed 10–12% faster every time.
const INLINE_BLOCK_BYTES: usize = 1 << 19;

/// `options` with one thread for a call of `blocks` blocks and `bytes`
/// record bytes that runs inline (see [`INLINE_BLOCK_BYTES`]); such a
/// call starts no pool and never resolves `threads: 0`.
fn sized_threads(options: &EngineOptions, blocks: usize, bytes: usize) -> EngineOptions {
    let inline = blocks <= 1 && bytes <= INLINE_BLOCK_BYTES;
    EngineOptions { threads: if inline { 1 } else { options.threads }, ..*options }
}

/// [`crate::Engine::compress`]: the whole input slice goes to the block
/// writer as it is, and the container comes back as a vector.
pub(crate) fn compress_slice(
    engine: &Engine,
    raw: &[u8],
    usage: Option<&mut UsageReport>,
) -> Result<Vec<u8>, Error> {
    let (header, body) = raw.split_at(whole_records(&engine.spec, raw)?);
    let tel = engine.telemetry.as_ref();
    let _op_span = driver_span(tel, "compress");
    let out = Vec::with_capacity(raw.len() / 8 + 64);
    let spec = &engine.spec;
    let records = body.len() / spec.record_bytes() as usize;
    let blocks = records.div_ceil(engine.options.effective_block_records());
    let options = sized_threads(&engine.options, blocks, body.len());
    let run = || {
        let mut writer =
            BlockWriter::new(spec, &options, engine.spec_hash, header, out, usage, tel)?;
        writer.push(body)?;
        writer.finish()
    };
    run().map_err(StreamError::into_codec)
}

/// Compresses a trace from `input` to `output`, one read chunk at a
/// time, holding at most a bounded number of blocks in memory; the
/// output is byte-identical to [`crate::Engine::compress`].
///
/// # Errors
///
/// Returns [`StreamError::Codec`] with [`Error::PartialRecord`] when the
/// input ends mid-record, and propagates I/O errors.
pub fn compress_stream(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), StreamError> {
    compress_stream_with_telemetry(spec, options, input, output, None)
}

/// [`compress_stream`] with an optional telemetry recorder: reads and
/// block flushes are traced as `io.read`/`model.chunk`/`block.flush`
/// spans and the `compress.*` counters are fed. Output bytes are
/// identical with and without a recorder.
pub fn compress_stream_with_telemetry(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
    tel: Option<&Recorder>,
) -> Result<(), StreamError> {
    let _op_span = driver_span(tel, "compress");
    let header_len = spec.header_bytes() as usize;
    let record_len = spec.record_bytes() as usize;
    let mut header = vec![0u8; header_len];
    let got = read_full(input, &mut header)?;
    if got != header_len {
        return Err(Error::PartialRecord { len: got, header_len, record_len }.into());
    }
    let mut writer =
        BlockWriter::new(spec, options, spec_hash(spec), &header, output, None, tel)?;
    let mut chunk =
        vec![0u8; record_len * options.effective_block_records().min(COLUMN_CHUNK_RECORDS)];
    loop {
        let got = {
            let _s = driver_span(tel, "io.read");
            read_full(input, &mut chunk)?
        };
        if got % record_len != 0 {
            return Err(Error::PartialRecord { len: got, header_len, record_len }.into());
        }
        writer.push(&chunk[..got])?;
        if got < chunk.len() {
            return writer.finish().map(drop);
        }
    }
}

/// A (compressed segment, decode limit) job and its decoded result.
type SegmentPipe = Pipeline<'static, (Vec<u8>, usize), Result<Vec<u8>, blockzip::Error>>;

/// Where block segments are inflated.
enum Unpack {
    /// On the calling thread, just before the block replays.
    Inline(PostCodec),
    /// On the ordered unpack pool.
    Pool(SegmentPipe),
}

/// The one block decoder: inflates each block's segments — inline or on
/// the unpack pool, a bounded number of blocks ahead of replay — and
/// replays the block. Every segment decode is capped at the size its
/// block's record count admits, so a forged count cannot inflate a
/// segment past what the block could hold.
pub(crate) struct BlockDecoder<'a> {
    unpack: Unpack,
    /// Most blocks inflating at once, the one replaying included.
    ahead: usize,
    /// Driver-track spans and table set-up counts; off in seeks.
    tel: Option<&'a Recorder>,
}

impl<'a> BlockDecoder<'a> {
    /// A decoder for the calling thread, sized by `options.threads`.
    /// `options` must carry the container's flags.
    pub(crate) fn new(options: &EngineOptions, tel: Option<&'a Recorder>) -> Self {
        let (backend, level) = (options.backend, options.level);
        let threads = options.effective_threads();
        let (unpack, ahead) = if threads <= 1 {
            (Unpack::Inline(probed(backend.codec(level), tel)), 1)
        } else {
            let pipe = Pipeline::start(
                threads,
                PoolTelemetry::from(tel, "unpack", backend.unpack_span()),
                || {
                    let mut codec = probed(backend.codec(level), tel);
                    move |(segment, limit): (Vec<u8>, usize)| codec.decompress(&segment, limit)
                },
            );
            (Unpack::Pool(pipe), 2 * threads)
        };
        Self { unpack, ahead, tel }
    }

    /// A single-threaded decoder for a seek: codec probes but no driver
    /// spans.
    fn inline(options: &EngineOptions, tel: Option<&'a Recorder>) -> Self {
        let serial = EngineOptions { threads: 1, ..*options };
        Self { tel: None, ..Self::new(&serial, tel) }
    }

    /// Inflates and replays every block of `blocks` in order with
    /// `replayer`, appending the records to `out` and handing `out` to
    /// `emit` after each block. A block that opens a span replays from
    /// fresh predictor banks.
    pub(crate) fn run(
        &mut self,
        replayer: &mut Replayer,
        blocks: impl Iterator<Item = Result<BlockFrame, StreamError>>,
        out: &mut Vec<u8>,
        mut emit: impl FnMut(&mut Vec<u8>) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        // Fused: a reader must not be asked for frames past the end marker.
        let mut blocks = blocks.fuse();
        // Codes decode to one byte per record, values to at most the
        // field's width per record.
        let per_record: Vec<usize> = replayer.widths().iter().flat_map(|&w| [1, w]).collect();
        let mut queue: VecDeque<BlockFrame> = VecDeque::with_capacity(self.ahead);
        let (mut codes, mut values) = (Vec::new(), Vec::new());
        loop {
            while queue.len() < self.ahead {
                let Some(mut block) = blocks.next().transpose()? else { break };
                if let Unpack::Pool(pipe) = &self.unpack {
                    let segments = std::mem::take(&mut block.segments);
                    for (segment, &per) in segments.into_iter().zip(&per_record) {
                        pipe.submit((segment, block.n_records.saturating_mul(per)));
                    }
                }
                queue.push_back(block);
            }
            let Some(block) = queue.pop_front() else { return Ok(()) };
            codes.clear();
            values.clear();
            for (i, &per) in per_record.iter().enumerate() {
                let segment = match &mut self.unpack {
                    Unpack::Inline(codec) => {
                        let _s = driver_span(self.tel, codec.backend().unpack_span());
                        let limit = block.n_records.saturating_mul(per);
                        codec.decompress(&block.segments[i], limit)
                    }
                    Unpack::Pool(pipe) => {
                        pipe.next().map_err(|_| worker_panicked("decompression"))?
                    }
                };
                let stream = if i % 2 == 0 { &mut codes } else { &mut values };
                stream.push(segment.map_err(Error::Post)?);
            }
            if block.opens_span {
                replayer.start_span(self.tel);
            }
            {
                let _s = driver_span(self.tel, "replay.block");
                replayer.replay_block(block.n_records, &codes, &values, out, self.tel)?;
            }
            emit(out)?;
        }
    }
}

/// Decodes `blocks`, which start a span, on the calling thread from fresh
/// predictor state. [`crate::extract_range`] runs this from the start of
/// the span covering its range.
pub(crate) fn decode_span(
    spec: &TraceSpec,
    options: &EngineOptions,
    blocks: impl Iterator<Item = Result<BlockFrame, StreamError>>,
    tel: Option<&Recorder>,
) -> Result<Vec<u8>, StreamError> {
    let mut replayer = Replayer::new(spec, options);
    let mut out = Vec::new();
    BlockDecoder::inline(options, tel).run(&mut replayer, blocks, &mut out, |_| Ok(()))?;
    Ok(out)
}

/// [`crate::Engine::decompress`]. The frame reader walks the whole
/// container — every marker, record count and segment length checked
/// against the input size, the footer checked against the frames — before
/// any segment is inflated, which also fixes the decoded size, so the
/// output is allocated exactly once. The block decoder then replays the
/// block frames in order.
pub(crate) fn decompress_slice(engine: &Engine, packed: &[u8]) -> Result<Vec<u8>, Error> {
    let (spec, options, tel) = (&engine.spec, &engine.options, engine.telemetry.as_ref());
    let _op_span = driver_span(tel, "decompress");
    let counters = tel.map(OpCounters::decompress);
    let run = || -> Result<Vec<u8>, StreamError> {
        let mut frames = FrameReader::new(packed, Some(packed.len() as u64), None);
        let effective = frames.open(spec, options, engine.spec_hash)?;
        let header = frames.bytes(spec.header_bytes() as usize)?;
        let mut blocks = Vec::new();
        while let Some(block) = frames.next()? {
            blocks.push(block);
        }
        let records = frames.walked.total_records();
        let out_len = usize::try_from(records)
            .ok()
            .and_then(|n| n.checked_mul(spec.record_bytes() as usize))
            .and_then(|body| body.checked_add(header.len()))
            .ok_or_else(|| Error::Corrupt("decoded trace size overflows".into()))?;
        // Fallible reservation: a forged record count must produce an
        // error, not an allocation abort.
        let mut out = Vec::new();
        out.try_reserve_exact(out_len).map_err(|_| {
            Error::Corrupt(format!("cannot allocate {out_len} bytes for the decoded trace"))
        })?;
        out.extend_from_slice(&header);
        let mut replayer = Replayer::new(spec, &effective);
        let sized = sized_threads(&effective, blocks.len(), out_len - header.len());
        let mut decoder = BlockDecoder::new(&sized, tel);
        decoder.run(&mut replayer, blocks.into_iter().map(Ok), &mut out, |_| Ok(()))?;
        if let Some(c) = &counters {
            c.bytes_in.add(packed.len() as u64);
            c.bytes_out.add(out.len() as u64);
            c.records.add(records);
            c.blocks.add(frames.walked.blocks.len() as u64);
        }
        Ok(out)
    };
    run().map_err(StreamError::into_codec)
}

/// Decompresses a container from `input` to `output`, holding at most a
/// bounded number of blocks in memory.
///
/// Applies the same hardening as the in-memory decompressor: every
/// length is checked before it is allocated for, segment decodes are
/// capped by the block's record count, value streams must be consumed
/// exactly, and data after the end marker is rejected.
///
/// # Errors
///
/// As for [`crate::Engine::decompress`], plus I/O errors.
pub fn decompress_stream(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), StreamError> {
    decompress_stream_with_telemetry(spec, options, input, output, None)
}

/// [`decompress_stream`] with an optional telemetry recorder: frame
/// reads, decodes, replays, and writes are traced as spans and the
/// `decompress.*` counters are fed. Output bytes are identical with and
/// without a recorder.
pub fn decompress_stream_with_telemetry(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
    tel: Option<&Recorder>,
) -> Result<(), StreamError> {
    let _op_span = driver_span(tel, "decompress");
    let counters = tel.map(OpCounters::decompress);
    let mut frames = FrameReader::new(input, None, None);
    let effective = frames.open(spec, options, spec_hash(spec))?;
    let header = frames.bytes(spec.header_bytes() as usize)?;
    output.write_all(&header)?;
    let mut written = header.len() as u64;
    let blocks = std::iter::from_fn(|| {
        let _s = driver_span(tel, "io.read");
        frames.next().transpose()
    });
    let mut replayer = Replayer::new(spec, &effective);
    let emit = |records: &mut Vec<u8>| -> Result<(), StreamError> {
        let _s = driver_span(tel, "io.write");
        output.write_all(records)?;
        written += records.len() as u64;
        records.clear();
        Ok(())
    };
    BlockDecoder::new(&effective, tel).run(&mut replayer, blocks, &mut Vec::new(), emit)?;
    output.flush()?;
    if let Some(c) = &counters {
        c.bytes_in.add(frames.pos);
        c.bytes_out.add(written);
        c.records.add(frames.walked.total_records());
        c.blocks.add(frames.walked.blocks.len() as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    fn demo_trace(records: usize) -> Vec<u8> {
        let mut raw = vec![9, 8, 7, 6];
        for i in 0..records as u64 {
            raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 11) * 4).to_le_bytes());
            raw.extend_from_slice(&(0x2000 + i * 8).to_le_bytes());
        }
        raw
    }

    /// A reader that returns at most 7 bytes per `read`, so record, frame
    /// and segment boundaries all straddle reads.
    struct ShortReads<'a>(&'a [u8]);

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn streaming_matches_in_memory_byte_for_byte() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let raw = demo_trace(3_333);
        for threads in [1usize, 4] {
            let options =
                EngineOptions { block_records: 500, threads, ..EngineOptions::tcgen() };
            let in_memory = Engine::new(spec.clone(), options).compress(&raw).unwrap();
            let mut streamed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut streamed).unwrap();
            assert_eq!(streamed, in_memory, "threads {threads}");
            let mut trickled = Vec::new();
            compress_stream(&spec, &options, &mut ShortReads(&raw), &mut trickled).unwrap();
            assert_eq!(trickled, in_memory, "threads {threads}, short reads");
        }
    }

    #[test]
    fn streaming_roundtrip() {
        let spec = parse(presets::TCGEN_A).unwrap();
        for threads in [1usize, 3] {
            let options =
                EngineOptions { block_records: 100, threads, ..EngineOptions::tcgen() };
            let raw = demo_trace(1_501);
            let mut packed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
            let mut restored = Vec::new();
            decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
            assert_eq!(restored, raw, "threads {threads}");
            let mut restored = Vec::new();
            decompress_stream(&spec, &options, &mut ShortReads(&packed), &mut restored)
                .unwrap();
            assert_eq!(restored, raw, "threads {threads}, short reads");
        }
    }

    #[test]
    fn streaming_cross_compatibility_with_in_memory() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = demo_trace(700);
        // Stream-compressed, memory-decompressed.
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let engine = Engine::new(spec.clone(), options);
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
        // Memory-compressed, stream-decompressed.
        let packed = engine.compress(&raw).unwrap();
        let mut restored = Vec::new();
        decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
        assert_eq!(restored, raw);
    }

    #[test]
    fn partial_record_detected_mid_stream() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let mut raw = demo_trace(10);
        raw.pop();
        let mut sink = Vec::new();
        let err =
            compress_stream(&spec, &EngineOptions::tcgen(), &mut raw.as_slice(), &mut sink)
                .unwrap_err();
        assert!(matches!(err, StreamError::Codec(Error::PartialRecord { .. })));
    }

    #[test]
    fn truncated_container_detected() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = demo_trace(200);
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let cut = &packed[..packed.len() - 2];
        let mut restored = Vec::new();
        assert!(decompress_stream(&spec, &options, &mut &cut[..], &mut restored).is_err());
    }

    #[test]
    fn trailing_bytes_after_end_marker_rejected() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let raw = demo_trace(50);
        for threads in [1usize, 2] {
            let options = EngineOptions { threads, ..EngineOptions::tcgen() };
            let mut packed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
            packed.push(0xEE);
            let mut restored = Vec::new();
            let err = decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored)
                .unwrap_err();
            assert!(
                matches!(err, StreamError::Codec(Error::Corrupt(_))),
                "threads {threads}: {err}"
            );
        }
    }

    #[test]
    fn empty_trace_streams() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = vec![1, 2, 3, 4];
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let mut restored = Vec::new();
        decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
        assert_eq!(restored, raw);
    }
}
