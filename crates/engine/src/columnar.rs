//! The columnar modeling and replay stage.
//!
//! Records are transposed into per-field `u64` columns (the PC column is
//! the PC field's own column), and each field's column is modeled or
//! replayed in one batch call
//! ([`tcgen_predictors::FieldBank::model_column`] /
//! [`tcgen_predictors::FieldBank::replay_column`]). Each bank is an
//! enum over width-specialized `TypedBank<u8|u16|u32|u64>` instances,
//! so the one dispatch per column lands in a kernel fully monomorphized
//! for the field's table-element width. A `FieldBank`'s state depends
//! only on its own value history and the PC column, so the fields run
//! one after another on the calling thread, in field order: the streams,
//! the usage counters and the first error reported follow from the
//! records alone.
//!
//! Compression transposes and models [`COLUMN_CHUNK_RECORDS`] records at
//! a time, which bounds the columns' memory and keeps them
//! cache-resident. Replay works a whole block at a time: the PC column
//! must be fully decoded before the other fields can resolve their table
//! lines, and the block's code and value streams are already in memory
//! anyway.

use tcgen_predictors::{FieldBank, ReplayError};
use tcgen_spec::TraceSpec;

use crate::options::EngineOptions;
use crate::streams::{field_offsets, read_value, write_value, BlockStreams};
use crate::usage::UsageReport;
use crate::Error;

/// Records per modeling chunk: small enough that every column (8 bytes
/// per record) stays cache-friendly.
pub(crate) const COLUMN_CHUNK_RECORDS: usize = 1 << 16;

/// Per-record layout shared by the modeler and the replayer.
struct Layout {
    offsets: Vec<usize>,
    field_bytes: Vec<usize>,
    /// Encoded byte width of each field's miss values.
    widths: Vec<usize>,
    pc_index: usize,
    record_len: usize,
}

impl Layout {
    fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        Self {
            offsets: field_offsets(spec),
            field_bytes: spec.fields.iter().map(|f| f.bytes() as usize).collect(),
            widths: spec
                .fields
                .iter()
                .map(|f| if options.minimize_types { f.bytes() as usize } else { 8 })
                .collect(),
            pc_index: spec.pc_index(),
            record_len: spec.record_bytes() as usize,
        }
    }

    fn n_fields(&self) -> usize {
        self.offsets.len()
    }
}

fn banks(spec: &TraceSpec, options: &EngineOptions) -> Vec<FieldBank> {
    spec.fields.iter().map(|f| FieldBank::new(f, options.predictor)).collect()
}

/// The modeling stage: feeds records through the predictor banks and
/// appends predictor codes and miss values to the current block's
/// streams. Shared by the block writer ([`crate::codec`]) and
/// [`crate::codec::raw_streams`] so the two can never drift apart.
pub(crate) struct Modeler {
    banks: Vec<FieldBank>,
    layout: Layout,
    /// Reusable per-field columns.
    cols: Vec<Vec<u64>>,
    miss_buf: Vec<u64>,
}

impl Modeler {
    pub(crate) fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        let layout = Layout::new(spec, options);
        Self {
            banks: banks(spec, options),
            cols: vec![Vec::new(); layout.n_fields()],
            layout,
            miss_buf: Vec::new(),
        }
    }

    /// Copies each bank's value-table footprint and table occupancy into
    /// `usage`. The footprint reflects the element widths actually
    /// selected; the occupancy reflects the lines written so far, so
    /// this runs after modeling.
    pub(crate) fn record_table_stats(&self, usage: &mut UsageReport) {
        for (field, bank) in usage.fields.iter_mut().zip(&self.banks) {
            field.table_bytes = bank.table_bytes() as u64;
            field.occupancy = bank.occupancy();
        }
    }

    /// Serializes every field bank's current state as a checkpoint
    /// payload: per field in declaration order, a `u32` length and the
    /// bank's versioned snapshot.
    pub(crate) fn snapshot_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for bank in &self.banks {
            let snap = bank.snapshot();
            out.extend_from_slice(&(snap.len() as u32).to_le_bytes());
            out.extend_from_slice(&snap);
        }
        out
    }

    /// Models `chunk` (whole records) into `streams`, incrementing its
    /// record count. Internally works [`COLUMN_CHUNK_RECORDS`] records at
    /// a time.
    pub(crate) fn model_chunk(
        &mut self,
        chunk: &[u8],
        streams: &mut BlockStreams,
        usage: &mut Option<&mut UsageReport>,
    ) {
        debug_assert!(chunk.len().is_multiple_of(self.layout.record_len));
        for sub in chunk.chunks(self.layout.record_len * COLUMN_CHUNK_RECORDS) {
            self.model_columns(sub, streams, usage);
        }
        streams.records += chunk.len() / self.layout.record_len;
    }

    fn model_columns(
        &mut self,
        sub: &[u8],
        streams: &mut BlockStreams,
        usage: &mut Option<&mut UsageReport>,
    ) {
        let n = sub.len() / self.layout.record_len;
        // Transpose: one strided read pass over the records per field,
        // one sequential column written per pass.
        for (fi, col) in self.cols.iter_mut().enumerate() {
            col.clear();
            col.reserve(n);
            let off = self.layout.offsets[fi];
            let w = self.layout.field_bytes[fi];
            for rec in sub.chunks_exact(self.layout.record_len) {
                col.push(read_value(&rec[off..], w));
            }
        }
        let pcs = &self.cols[self.layout.pc_index];
        for (fi, (bank, fs)) in self.banks.iter_mut().zip(&mut streams.fields).enumerate() {
            let start = fs.codes.len();
            self.miss_buf.clear();
            bank.model_column(pcs, &self.cols[fi], &mut fs.codes, &mut self.miss_buf);
            for &v in &self.miss_buf {
                write_value(&mut fs.values, v, self.layout.widths[fi]);
            }
            if let Some(u) = usage.as_deref_mut() {
                for &c in &fs.codes[start..] {
                    u.record(fi, c);
                }
            }
        }
    }
}

/// Translates a bank-level replay error (in miss-value units) into the
/// container-level message (in bytes), folding in any partial trailing
/// value the byte stream carried.
fn map_replay(
    fi: usize,
    replayed: Result<(), ReplayError>,
    leftover_bytes: usize,
    width: usize,
) -> Result<(), Error> {
    match replayed {
        Ok(()) if leftover_bytes == 0 => Ok(()),
        Ok(()) => Err(Error::Corrupt(format!(
            "field {fi}: {leftover_bytes} trailing bytes in the value stream"
        ))),
        Err(ReplayError::CodeOutOfRange { record, code }) => Err(Error::Corrupt(format!(
            "field {fi}: predictor code {code} out of range at record {record}"
        ))),
        Err(ReplayError::MissingValue { record }) => Err(Error::Corrupt(format!(
            "field {fi}: value stream exhausted at record {record}"
        ))),
        Err(ReplayError::TrailingValues { left }) => Err(Error::Corrupt(format!(
            "field {fi}: {} trailing bytes in the value stream",
            left * width + leftover_bytes
        ))),
    }
}

/// The replay stage: reconstructs records from decoded code and value
/// streams, carrying predictor state across blocks. The block decoder
/// ([`crate::codec`]) drives it for every decode entry point.
pub(crate) struct Replayer {
    banks: Vec<FieldBank>,
    layout: Layout,
    /// Reusable decoded-value columns, one per field.
    cols: Vec<Vec<u64>>,
    miss_buf: Vec<u64>,
    record: Vec<u8>,
}

impl Replayer {
    /// `options` must already carry the container's semantic flags (see
    /// [`EngineOptions::with_flags`]).
    pub(crate) fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        let layout = Layout::new(spec, options);
        Self {
            banks: banks(spec, options),
            record: vec![0u8; layout.record_len],
            cols: vec![Vec::new(); layout.n_fields()],
            layout,
            miss_buf: Vec::new(),
        }
    }

    /// The decoded byte width of each field's miss values — the bound on
    /// a value segment's size for a block of known record count.
    pub(crate) fn widths(&self) -> &[usize] {
        &self.layout.widths
    }

    /// Restores every field bank from a checkpoint payload written by
    /// [`Modeler::snapshot_payload`], placing this replayer exactly at
    /// the predictor state the owning checkpoint captured.
    pub(crate) fn restore_banks(&mut self, payload: &[u8]) -> Result<(), Error> {
        let mut pos = 0usize;
        for (fi, bank) in self.banks.iter_mut().enumerate() {
            let len_bytes = payload.get(pos..pos + 4).ok_or(Error::Truncated)?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
            pos += 4;
            let snap = payload.get(pos..pos + len).ok_or(Error::Truncated)?;
            pos += len;
            bank.restore(snap)
                .map_err(|e| Error::Corrupt(format!("checkpoint: field {fi}: {e}")))?;
        }
        if pos != payload.len() {
            return Err(Error::Corrupt("checkpoint: trailing snapshot bytes".into()));
        }
        Ok(())
    }

    /// Upper bound on a checkpoint payload's decoded size under this
    /// configuration: even with every table line touched, a sparse
    /// snapshot is at most the bank's table-state footprint plus its
    /// occupancy bitmaps (under an eighth of the footprint), per-field
    /// framing, and header bytes.
    pub(crate) fn snapshot_limit(&self) -> usize {
        self.banks
            .iter()
            .map(|b| {
                let bytes = b.memory_bytes();
                bytes + bytes / 4 + 64
            })
            .sum()
    }

    /// Replays one block, appending reconstructed records to `out`.
    ///
    /// Verifies that every code stream holds exactly `n_records` codes
    /// *before* sizing any column, that no value stream runs dry, and —
    /// trailing-garbage hardening — that every value stream is consumed
    /// exactly to its end.
    pub(crate) fn replay_block(
        &mut self,
        n_records: usize,
        codes: &[Vec<u8>],
        values: &[Vec<u8>],
        out: &mut Vec<u8>,
    ) -> Result<(), Error> {
        for (fi, c) in codes.iter().enumerate() {
            if c.len() != n_records {
                return Err(Error::Corrupt(format!(
                    "field {fi}: {} codes for {n_records} records",
                    c.len()
                )));
            }
        }
        let Self { banks, layout, cols, miss_buf, record } = self;
        let pc = layout.pc_index;
        let mut replay = |fi: usize, pcs: Option<&[u64]>, col: &mut Vec<u64>| {
            let (values, width) = (&values[fi], layout.widths[fi]);
            let whole = values.len() / width * width;
            miss_buf.clear();
            for raw in values[..whole].chunks_exact(width) {
                miss_buf.push(read_value(raw, width));
            }
            col.clear();
            let replayed = banks[fi].replay_column(pcs, &codes[fi], miss_buf, col);
            map_replay(fi, replayed, values.len() - whole, width)
        };
        // The PC column gates every other field's table lines, so it is
        // replayed first; the other fields follow in field order, and the
        // first error stops the block.
        let mut pc_col = std::mem::take(&mut cols[pc]);
        let replayed = replay(pc, None, &mut pc_col).and_then(|()| {
            let mut others = (0..cols.len()).filter(|&fi| fi != pc);
            others.try_for_each(|fi| replay(fi, Some(&pc_col), &mut cols[fi]))
        });
        cols[pc] = pc_col;
        replayed?;

        // Transpose back into records.
        out.reserve(n_records * layout.record_len);
        for rec in 0..n_records {
            for (fi, col) in cols.iter().enumerate() {
                let (off, width) = (layout.offsets[fi], layout.field_bytes[fi]);
                record[off..off + width].copy_from_slice(&col[rec].to_le_bytes()[..width]);
            }
            out.extend_from_slice(record);
        }
        Ok(())
    }
}
