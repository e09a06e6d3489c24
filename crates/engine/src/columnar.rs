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
//!
//! ## Table sets outlive the call
//!
//! Every call and every span starts from the state `FieldBank::new`
//! builds, but it need not build it: TCGEN_A's tables take about 20 MB,
//! and allocating and zeroing them cost more than modeling a small trace
//! (the paper's generated compressor keeps its tables in `static` arrays
//! for the same reason). Each thread therefore keeps the last bank set
//! its [`Modeler`] or [`Replayer`] finished with, tagged with the fields
//! and predictor options it was built for. The next modeler or replayer
//! on that thread whose tag matches takes the set and resets it with
//! `FieldBank::reset`, which clears only the lines the occupancy maps
//! mark; any other tag frees the parked set and builds a new one. A span
//! start resets the set in place. A thread holds at most one idle set,
//! never shares it, and frees it when it exits or calls
//! [`drop_idle_tables`]. Set-up runs under a `tables.setup` driver span
//! and counts into `tables.built` or `tables.reused` on the call's
//! recorder; a seek, which opens no driver spans, reports neither.

use std::cell::RefCell;

use tcgen_predictors::{FieldBank, PredictorOptions, ReplayError};
use tcgen_spec::{FieldSpec, TraceSpec};
use tcgen_telemetry::{driver_span, Recorder, SpanGuard};

use crate::options::EngineOptions;
use crate::streams::{field_offsets, read_value, write_value, BlockStreams};
use crate::usage::UsageReport;
use crate::Error;

/// Records per modeling chunk: small enough that every column (8 bytes
/// per record) stays cache-friendly.
pub(crate) const COLUMN_CHUNK_RECORDS: usize = 1 << 16;

/// An idle bank set and the fields and options it was built for.
struct Parked {
    fields: Vec<FieldSpec>,
    predictor: PredictorOptions,
    banks: Vec<FieldBank>,
}

thread_local! {
    /// The bank set this thread's last modeler or replayer finished
    /// with, not yet reset.
    static PARKED: RefCell<Option<Parked>> = const { RefCell::new(None) };
}

/// Frees the bank set the calling thread keeps idle between calls, if
/// any. A thread that makes no further engine call, such as a per-job
/// worker, calls this to return the memory at once instead of when it
/// exits.
pub fn drop_idle_tables() {
    let _ = PARKED.try_with(|slot| slot.borrow_mut().take());
}

/// Starts a `tables.setup` span and counts one set `tables.built` or
/// `tables.reused`.
fn setup_probe<'a>(tel: Option<&'a Recorder>, counter: &'static str) -> Option<SpanGuard<'a>> {
    let span = driver_span(tel, "tables.setup");
    if let Some(rec) = tel {
        rec.counter(counter).add(1);
    }
    span
}

/// Resets `banks` in place to the state `FieldBank::new` builds.
fn reset_banks(banks: &mut [FieldBank], tel: Option<&Recorder>) {
    let _s = setup_probe(tel, "tables.reused");
    banks.iter_mut().for_each(FieldBank::reset);
}

/// Per-record layout shared by the modeler and the replayer.
struct Layout {
    offsets: Vec<usize>,
    field_bytes: Vec<usize>,
    /// Encoded byte width of each field's miss values.
    widths: Vec<usize>,
    pc_index: usize,
    record_len: usize,
    /// What the bank set is built from, and the tag it is parked under.
    fields: Vec<FieldSpec>,
    predictor: PredictorOptions,
}

impl Layout {
    fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        Self {
            fields: spec.fields.clone(),
            predictor: options.predictor,
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

    /// A fresh bank set, one bank per field: the thread's parked set,
    /// reset, when its tag matches this layout, else a new one. A parked
    /// set that does not match is freed before the new one is built, so
    /// a call never allocates a set beside an idle one.
    fn take_banks(&self, tel: Option<&Recorder>) -> Vec<FieldBank> {
        let parked = PARKED.try_with(|slot| slot.borrow_mut().take()).ok().flatten();
        match parked {
            Some(mut p) if p.fields == self.fields && p.predictor == self.predictor => {
                reset_banks(&mut p.banks, tel);
                p.banks
            }
            other => {
                drop(other);
                let _s = setup_probe(tel, "tables.built");
                self.fields.iter().map(|f| FieldBank::new(f, self.predictor)).collect()
            }
        }
    }

    /// Parks `banks`, dirty, as the thread's idle set in place of any
    /// parked before; the next taker resets it. Nothing is parked while
    /// the thread unwinds or exits.
    fn park(&mut self, banks: Vec<FieldBank>) {
        if banks.is_empty() || std::thread::panicking() {
            return;
        }
        let fields = std::mem::take(&mut self.fields);
        let parked = Parked { fields, predictor: self.predictor, banks };
        let _ = PARKED.try_with(|slot| *slot.borrow_mut() = Some(parked));
    }
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
    /// A modeler starting from fresh banks (see the module docs).
    pub(crate) fn new(
        spec: &TraceSpec,
        options: &EngineOptions,
        tel: Option<&Recorder>,
    ) -> Self {
        let layout = Layout::new(spec, options);
        Self {
            banks: layout.take_banks(tel),
            cols: vec![Vec::new(); layout.n_fields()],
            layout,
            miss_buf: Vec::new(),
        }
    }

    /// Copies each bank's value-table footprint and table occupancy into
    /// `usage`, keeping each table's largest `lines_written` across the
    /// spans recorded so far: the working set one span needs. The
    /// footprint reflects the element widths actually selected; the
    /// occupancy reflects the lines written so far, so this runs after
    /// modeling.
    pub(crate) fn record_table_stats(&self, usage: &mut UsageReport) {
        for (field, bank) in usage.fields.iter_mut().zip(&self.banks) {
            field.table_bytes = bank.table_bytes() as u64;
            let mut occupancy = bank.occupancy();
            for (table, earlier) in occupancy.iter_mut().zip(&field.occupancy) {
                table.lines_written = table.lines_written.max(earlier.lines_written);
            }
            field.occupancy = occupancy;
        }
    }

    /// Starts a span: every bank is reset to fresh state in place, after
    /// its table occupancy is folded into `usage`.
    pub(crate) fn start_span(
        &mut self,
        usage: &mut Option<&mut UsageReport>,
        tel: Option<&Recorder>,
    ) {
        if let Some(u) = usage.as_deref_mut() {
            self.record_table_stats(u);
        }
        reset_banks(&mut self.banks, tel);
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

impl Drop for Modeler {
    fn drop(&mut self) {
        self.layout.park(std::mem::take(&mut self.banks));
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
/// streams, carrying predictor state across the blocks of a span. The
/// block decoder ([`crate::codec`]) drives it for every decode entry
/// point.
pub(crate) struct Replayer {
    /// Empty until the first block replays.
    banks: Vec<FieldBank>,
    layout: Layout,
    /// Reusable decoded-value columns, one per field.
    cols: Vec<Vec<u64>>,
    miss_buf: Vec<u64>,
    record: Vec<u8>,
}

impl Replayer {
    /// `options` must already carry the container's semantic flags (see
    /// [`EngineOptions::with_flags`]); the bank set is keyed by them.
    pub(crate) fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        let layout = Layout::new(spec, options);
        Self {
            banks: Vec::new(),
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

    /// Starts a span: the next block replays from fresh banks. A set is
    /// taken fresh at the first block, and every span holds a block, so
    /// a set taken already has replayed since it was fresh. `tel`, as
    /// for [`Self::replay_block`], reports a reset.
    pub(crate) fn start_span(&mut self, tel: Option<&Recorder>) {
        if !self.banks.is_empty() {
            reset_banks(&mut self.banks, tel);
        }
    }

    /// Replays one block, appending reconstructed records to `out`.
    ///
    /// Verifies that every code stream holds exactly `n_records` codes
    /// *before* sizing any column, that no value stream runs dry, and —
    /// trailing-garbage hardening — that every value stream is consumed
    /// exactly to its end. `tel`, when given, reports taking the bank set
    /// at the first block.
    pub(crate) fn replay_block(
        &mut self,
        n_records: usize,
        codes: &[Vec<u8>],
        values: &[Vec<u8>],
        out: &mut Vec<u8>,
        tel: Option<&Recorder>,
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
        if banks.is_empty() {
            *banks = layout.take_banks(tel);
        }
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

impl Drop for Replayer {
    fn drop(&mut self) {
        self.layout.park(std::mem::take(&mut self.banks));
    }
}
