//! The columnar modeling and replay stage.
//!
//! Records are transposed into per-field `u64` columns (plus the PC
//! column, which is the PC field's own column), and each field's column
//! is modeled or replayed in one batch call
//! ([`tcgen_predictors::FieldBank::model_column`] /
//! [`tcgen_predictors::FieldBank::replay_column`]). Each bank is an
//! enum over width-specialized `TypedBank<u8|u16|u32|u64>` instances,
//! so the one dispatch per column job lands in a kernel fully
//! monomorphized for the field's table-element width. A `FieldBank`'s
//! state depends only on its own value history and the PC column — never
//! on another field's tables — so the per-field jobs are independent and
//! can run on the ordered worker pool ([`crate::pool`]) under
//! [`crate::EngineOptions::model_threads`]. Jobs are submitted and
//! collected in field order, so the streams, the usage counters, and the
//! first error reported are identical for every thread count: the knob
//! is speed-only and the container stays byte-identical.
//!
//! Compression transposes and models [`COLUMN_CHUNK_RECORDS`] records at
//! a time, which bounds the columns' memory, keeps them cache-resident,
//! and amortizes the per-chunk fan-out barrier. Replay works a whole
//! block at a time: the PC column must be fully decoded before the other
//! fields can resolve their table lines, and the block's code and value
//! streams are already in memory anyway.

use std::sync::Arc;

use tcgen_predictors::{FieldBank, ReplayError};
use tcgen_spec::TraceSpec;
use tcgen_telemetry::Recorder;

use crate::options::EngineOptions;
use crate::pool::{Pipeline, PoolTelemetry};
use crate::streams::{field_offsets, read_value, write_value, BlockStreams};
use crate::usage::UsageReport;
use crate::Error;

/// Records per modeling chunk: large enough to amortize the per-chunk
/// fan-out barrier, small enough that every column (8 bytes per record)
/// stays cache-friendly.
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

fn banks(spec: &TraceSpec, options: &EngineOptions) -> Vec<Option<FieldBank>> {
    spec.fields.iter().map(|f| Some(FieldBank::new(f, options.predictor))).collect()
}

fn worker_panicked() -> Error {
    Error::Internal("modeling worker panicked".into())
}

/// One field's share of a modeling chunk. Owns everything the worker
/// touches — the bank, the shared columns, and the field's stream
/// buffers — and travels back to the caller when done.
pub(crate) struct ModelJob {
    fi: usize,
    bank: FieldBank,
    pcs: Arc<Vec<u64>>,
    vals: Arc<Vec<u64>>,
    codes: Vec<u8>,
    values: Vec<u8>,
    miss_buf: Vec<u64>,
    width: usize,
}

impl ModelJob {
    fn run(mut self) -> Self {
        self.miss_buf.clear();
        self.bank.model_column(&self.pcs, &self.vals, &mut self.codes, &mut self.miss_buf);
        for &v in &self.miss_buf {
            write_value(&mut self.values, v, self.width);
        }
        self
    }
}

pub(crate) type ModelPipe = Pipeline<'static, ModelJob, ModelJob>;

/// The modeling stage: feeds records through the predictor banks and
/// appends predictor codes and miss values to the current block's
/// streams. Shared by the block writer ([`crate::codec`]) and
/// [`crate::codec::raw_streams`] so the two can never drift apart.
pub(crate) struct Modeler {
    banks: Vec<Option<FieldBank>>,
    layout: Layout,
    /// Reusable per-field columns; the `Arc`s are only cloned for the
    /// duration of one chunk's jobs, so `Arc::get_mut` reclaims them.
    cols: Vec<Option<Arc<Vec<u64>>>>,
    miss_bufs: Vec<Vec<u64>>,
}

impl Modeler {
    pub(crate) fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        let layout = Layout::new(spec, options);
        let n = layout.n_fields();
        Self {
            banks: banks(spec, options),
            layout,
            cols: (0..n).map(|_| Some(Arc::new(Vec::new()))).collect(),
            miss_bufs: vec![Vec::new(); n],
        }
    }

    /// Starts the model-thread pipeline on the shared pool; with a
    /// recorder, each worker traces its per-field jobs as `model.field`
    /// spans.
    pub(crate) fn pipe(model_threads: usize, tel: Option<&Recorder>) -> ModelPipe {
        Pipeline::start_instrumented(
            model_threads,
            PoolTelemetry::from(tel, "model", "model.field"),
            || ModelJob::run,
        )
    }

    /// Copies each bank's value-table footprint and table occupancy into
    /// `usage`. The footprint reflects the element widths actually
    /// selected; the occupancy reflects the lines written so far, so
    /// this runs after modeling.
    pub(crate) fn record_table_stats(&self, usage: &mut UsageReport) {
        for (field, bank) in usage.fields.iter_mut().zip(&self.banks) {
            let bank = bank.as_ref().expect("bank present");
            field.table_bytes = bank.table_bytes() as u64;
            field.occupancy = bank.occupancy();
        }
    }

    /// Serializes every field bank's current state as a checkpoint
    /// payload: per field in declaration order, a `u32` length and the
    /// bank's versioned snapshot. Must be called between chunks, when
    /// every bank is back home from its column job.
    pub(crate) fn snapshot_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for bank in &self.banks {
            let snap = bank.as_ref().expect("bank present").snapshot();
            out.extend_from_slice(&(snap.len() as u32).to_le_bytes());
            out.extend_from_slice(&snap);
        }
        out
    }

    /// Models `chunk` (whole records) into `streams`, incrementing its
    /// record count. Internally works [`COLUMN_CHUNK_RECORDS`] records at
    /// a time; passing `None` for `pipe` runs the field jobs inline.
    pub(crate) fn model_chunk(
        &mut self,
        chunk: &[u8],
        streams: &mut BlockStreams,
        usage: &mut Option<&mut UsageReport>,
        pipe: Option<&ModelPipe>,
    ) -> Result<(), Error> {
        debug_assert!(chunk.len().is_multiple_of(self.layout.record_len));
        for sub in chunk.chunks(self.layout.record_len * COLUMN_CHUNK_RECORDS) {
            self.model_columns(sub, streams, usage, pipe)?;
        }
        streams.records += chunk.len() / self.layout.record_len;
        Ok(())
    }

    fn model_columns(
        &mut self,
        sub: &[u8],
        streams: &mut BlockStreams,
        usage: &mut Option<&mut UsageReport>,
        pipe: Option<&ModelPipe>,
    ) -> Result<(), Error> {
        let n_fields = self.layout.n_fields();
        let n = sub.len() / self.layout.record_len;
        // Transpose: one strided read pass over the records per field,
        // one sequential column written per pass.
        for fi in 0..n_fields {
            let col = Arc::get_mut(self.cols[fi].as_mut().expect("column present"))
                .expect("no column clones outlive a chunk");
            col.clear();
            col.reserve(n);
            let off = self.layout.offsets[fi];
            let w = self.layout.field_bytes[fi];
            for rec in sub.chunks_exact(self.layout.record_len) {
                col.push(read_value(&rec[off..], w));
            }
        }
        let pc_col = Arc::clone(self.cols[self.layout.pc_index].as_ref().expect("pc column"));
        let starts: Vec<usize> = streams.fields.iter().map(|f| f.codes.len()).collect();
        let jobs: Vec<ModelJob> = (0..n_fields)
            .map(|fi| ModelJob {
                fi,
                bank: self.banks[fi].take().expect("bank present"),
                pcs: Arc::clone(&pc_col),
                vals: Arc::clone(self.cols[fi].as_ref().expect("column present")),
                codes: std::mem::take(&mut streams.fields[fi].codes),
                values: std::mem::take(&mut streams.fields[fi].values),
                miss_buf: std::mem::take(&mut self.miss_bufs[fi]),
                width: self.layout.widths[fi],
            })
            .collect();
        // Absorb in field order whether the jobs ran on the pool or
        // inline — identical streams, usage, and errors either way.
        let mut absorb = |job: ModelJob| {
            let ModelJob { fi, bank, codes, values, miss_buf, .. } = job;
            self.banks[fi] = Some(bank);
            self.miss_bufs[fi] = miss_buf;
            streams.fields[fi].codes = codes;
            streams.fields[fi].values = values;
            if let Some(u) = usage.as_deref_mut() {
                for &c in &streams.fields[fi].codes[starts[fi]..] {
                    u.record(fi, c);
                }
            }
        };
        match pipe {
            Some(pipe) => {
                for job in jobs {
                    pipe.submit(job);
                }
                for _ in 0..n_fields {
                    absorb(pipe.next().map_err(|_| worker_panicked())?);
                }
            }
            None => {
                for job in jobs {
                    absorb(job.run());
                }
            }
        }
        Ok(())
    }
}

/// One field's share of a block replay: decodes the miss values, replays
/// the column, and reports the first stream defect.
pub(crate) struct ReplayJob {
    fi: usize,
    bank: FieldBank,
    pcs: Arc<Vec<u64>>,
    codes: Vec<u8>,
    values: Vec<u8>,
    width: usize,
    miss_buf: Vec<u64>,
    col: Vec<u64>,
    result: Result<(), Error>,
}

impl ReplayJob {
    fn run(mut self) -> Self {
        self.miss_buf.clear();
        self.col.clear();
        let whole = self.values.len() / self.width * self.width;
        for raw in self.values[..whole].chunks_exact(self.width) {
            self.miss_buf.push(read_value(raw, self.width));
        }
        let replayed = self.bank.replay_column(
            Some(&self.pcs),
            &self.codes,
            &self.miss_buf,
            &mut self.col,
        );
        self.result = map_replay(self.fi, replayed, self.values.len() - whole, self.width);
        self
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

pub(crate) type ReplayPipe = Pipeline<'static, ReplayJob, ReplayJob>;

/// The replay stage: reconstructs records from decoded code and value
/// streams, carrying predictor state across blocks. The block decoder
/// ([`crate::codec`]) drives it for every decode entry point.
pub(crate) struct Replayer {
    banks: Vec<Option<FieldBank>>,
    layout: Layout,
    /// Reusable decoded-value columns; `cols[pc_index]` is unused (the
    /// PC column lives in `pc_col`).
    cols: Vec<Vec<u64>>,
    pc_col: Option<Arc<Vec<u64>>>,
    miss_bufs: Vec<Vec<u64>>,
    record: Vec<u8>,
}

impl Replayer {
    /// `options` must already carry the container's semantic flags (see
    /// [`EngineOptions::with_flags`]).
    pub(crate) fn new(spec: &TraceSpec, options: &EngineOptions) -> Self {
        let layout = Layout::new(spec, options);
        let n = layout.n_fields();
        Self {
            banks: banks(spec, options),
            record: vec![0u8; layout.record_len],
            layout,
            cols: vec![Vec::new(); n],
            pc_col: Some(Arc::new(Vec::new())),
            miss_bufs: vec![Vec::new(); n],
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
            bank.as_mut()
                .expect("bank present")
                .restore(snap)
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
                let bytes = b.as_ref().expect("bank present").memory_bytes();
                bytes + bytes / 4 + 64
            })
            .sum()
    }

    /// Starts the replay pipeline on the shared pool; with a recorder,
    /// each worker traces its per-field jobs as `replay.field` spans.
    pub(crate) fn pipe(model_threads: usize, tel: Option<&Recorder>) -> ReplayPipe {
        Pipeline::start_instrumented(
            model_threads,
            PoolTelemetry::from(tel, "replay", "replay.field"),
            || ReplayJob::run,
        )
    }

    /// Replays one block, appending reconstructed records to `out`. The
    /// code and value stream buffers are taken (left empty) so the field
    /// jobs can own them.
    ///
    /// Verifies that every code stream holds exactly `n_records` codes
    /// *before* sizing any column, that no value stream runs dry, and —
    /// trailing-garbage hardening — that every value stream is consumed
    /// exactly to its end.
    pub(crate) fn replay_block(
        &mut self,
        n_records: usize,
        codes: &mut [Vec<u8>],
        values: &mut [Vec<u8>],
        out: &mut Vec<u8>,
        pipe: Option<&ReplayPipe>,
    ) -> Result<(), Error> {
        for (fi, c) in codes.iter().enumerate() {
            if c.len() != n_records {
                return Err(Error::Corrupt(format!(
                    "field {fi}: {} codes for {n_records} records",
                    c.len()
                )));
            }
        }
        let n_fields = self.layout.n_fields();
        let pc = self.layout.pc_index;

        // The PC column gates every other field's table lines, so it is
        // replayed first, on the calling thread.
        let pc_col = Arc::get_mut(self.pc_col.as_mut().expect("pc column present"))
            .expect("no pc column clones outlive a block");
        pc_col.clear();
        let pc_width = self.layout.widths[pc];
        let pc_values = std::mem::take(&mut values[pc]);
        let whole = pc_values.len() / pc_width * pc_width;
        let miss_buf = &mut self.miss_bufs[pc];
        miss_buf.clear();
        for raw in pc_values[..whole].chunks_exact(pc_width) {
            miss_buf.push(read_value(raw, pc_width));
        }
        let bank = self.banks[pc].as_mut().expect("bank present");
        let replayed = bank.replay_column(None, &codes[pc], miss_buf, pc_col);
        map_replay(pc, replayed, pc_values.len() - whole, pc_width)?;
        let pc_col = Arc::clone(self.pc_col.as_ref().expect("pc column present"));

        // Fan the remaining fields out; absorb and error-check in field
        // order so the outcome is thread-count independent.
        let jobs: Vec<ReplayJob> = (0..n_fields)
            .filter(|&fi| fi != pc)
            .map(|fi| ReplayJob {
                fi,
                bank: self.banks[fi].take().expect("bank present"),
                pcs: Arc::clone(&pc_col),
                codes: std::mem::take(&mut codes[fi]),
                values: std::mem::take(&mut values[fi]),
                width: self.layout.widths[fi],
                miss_buf: std::mem::take(&mut self.miss_bufs[fi]),
                col: std::mem::take(&mut self.cols[fi]),
                result: Ok(()),
            })
            .collect();
        let mut first_err: Result<(), Error> = Ok(());
        let mut absorb = |job: ReplayJob| {
            let ReplayJob { fi, bank, miss_buf, col, result, .. } = job;
            self.banks[fi] = Some(bank);
            self.miss_bufs[fi] = miss_buf;
            self.cols[fi] = col;
            if first_err.is_ok() {
                first_err = result;
            }
        };
        match pipe {
            Some(pipe) => {
                let submitted = jobs.len();
                for job in jobs {
                    pipe.submit(job);
                }
                for _ in 0..submitted {
                    absorb(pipe.next().map_err(|_| worker_panicked())?);
                }
            }
            None => {
                for job in jobs {
                    absorb(job.run());
                }
            }
        }
        drop(pc_col);
        first_err?;

        // Transpose back into records.
        out.reserve(n_records * self.layout.record_len);
        for rec in 0..n_records {
            for fi in 0..n_fields {
                let value = if fi == pc {
                    self.pc_col.as_ref().expect("pc column present")[rec]
                } else {
                    self.cols[fi][rec]
                };
                let (off, width) = (self.layout.offsets[fi], self.layout.field_bytes[fi]);
                self.record[off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
            out.extend_from_slice(&self.record);
        }
        Ok(())
    }
}
