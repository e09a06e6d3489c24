//! Per-field predictor banks: the composition of LV, FCM, and DFCM
//! predictors a specification attaches to one field, with TCgen's table
//! sharing, renamed predictor codes, and ablation switches.
//!
//! Storage is width-specialized (paper §4): [`FieldBank`] is an enum over
//! [`TypedBank`] instantiations whose element type is the narrowest
//! unsigned integer covering the field's declared bit width, picked once
//! at construction. Every hot loop (`TypedBank::model_column`,
//! `TypedBank::replay_column`) is monomorphized over that element, so
//! the inner loops run without per-value widening or double masking; the
//! enum is dispatched once per column job, not per record. See
//! [`crate::element`] for the masking argument that makes the narrowing
//! invisible in the emitted streams.

use tcgen_spec::{FieldSpec, PredictorKind, TraceSpec};

use crate::element::{width_mask, TableElement};
use crate::fcm::ContextBank;
use crate::occupancy::{OccTable, Occupancy, TableOccupancy};
use crate::policy::UpdatePolicy;
use crate::stride::StrideTable;
use crate::table::ValueTable;

/// Tunables corresponding to the paper's Table 2 ablation rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorOptions {
    /// Update policy (`Smart` = TCgen, `Always` = VPC3 / "no smart update").
    pub policy: UpdatePolicy,
    /// Incremental hash computation ("no fast hash function" when false).
    pub fast_hash: bool,
    /// Share last-value tables and first-level histories ("no shared
    /// tables" when false). Sharing never changes predictions, only
    /// speed and memory.
    pub shared_tables: bool,
    /// Adapt the hash shift to field width and table size (a §5.3
    /// enhancement over VPC3).
    pub adaptive_shift: bool,
    /// Store table elements with the narrowest unsigned type covering the
    /// field width (paper §4, minimal element types). Speed and memory
    /// only — the emitted streams are byte-identical either way — so it
    /// is not part of the container flags.
    pub minimal_elements: bool,
}

impl Default for PredictorOptions {
    fn default() -> Self {
        Self {
            policy: UpdatePolicy::Smart,
            fast_hash: true,
            shared_tables: true,
            adaptive_shift: true,
            minimal_elements: true,
        }
    }
}

/// Where one prediction slot reads its value from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `take` entries of last-value table `table`.
    Lv { table: usize, take: usize },
    /// All entries of second-level table `table` of FCM bank `bank`.
    Fcm { bank: usize, table: usize },
    /// All entries of DFCM bank `bank`'s table `table`, each added to the
    /// most recent value from last-value table `lv_table`.
    Dfcm { bank: usize, table: usize, lv_table: usize },
    /// `take` multiples of stride table `table`'s confirmed stride, each
    /// added to the most recent value from last-value table `lv_table`.
    St { table: usize, take: usize, lv_table: usize },
}

/// Records per two-pass modeling sub-batch: long enough to keep many
/// independent table-line fetches in flight, short enough that every
/// prefetched line survives in L2 until pass B probes it.
const PLAN_SUB: usize = 1024;

/// Hash-indexed table footprint below which modeling stays one-pass:
/// tables that fit comfortably in L2 serve their probes from cache
/// anyway, so resolving and prefetching indices ahead of time would be
/// pure overhead.
const PLAN_MIN_HASHED_BYTES: usize = 1 << 20;

/// A corrupt code or value stream detected by [`FieldBank::replay_column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// A predictor code beyond the miss code.
    CodeOutOfRange {
        /// Record index within the column.
        record: usize,
        /// The offending code.
        code: u8,
    },
    /// The miss-value stream ran dry before the last miss code.
    MissingValue {
        /// Record index within the column.
        record: usize,
    },
    /// Miss values were left unconsumed after the last record.
    TrailingValues {
        /// Number of unconsumed miss values.
        left: usize,
    },
}

/// All predictor state for one field, stored as element type `E`.
///
/// Obtained through [`FieldBank::new`], which picks `E`; the methods here
/// are the monomorphized kernels the enum dispatches into.
#[derive(Debug)]
pub struct TypedBank<E: TableElement> {
    /// The field mask within the element domain.
    mask: E,
    /// The same mask in the `u64` value domain (for the boundary API).
    mask_u64: u64,
    l1_mask: u64,
    lv_tables: Vec<ValueTable<E>>,
    fcm_banks: Vec<ContextBank<E>>,
    dfcm_banks: Vec<ContextBank<E>>,
    stride_tables: Vec<StrideTable<E>>,
    /// (bank, lv_table) pairs that need a stride on update.
    dfcm_updates: Vec<(usize, usize)>,
    /// (stride table, lv_table) pairs updated with the observed stride.
    st_updates: Vec<(usize, usize)>,
    sources: Vec<Source>,
    /// Predictor code -> (source index, offset within the source); lets
    /// replay jump straight to a slot without walking the source list.
    slots: Vec<(u32, u32)>,
    n_predictions: u32,
    policy: UpdatePolicy,
    /// First-level lines ever touched (shared by every L1-indexed table).
    l1_occ: Occupancy,
    /// Two-pass modeling scratch ([`Self::model_column`]): the current
    /// sub-batch's table indices, flattened record-major.
    plan_idx: Vec<u32>,
    /// Pass-A per-line last-value tracking (mirrors what the last-value
    /// tables will hold when pass B catches up); lazily revalidated per
    /// column via `plan_stamp`/`plan_gen`. Empty when no DFCM needs it.
    plan_last: Vec<E>,
    plan_stamp: Vec<u32>,
    plan_gen: u32,
    /// Whether [`Self::model_column`] runs the two-pass planned schedule
    /// (hash-indexed tables larger than [`PLAN_MIN_HASHED_BYTES`]).
    plan: bool,
}

impl<E: TableElement> TypedBank<E> {
    /// Builds the predictor state for `field` under `options`.
    ///
    /// # Panics
    ///
    /// Panics if `field` is invalid (no predictors, bad sizes) or wider
    /// than the element; [`FieldBank::new`] never lets either happen.
    fn new(field: &FieldSpec, options: PredictorOptions) -> Self {
        assert!(field.bits <= E::BITS, "field wider than the table element");
        let mask_u64 = if field.bits == 64 { u64::MAX } else { (1u64 << field.bits) - 1 };
        let l1 = field.l1;
        let mut lv_tables = Vec::new();
        let mut fcm_banks = Vec::new();
        let mut dfcm_banks = Vec::new();
        let mut stride_tables = Vec::new();
        let mut dfcm_updates = Vec::new();
        let mut st_updates = Vec::new();
        let mut sources = Vec::new();

        if options.shared_tables {
            // One last-value table sized for the tallest consumer, one
            // context bank per (D)FCM family.
            let lv_entries = field.lv_entries();
            let shared_lv = if lv_entries > 0 {
                lv_tables.push(ValueTable::new(l1 as usize, lv_entries as usize));
                Some(0usize)
            } else {
                None
            };
            let fcm_orders: Vec<(u32, u32)> = field
                .predictors
                .iter()
                .filter(|p| p.kind == PredictorKind::Fcm)
                .map(|p| (p.order, p.height))
                .collect();
            let dfcm_orders: Vec<(u32, u32)> = field
                .predictors
                .iter()
                .filter(|p| p.kind == PredictorKind::Dfcm)
                .map(|p| (p.order, p.height))
                .collect();
            if !fcm_orders.is_empty() {
                fcm_banks.push(ContextBank::new(
                    field.bits,
                    l1,
                    field.l2,
                    &fcm_orders,
                    field.max_fcm_order(),
                    options.adaptive_shift,
                    options.fast_hash,
                ));
            }
            if !dfcm_orders.is_empty() {
                dfcm_banks.push(ContextBank::new(
                    field.bits,
                    l1,
                    field.l2,
                    &dfcm_orders,
                    field.max_dfcm_order(),
                    options.adaptive_shift,
                    options.fast_hash,
                ));
                dfcm_updates.push((0, shared_lv.expect("DFCM implies a last-value table")));
            }
            // All ST predictors of a field share one stride table.
            let shared_st = if field.has_stride_predictor() {
                stride_tables.push(StrideTable::new(l1 as usize));
                let lv = shared_lv.expect("ST implies a last-value table");
                st_updates.push((0, lv));
                Some(0usize)
            } else {
                None
            };
            let mut fcm_i = 0usize;
            let mut dfcm_i = 0usize;
            for p in &field.predictors {
                match p.kind {
                    PredictorKind::Lv => sources.push(Source::Lv {
                        table: shared_lv.expect("LV implies a last-value table"),
                        take: p.height as usize,
                    }),
                    PredictorKind::Fcm => {
                        sources.push(Source::Fcm { bank: 0, table: fcm_i });
                        fcm_i += 1;
                    }
                    PredictorKind::Dfcm => {
                        sources.push(Source::Dfcm {
                            bank: 0,
                            table: dfcm_i,
                            lv_table: shared_lv.expect("DFCM implies a last-value table"),
                        });
                        dfcm_i += 1;
                    }
                    PredictorKind::St => sources.push(Source::St {
                        table: shared_st.expect("ST table allocated above"),
                        take: p.height as usize,
                        lv_table: shared_lv.expect("ST implies a last-value table"),
                    }),
                }
            }
        } else {
            // Ablation: every predictor owns private tables. Predictions
            // are identical; only memory traffic grows.
            for p in &field.predictors {
                match p.kind {
                    PredictorKind::Lv => {
                        lv_tables.push(ValueTable::new(l1 as usize, p.height as usize));
                        sources.push(Source::Lv {
                            table: lv_tables.len() - 1,
                            take: p.height as usize,
                        });
                    }
                    PredictorKind::Fcm => {
                        // The family's maximum order fixes the hash
                        // parameters, so the ablation only duplicates
                        // state without changing any prediction.
                        fcm_banks.push(ContextBank::new(
                            field.bits,
                            l1,
                            field.l2,
                            &[(p.order, p.height)],
                            field.max_fcm_order(),
                            options.adaptive_shift,
                            options.fast_hash,
                        ));
                        sources.push(Source::Fcm { bank: fcm_banks.len() - 1, table: 0 });
                    }
                    PredictorKind::Dfcm => {
                        dfcm_banks.push(ContextBank::new(
                            field.bits,
                            l1,
                            field.l2,
                            &[(p.order, p.height)],
                            field.max_dfcm_order(),
                            options.adaptive_shift,
                            options.fast_hash,
                        ));
                        lv_tables.push(ValueTable::new(l1 as usize, 1));
                        let bank = dfcm_banks.len() - 1;
                        let lv_table = lv_tables.len() - 1;
                        dfcm_updates.push((bank, lv_table));
                        sources.push(Source::Dfcm { bank, table: 0, lv_table });
                    }
                    PredictorKind::St => {
                        stride_tables.push(StrideTable::new(l1 as usize));
                        lv_tables.push(ValueTable::new(l1 as usize, 1));
                        let table = stride_tables.len() - 1;
                        let lv_table = lv_tables.len() - 1;
                        st_updates.push((table, lv_table));
                        sources.push(Source::St { table, take: p.height as usize, lv_table });
                    }
                }
            }
        }

        let hashed_bytes: usize =
            fcm_banks.iter().chain(dfcm_banks.iter()).map(|b| b.memory_bytes()).sum();
        let mut bank = Self {
            mask: width_mask::<E>(field.bits),
            mask_u64,
            l1_mask: l1 - 1,
            lv_tables,
            fcm_banks,
            dfcm_banks,
            stride_tables,
            sources,
            slots: Vec::new(),
            n_predictions: field.prediction_count(),
            policy: options.policy,
            l1_occ: Occupancy::new(l1 as usize),
            plan_idx: Vec::new(),
            plan_last: if dfcm_updates.is_empty() {
                Vec::new()
            } else {
                vec![E::default(); l1 as usize]
            },
            plan_stamp: if dfcm_updates.is_empty() { Vec::new() } else { vec![0; l1 as usize] },
            plan_gen: 0,
            plan: hashed_bytes >= PLAN_MIN_HASHED_BYTES,
            dfcm_updates,
            st_updates,
        };
        bank.slots = bank.build_slots();
        debug_assert_eq!(bank.slots.len(), bank.n_predictions as usize);
        bank
    }

    /// The code -> (source, offset) map; one entry per prediction slot,
    /// in code order.
    fn build_slots(&self) -> Vec<(u32, u32)> {
        let mut slots = Vec::with_capacity(self.n_predictions as usize);
        for (si, source) in self.sources.iter().enumerate() {
            for off in 0..self.source_height(source) {
                slots.push((si as u32, off as u32));
            }
        }
        slots
    }

    #[inline]
    fn line(&self, pc: u64) -> usize {
        (pc & self.l1_mask) as usize
    }

    /// Truncates a `u64`-domain value to the element and masks it to the
    /// field width — the only conversion on the enum boundary.
    #[inline]
    fn narrow(&self, v: u64) -> E {
        E::from_u64(v) & self.mask
    }

    /// The value of one prediction slot, computed lazily.
    #[inline]
    fn slot_value(&self, line: usize, source: &Source, offset: usize) -> E {
        match *source {
            Source::Lv { table, .. } => self.lv_tables[table].line(line)[offset],
            Source::Fcm { bank, table } => self.fcm_banks[bank].value_at(line, table, offset),
            Source::Dfcm { bank, table, lv_table } => {
                let last = self.lv_tables[lv_table].first(line);
                let stride = self.dfcm_banks[bank].value_at(line, table, offset);
                last.wrapping_add(stride) & self.mask
            }
            Source::St { table, lv_table, .. } => {
                let last = self.lv_tables[lv_table].first(line);
                let stride = self.stride_tables[table].confirmed(line);
                last.wrapping_add(stride.wrapping_mul(E::from_u64(offset as u64 + 1)))
                    & self.mask
            }
        }
    }

    /// Number of prediction slots a source contributes.
    #[inline]
    fn source_height(&self, source: &Source) -> usize {
        match *source {
            Source::Lv { take, .. } => take,
            Source::Fcm { bank, table } => self.fcm_banks[bank].table_height(table),
            Source::Dfcm { bank, table, .. } => self.dfcm_banks[bank].table_height(table),
            Source::St { take, .. } => take,
        }
    }

    /// [`FieldBank::find_code`] with the L1 line already resolved and
    /// `value` already masked. One `Source` dispatch per predictor rather
    /// than per slot: each arm searches all of its slots in one go, with
    /// DFCM and ST matches done in stride space — `last + stride ≡ value`
    /// exactly when `stride ≡ value - last` (mod 2^width), and stored
    /// strides are always masked — so no prediction list is materialized.
    #[inline]
    fn find_code_in_line(&self, line: usize, value: E) -> u8 {
        let mut code = 0u8;
        for source in &self.sources {
            match *source {
                Source::Lv { table, take } => {
                    let slots = &self.lv_tables[table].line(line)[..take];
                    if let Some(k) = slots.iter().position(|&v| v == value) {
                        return code + k as u8;
                    }
                    code += take as u8;
                }
                Source::Fcm { bank, table } => {
                    let fcm = &self.fcm_banks[bank];
                    if let Some(k) = fcm.find_value(line, table, value) {
                        return code + k as u8;
                    }
                    code += fcm.table_height(table) as u8;
                }
                Source::Dfcm { bank, table, lv_table } => {
                    let last = self.lv_tables[lv_table].first(line);
                    let target = value.wrapping_sub(last) & self.mask;
                    let dfcm = &self.dfcm_banks[bank];
                    if let Some(k) = dfcm.find_value(line, table, target) {
                        return code + k as u8;
                    }
                    code += dfcm.table_height(table) as u8;
                }
                Source::St { table, take, lv_table } => {
                    let stride = self.stride_tables[table].confirmed(line);
                    let mut pred = self.lv_tables[lv_table].first(line);
                    for k in 0..take {
                        pred = pred.wrapping_add(stride) & self.mask;
                        if pred == value {
                            return code + k as u8;
                        }
                    }
                    code += take as u8;
                }
            }
        }
        code
    }

    /// The predicted value for `code`, or `None` for the miss code.
    fn value_for_code(&self, pc: u64, code: u8) -> Option<u64> {
        if u32::from(code) >= self.n_predictions {
            return None;
        }
        let line = self.line(pc);
        let mut remaining = usize::from(code);
        for source in &self.sources {
            let height = self.source_height(source);
            if remaining < height {
                return Some(self.slot_value(line, source, remaining).to_u64());
            }
            remaining -= height;
        }
        unreachable!("code < n_predictions always lands in a source")
    }

    /// Appends all predictions for the record whose PC is `pc` to `out`,
    /// in predictor-code order, widened to the `u64` value domain.
    fn predict_into(&self, pc: u64, out: &mut Vec<u64>) {
        let line = self.line(pc);
        for source in &self.sources {
            match *source {
                Source::Lv { table, take } => {
                    out.extend(
                        self.lv_tables[table].line(line)[..take].iter().map(|v| v.to_u64()),
                    );
                }
                Source::Fcm { bank, table } => {
                    self.fcm_banks[bank].predict_into(line, table, out);
                }
                Source::Dfcm { bank, table, lv_table } => {
                    let last = self.lv_tables[lv_table].first(line);
                    let before = out.len();
                    self.dfcm_banks[bank].predict_into(line, table, out);
                    for v in &mut out[before..] {
                        *v = (last.wrapping_add(E::from_u64(*v)) & self.mask).to_u64();
                    }
                }
                Source::St { table, take, lv_table } => {
                    let stride = self.stride_tables[table].confirmed(line);
                    let mut pred = self.lv_tables[lv_table].first(line);
                    for _ in 0..take {
                        pred = pred.wrapping_add(stride) & self.mask;
                        out.push(pred.to_u64());
                    }
                }
            }
        }
    }

    /// [`FieldBank::update`] with the line resolved and the value masked.
    ///
    /// Marks `line` before any table is written: every last-value,
    /// stride and first-level hash write of the update lands on that
    /// line, and every second-level write on a line the context bank
    /// marks in its own map, which is what lets [`Self::reset`] clear
    /// only marked lines.
    #[inline]
    fn update_line(&mut self, line: usize, value: E) {
        self.l1_occ.mark(line);
        for bank in &mut self.fcm_banks {
            bank.update(line, value, self.policy);
        }
        // Strides use the pre-update last values.
        for &(bank, lv_table) in &self.dfcm_updates {
            let last = self.lv_tables[lv_table].first(line);
            let stride = value.wrapping_sub(last) & self.mask;
            self.dfcm_banks[bank].update(line, stride, self.policy);
        }
        for &(table, lv_table) in &self.st_updates {
            let last = self.lv_tables[lv_table].first(line);
            let stride = value.wrapping_sub(last) & self.mask;
            self.stride_tables[table].update(line, stride);
        }
        for table in &mut self.lv_tables {
            table.update(line, value, self.policy);
        }
    }

    /// The monomorphized modeling kernel behind
    /// [`FieldBank::model_column`]: columns arrive as `u64` (the
    /// transpose stage is width-agnostic), each value is truncated to the
    /// element once, and the whole search/update loop then runs at the
    /// element width.
    ///
    /// Fields with hash-indexed tables run a two-pass schedule over
    /// [`PLAN_SUB`]-record sub-batches. Pass A touches only the
    /// first-level hash state — every (D)FCM table index depends on
    /// nothing but the value sequence, because the running hashes fold
    /// the incoming values (or strides, reconstructible from the column
    /// and the per-line last value) and never read a table — so it can
    /// resolve a whole batch of indices and prefetch their lines. Pass B
    /// then probes and updates at the recorded indices with the lines
    /// already in cache, turning a chain of dependent multi-megabyte
    /// table misses into overlapped ones. The codes, misses, and final
    /// table state are identical to the one-pass loop; the equivalence
    /// test drives both against each other.
    fn model_column(
        &mut self,
        pcs: &[u64],
        values: &[u64],
        codes_out: &mut Vec<u8>,
        misses_out: &mut Vec<u64>,
    ) {
        assert_eq!(pcs.len(), values.len(), "pc and value columns must align");
        let miss = self.n_predictions as u8;
        codes_out.reserve(values.len());
        if !self.plan {
            // No hash-indexed tables, or tables small enough to live in
            // L2: probes hit cache without help, so plan one-pass.
            for (&pc, &raw) in pcs.iter().zip(values) {
                let line = self.line(pc);
                let value = E::from_u64(raw) & self.mask;
                let code = self.find_code_in_line(line, value);
                codes_out.push(code);
                if code == miss {
                    misses_out.push(value.to_u64());
                }
                self.update_line(line, value);
            }
            return;
        }

        let (fcm_base, dfcm_base, per_rec) = self.plan_layout();

        // One generation per column: pass A's last-value tracking starts
        // from the tables' current state, not a previous column's.
        self.plan_gen = self.plan_gen.wrapping_add(1);
        if self.plan_gen == 0 {
            self.plan_stamp.fill(0);
            self.plan_gen = 1;
        }
        let gen = self.plan_gen;

        let mut idx_buf = std::mem::take(&mut self.plan_idx);
        for (pc_sub, val_sub) in pcs.chunks(PLAN_SUB).zip(values.chunks(PLAN_SUB)) {
            // Pass A: resolve and prefetch every table index. It
            // advances first-level hashes ahead of the L1 marks, but pass
            // B below marks the line of every record pass A advanced.
            idx_buf.clear();
            idx_buf.reserve(pc_sub.len() * per_rec);
            for (&pc, &raw) in pc_sub.iter().zip(val_sub) {
                let line = self.line(pc);
                let value = E::from_u64(raw) & self.mask;
                for bank in &mut self.fcm_banks {
                    bank.plan_record(line, value.to_u64(), &mut idx_buf);
                }
                if !self.dfcm_updates.is_empty() {
                    let last = if self.plan_stamp[line] == gen {
                        self.plan_last[line]
                    } else {
                        self.plan_stamp[line] = gen;
                        let lv = self.dfcm_updates[0].1;
                        let v = self.lv_tables[lv].first(line);
                        self.plan_last[line] = v;
                        v
                    };
                    let stride = value.wrapping_sub(last) & self.mask;
                    for &(b, _) in &self.dfcm_updates {
                        self.dfcm_banks[b].plan_record(line, stride.to_u64(), &mut idx_buf);
                    }
                    self.plan_last[line] = value;
                }
            }
            // Pass B: probe and update at the planned indices.
            for (k, (&pc, &raw)) in pc_sub.iter().zip(val_sub).enumerate() {
                let line = self.line(pc);
                let value = E::from_u64(raw) & self.mask;
                let idx_row = &idx_buf[k * per_rec..(k + 1) * per_rec];
                let code = self.find_code_planned(line, value, idx_row, &fcm_base, &dfcm_base);
                codes_out.push(code);
                if code == miss {
                    misses_out.push(value.to_u64());
                }
                self.update_line_planned(line, value, idx_row, &fcm_base, &dfcm_base);
            }
        }
        self.plan_idx = idx_buf;
    }

    /// Flat per-record index layout for the planned schedules: the fcm
    /// banks' tables in bank order, then the dfcm banks' tables in update
    /// order. Returns `(fcm_base, dfcm_base, indices_per_record)`.
    fn plan_layout(&self) -> (Vec<usize>, Vec<usize>, usize) {
        let mut fcm_base = vec![0usize; self.fcm_banks.len()];
        let mut off = 0usize;
        for (b, bank) in self.fcm_banks.iter().enumerate() {
            fcm_base[b] = off;
            off += bank.table_count();
        }
        let mut dfcm_base = vec![0usize; self.dfcm_banks.len()];
        for &(b, _) in &self.dfcm_updates {
            dfcm_base[b] = off;
            off += self.dfcm_banks[b].table_count();
        }
        (fcm_base, dfcm_base, off)
    }

    /// [`Self::find_code_in_line`] with every hash-indexed probe taken
    /// from the planned `idx_row` instead of the live hash state (which
    /// pass A has already advanced past this record).
    #[inline]
    fn find_code_planned(
        &self,
        line: usize,
        value: E,
        idx_row: &[u32],
        fcm_base: &[usize],
        dfcm_base: &[usize],
    ) -> u8 {
        let mut code = 0u8;
        for source in &self.sources {
            match *source {
                Source::Lv { table, take } => {
                    let slots = &self.lv_tables[table].line(line)[..take];
                    if let Some(k) = slots.iter().position(|&v| v == value) {
                        return code + k as u8;
                    }
                    code += take as u8;
                }
                Source::Fcm { bank, table } => {
                    let fcm = &self.fcm_banks[bank];
                    let idx = idx_row[fcm_base[bank] + table] as usize;
                    if let Some(k) = fcm.find_value_at(table, idx, value) {
                        return code + k as u8;
                    }
                    code += fcm.table_height(table) as u8;
                }
                Source::Dfcm { bank, table, lv_table } => {
                    let last = self.lv_tables[lv_table].first(line);
                    let target = value.wrapping_sub(last) & self.mask;
                    let dfcm = &self.dfcm_banks[bank];
                    let idx = idx_row[dfcm_base[bank] + table] as usize;
                    if let Some(k) = dfcm.find_value_at(table, idx, target) {
                        return code + k as u8;
                    }
                    code += dfcm.table_height(table) as u8;
                }
                Source::St { table, take, lv_table } => {
                    let stride = self.stride_tables[table].confirmed(line);
                    let mut pred = self.lv_tables[lv_table].first(line);
                    for k in 0..take {
                        pred = pred.wrapping_add(stride) & self.mask;
                        if pred == value {
                            return code + k as u8;
                        }
                    }
                    code += take as u8;
                }
            }
        }
        code
    }

    /// [`Self::update_line`] with the (D)FCM table indices planned by
    /// pass A; the hash state is untouched here because
    /// [`ContextBank::plan_record`] already advanced it. Marks `line`
    /// first, as [`Self::update_line`] does.
    #[inline]
    fn update_line_planned(
        &mut self,
        line: usize,
        value: E,
        idx_row: &[u32],
        fcm_base: &[usize],
        dfcm_base: &[usize],
    ) {
        self.l1_occ.mark(line);
        for (b, bank) in self.fcm_banks.iter_mut().enumerate() {
            let base = fcm_base[b];
            bank.update_tables_at(
                &idx_row[base..base + bank.table_count()],
                value,
                self.policy,
            );
        }
        // Strides use the pre-update last values.
        for &(bank, lv_table) in &self.dfcm_updates {
            let last = self.lv_tables[lv_table].first(line);
            let stride = value.wrapping_sub(last) & self.mask;
            let dfcm = &mut self.dfcm_banks[bank];
            let base = dfcm_base[bank];
            dfcm.update_tables_at(
                &idx_row[base..base + dfcm.table_count()],
                stride,
                self.policy,
            );
        }
        for &(table, lv_table) in &self.st_updates {
            let last = self.lv_tables[lv_table].first(line);
            let stride = value.wrapping_sub(last) & self.mask;
            self.stride_tables[table].update(line, stride);
        }
        for table in &mut self.lv_tables {
            table.update(line, value, self.policy);
        }
    }

    /// The monomorphized replay kernel behind
    /// [`FieldBank::replay_column`].
    ///
    /// Fields with large hash-indexed tables run a software-pipelined
    /// schedule instead of modeling's sub-batch one. Replay cannot plan a
    /// whole batch ahead: advancing a record's hashes needs its value,
    /// and the value of a predicted record comes out of the very tables
    /// the plan would prefetch. What it *can* do is look exactly one
    /// record ahead — the moment record `k`'s hashes advance, record
    /// `k+1`'s table indices are fixed, before `k`'s table updates have
    /// run. Resolving and prefetching there hides the next record's
    /// table-line miss behind the current record's update stores. Codes,
    /// values, and final table state are identical to the one-pass loop;
    /// the equivalence test drives both against each other.
    fn replay_column(
        &mut self,
        pcs: Option<&[u64]>,
        codes: &[u8],
        misses: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), ReplayError> {
        if pcs.is_none() {
            debug_assert_eq!(self.l1_mask, 0, "only the PC field (L1 = 1) replays without PCs");
        }
        let miss = self.n_predictions as usize;
        let mut next_miss = 0usize;
        out.reserve(codes.len());
        if !self.plan || codes.is_empty() {
            for (rec, &code) in codes.iter().enumerate() {
                let line = match pcs {
                    Some(p) => self.line(p[rec]),
                    None => 0,
                };
                let c = code as usize;
                let value = if c < miss {
                    let (si, offset) = self.slots[c];
                    self.slot_value(line, &self.sources[si as usize], offset as usize)
                } else if c == miss {
                    let Some(&v) = misses.get(next_miss) else {
                        return Err(ReplayError::MissingValue { record: rec });
                    };
                    next_miss += 1;
                    E::from_u64(v) & self.mask
                } else {
                    return Err(ReplayError::CodeOutOfRange { record: rec, code });
                };
                out.push(value.to_u64());
                self.update_line(line, value);
            }
            if next_miss != misses.len() {
                return Err(ReplayError::TrailingValues { left: misses.len() - next_miss });
            }
            return Ok(());
        }

        let (fcm_base, dfcm_base, per_rec) = self.plan_layout();
        let mut row_cur = std::mem::take(&mut self.plan_idx);
        let mut row_next = Vec::with_capacity(per_rec);
        let line_of = |bank: &Self, rec: usize| match pcs {
            Some(p) => bank.line(p[rec]),
            None => 0,
        };
        // Indices for record 0 come straight from the initial hash state.
        row_cur.clear();
        self.resolve_row(line_of(self, 0), &mut row_cur);
        for (rec, &code) in codes.iter().enumerate() {
            let line = line_of(self, rec);
            let c = code as usize;
            // Decode against the pre-advance indices of this record.
            let value = if c < miss {
                let (si, offset) = self.slots[c];
                self.slot_value_planned(
                    line,
                    &self.sources[si as usize],
                    offset as usize,
                    &row_cur,
                    &fcm_base,
                    &dfcm_base,
                )
            } else if c == miss {
                let Some(&v) = misses.get(next_miss) else {
                    self.plan_idx = row_cur;
                    return Err(ReplayError::MissingValue { record: rec });
                };
                next_miss += 1;
                E::from_u64(v) & self.mask
            } else {
                self.plan_idx = row_cur;
                return Err(ReplayError::CodeOutOfRange { record: rec, code });
            };
            out.push(value.to_u64());
            // Advance the hashes (values for FCM, pre-update strides for
            // DFCM), then resolve and prefetch the *next* record's lines
            // so the fetch overlaps this record's table updates below.
            // Nothing between here and the update can fail, so the line
            // whose hashes advance is always marked.
            self.advance_row(line, value);
            if rec + 1 < codes.len() {
                row_next.clear();
                self.resolve_row(line_of(self, rec + 1), &mut row_next);
            }
            self.update_line_planned(line, value, &row_cur, &fcm_base, &dfcm_base);
            std::mem::swap(&mut row_cur, &mut row_next);
        }
        self.plan_idx = row_cur;
        if next_miss != misses.len() {
            return Err(ReplayError::TrailingValues { left: misses.len() - next_miss });
        }
        Ok(())
    }

    /// Pushes the current table index of every hash-indexed table (fcm
    /// banks in bank order, then dfcm banks in update order — the
    /// [`Self::plan_layout`] order) onto `row` and prefetches each line.
    #[inline]
    fn resolve_row(&self, line: usize, row: &mut Vec<u32>) {
        for bank in &self.fcm_banks {
            bank.resolve_record(line, row);
        }
        for &(b, _) in &self.dfcm_updates {
            self.dfcm_banks[b].resolve_record(line, row);
        }
    }

    /// Advances every bank's first-level hash state for one replayed
    /// record: FCM banks fold the value, DFCM banks fold the stride
    /// against the pre-update last value — the same inputs
    /// [`ContextBank::update`] folds inside [`Self::update_line`].
    #[inline]
    fn advance_row(&mut self, line: usize, value: E) {
        for bank in &mut self.fcm_banks {
            bank.advance_hashes(line, value.to_u64());
        }
        for &(b, lv_table) in &self.dfcm_updates {
            let last = self.lv_tables[lv_table].first(line);
            let stride = value.wrapping_sub(last) & self.mask;
            self.dfcm_banks[b].advance_hashes(line, stride.to_u64());
        }
    }

    /// [`Self::slot_value`] with every hash-indexed read taken from the
    /// resolved `idx_row` instead of the live hash state (which the
    /// pipelined replay advances before the tables are updated).
    #[inline]
    fn slot_value_planned(
        &self,
        line: usize,
        source: &Source,
        offset: usize,
        idx_row: &[u32],
        fcm_base: &[usize],
        dfcm_base: &[usize],
    ) -> E {
        match *source {
            Source::Lv { table, .. } => self.lv_tables[table].line(line)[offset],
            Source::Fcm { bank, table } => {
                let idx = idx_row[fcm_base[bank] + table] as usize;
                self.fcm_banks[bank].value_at_index(table, idx, offset)
            }
            Source::Dfcm { bank, table, lv_table } => {
                let last = self.lv_tables[lv_table].first(line);
                let idx = idx_row[dfcm_base[bank] + table] as usize;
                let stride = self.dfcm_banks[bank].value_at_index(table, idx, offset);
                last.wrapping_add(stride) & self.mask
            }
            Source::St { table, lv_table, .. } => {
                let last = self.lv_tables[lv_table].first(line);
                let stride = self.stride_tables[table].confirmed(line);
                last.wrapping_add(stride.wrapping_mul(E::from_u64(offset as u64 + 1)))
                    & self.mask
            }
        }
    }

    /// Returns every table, hash and occupancy map to the state
    /// [`TypedBank::new`] built, visiting only the lines the occupancy
    /// maps mark. The L1 map covers the last-value and stride tables and
    /// every context bank's first-level state; each second-level table
    /// has its own map. A line is cleared at most once per write that
    /// dirtied it, so a reset never costs more than a small share of the
    /// modeling or replay before it. Pass A's last-value scratch needs
    /// nothing: its generation stamp revalidates it at the next column.
    fn reset(&mut self) {
        let Self { l1_occ, lv_tables, stride_tables, fcm_banks, dfcm_banks, .. } = self;
        l1_occ.drain(|line| {
            lv_tables.iter_mut().for_each(|t| t.clear_line(line));
            stride_tables.iter_mut().for_each(|t| t.clear_line(line));
            for bank in fcm_banks.iter_mut().chain(dfcm_banks.iter_mut()) {
                bank.clear_line(line);
            }
        });
        fcm_banks.iter_mut().chain(dfcm_banks.iter_mut()).for_each(ContextBank::reset_tables);
    }

    /// Approximate memory footprint in bytes, including hash state.
    fn memory_bytes(&self) -> usize {
        self.hash_state_bytes() + self.table_bytes()
    }

    /// First-level hash/history bytes (width-independent).
    fn hash_state_bytes(&self) -> usize {
        self.fcm_banks
            .iter()
            .chain(&self.dfcm_banks)
            .map(|b| b.memory_bytes() - b.table_memory_bytes())
            .sum()
    }

    /// Bytes held by value tables alone — the storage the minimal
    /// element types shrink (last-value, (D)FCM second-level, stride).
    fn table_bytes(&self) -> usize {
        self.lv_tables.iter().map(|t| t.memory_bytes()).sum::<usize>()
            + self.fcm_banks.iter().map(|b| b.table_memory_bytes()).sum::<usize>()
            + self.dfcm_banks.iter().map(|b| b.table_memory_bytes()).sum::<usize>()
            + self.stride_tables.iter().map(|t| t.memory_bytes()).sum::<usize>()
    }

    /// Occupancy of every table: the shared L1 line space first, then
    /// each (D)FCM second-level table in predictor order.
    fn occupancy(&self) -> Vec<TableOccupancy> {
        let mut out = vec![TableOccupancy {
            table: OccTable::L1,
            lines_written: self.l1_occ.written(),
            lines_total: self.l1_occ.lines(),
        }];
        for bank in &self.fcm_banks {
            for (order, lines_written, lines_total) in bank.occupancies() {
                out.push(TableOccupancy {
                    table: OccTable::FcmL2 { order },
                    lines_written,
                    lines_total,
                });
            }
        }
        for bank in &self.dfcm_banks {
            for (order, lines_written, lines_total) in bank.occupancies() {
                out.push(TableOccupancy {
                    table: OccTable::DfcmL2 { order },
                    lines_written,
                    lines_total,
                });
            }
        }
        out
    }
}

/// All predictor state for one field, dispatched over the minimal
/// element type picked at construction (paper §4).
///
/// The enum is resolved once per call — and the columnar calls process a
/// whole column per dispatch — so the per-record loops run fully
/// monomorphized.
#[derive(Debug)]
pub enum FieldBank {
    /// Fields up to 8 bits wide.
    U8(TypedBank<u8>),
    /// Fields of 9..=16 bits.
    U16(TypedBank<u16>),
    /// Fields of 17..=32 bits.
    U32(TypedBank<u32>),
    /// Fields of 33..=64 bits, and every field when
    /// [`PredictorOptions::minimal_elements`] is off.
    U64(TypedBank<u64>),
}

/// Runs `$body` with `$bank` bound to the inner [`TypedBank`], whatever
/// its element type.
macro_rules! dispatch {
    ($self:expr, $bank:ident => $body:expr) => {
        match $self {
            FieldBank::U8($bank) => $body,
            FieldBank::U16($bank) => $body,
            FieldBank::U32($bank) => $body,
            FieldBank::U64($bank) => $body,
        }
    };
}

impl FieldBank {
    /// Builds the predictor state for `field` under `options`, storing
    /// table elements with the narrowest type that holds the field's bit
    /// width (or `u64` for everything when
    /// [`PredictorOptions::minimal_elements`] is off).
    ///
    /// # Panics
    ///
    /// Panics if `field` is invalid (no predictors, bad sizes); validated
    /// specifications never trigger this.
    pub fn new(field: &FieldSpec, options: PredictorOptions) -> Self {
        let element_bits = if options.minimal_elements { field.bits } else { 64 };
        match element_bits {
            0..=8 => FieldBank::U8(TypedBank::new(field, options)),
            9..=16 => FieldBank::U16(TypedBank::new(field, options)),
            17..=32 => FieldBank::U32(TypedBank::new(field, options)),
            _ => FieldBank::U64(TypedBank::new(field, options)),
        }
    }

    /// Width in bits of the table element this bank stores.
    pub fn element_bits(&self) -> u32 {
        match self {
            FieldBank::U8(_) => 8,
            FieldBank::U16(_) => 16,
            FieldBank::U32(_) => 32,
            FieldBank::U64(_) => 64,
        }
    }

    /// Number of predictions per record; predictor codes are
    /// `0..n_predictions` and `n_predictions` is the miss code.
    pub fn n_predictions(&self) -> u32 {
        dispatch!(self, b => b.n_predictions)
    }

    /// The field-width mask applied to every value.
    pub fn width_mask(&self) -> u64 {
        dispatch!(self, b => b.mask_u64)
    }

    /// Finds the first prediction slot matching `value`, evaluating slots
    /// lazily in code order — the engine analogue of the generated code's
    /// if/else-if chain. Returns the slot code, or `n_predictions` (the
    /// miss code) when nothing matches.
    pub fn find_code(&self, pc: u64, value: u64) -> u8 {
        dispatch!(self, b => {
            if value & b.mask_u64 != value {
                // Every slot holds a masked value, so an over-wide value
                // can only miss. (The columnar matcher relies on masked
                // inputs for its stride arithmetic.)
                return b.n_predictions as u8;
            }
            b.find_code_in_line(b.line(pc), b.narrow(value))
        })
    }

    /// The predicted value for `code`, or `None` for the miss code —
    /// the lazy decompression path (one slot, not all of them).
    pub fn value_for_code(&self, pc: u64, code: u8) -> Option<u64> {
        dispatch!(self, b => b.value_for_code(pc, code))
    }

    /// Appends all predictions for the record whose PC is `pc` to `out`,
    /// in predictor-code order.
    pub fn predict_into(&self, pc: u64, out: &mut Vec<u64>) {
        dispatch!(self, b => b.predict_into(pc, out))
    }

    /// Updates every table with the actual field value.
    pub fn update(&mut self, pc: u64, actual: u64) {
        dispatch!(self, b => {
            let line = b.line(pc);
            b.update_line(line, b.narrow(actual));
        })
    }

    /// Models a whole column of values in one pass: for each record,
    /// finds the predictor code of `values[i]` under `pcs[i]`, appends it
    /// to `codes_out`, appends the masked value to `misses_out` when no
    /// slot matched, and updates the tables.
    ///
    /// Byte-for-byte equivalent to calling [`Self::find_code`] and
    /// [`Self::update`] per record, but with the line resolved once, the
    /// value masked once, the per-slot `Source` dispatch hoisted into one
    /// per-predictor search, and — since the element dispatch happens
    /// here, once — the whole loop monomorphized at the field's storage
    /// width, keeping this bank's tables hot and narrow for the whole
    /// column.
    ///
    /// For the PC field itself, pass the same column as both `pcs` and
    /// `values`.
    ///
    /// # Panics
    ///
    /// Panics if `pcs` and `values` differ in length.
    pub fn model_column(
        &mut self,
        pcs: &[u64],
        values: &[u64],
        codes_out: &mut Vec<u8>,
        misses_out: &mut Vec<u64>,
    ) {
        dispatch!(self, b => b.model_column(pcs, values, codes_out, misses_out))
    }

    /// Replays a whole column: for each code, reconstructs the field
    /// value — a prediction slot for codes below the miss code, the next
    /// entry of `misses` for the miss code — appends it to `out`, and
    /// updates the tables. The inverse of [`Self::model_column`], and
    /// monomorphized the same way.
    ///
    /// `pcs` carries the already-decoded PC column; pass `None` for the
    /// PC field itself, whose L1 size is one (the specification
    /// validator guarantees it), so its line is always zero and the
    /// not-yet-known PC cannot matter.
    ///
    /// Miss values are masked on the way in, mirroring the record-major
    /// replay loop this replaces.
    ///
    /// # Errors
    ///
    /// Fails on codes beyond the miss code, on a miss stream that runs
    /// dry, and on miss values left over after the last record — the
    /// trailing-garbage hardening the container format requires.
    ///
    /// # Panics
    ///
    /// Panics if `pcs` is `Some` but shorter than `codes`.
    pub fn replay_column(
        &mut self,
        pcs: Option<&[u64]>,
        codes: &[u8],
        misses: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), ReplayError> {
        dispatch!(self, b => b.replay_column(pcs, codes, misses, out))
    }

    /// Returns the bank to the state [`Self::new`] builds — zeroed
    /// tables, hashes and occupancy counters — without reallocating it.
    /// Costs time in proportion to the lines written since the bank was
    /// built or last reset, not to the tables' size, so a caller can
    /// keep one bank for many traces. A schedule forced with
    /// `force_plan` is kept.
    pub fn reset(&mut self) {
        dispatch!(self, b => b.reset())
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        dispatch!(self, b => b.memory_bytes())
    }

    /// Bytes held by value tables alone (last-value, (D)FCM second-level,
    /// stride) — the storage minimal element types shrink; excludes the
    /// width-independent first-level hash state.
    pub fn table_bytes(&self) -> usize {
        dispatch!(self, b => b.table_bytes())
    }

    /// Per-table occupancy summaries: the shared first-level line space,
    /// then each (D)FCM second-level table in predictor order. Counters
    /// accumulate across every update since the bank was built or last
    /// [`reset`](Self::reset).
    pub fn occupancy(&self) -> Vec<TableOccupancy> {
        dispatch!(self, b => b.occupancy())
    }

    /// Test hook: forces the planned (two-pass / pipelined) modeling and
    /// replay schedules on or off regardless of table size, so both code
    /// paths can be exercised against each other on tables small enough
    /// for unit tests. Production banks pick the schedule from the
    /// hash-indexed table footprint at construction.
    #[doc(hidden)]
    pub fn force_plan(&mut self, on: bool) {
        dispatch!(self, b => b.plan = on)
    }
}

/// Predictor banks for every field of a specification, in declaration
/// order, plus the field processing order (PC first, as the paper
/// requires so the PC can index the other fields' tables).
#[derive(Debug)]
pub struct SpecBanks {
    banks: Vec<FieldBank>,
    order: Vec<usize>,
    pc_index: usize,
}

impl SpecBanks {
    /// Builds banks for every field of `spec`.
    pub fn new(spec: &TraceSpec, options: PredictorOptions) -> Self {
        let banks = spec.fields.iter().map(|f| FieldBank::new(f, options)).collect();
        let pc_index = spec.pc_index();
        let mut order = vec![pc_index];
        order.extend((0..spec.fields.len()).filter(|&i| i != pc_index));
        Self { banks, order, pc_index }
    }

    /// Field indices in processing order (the PC field first).
    pub fn processing_order(&self) -> &[usize] {
        &self.order
    }

    /// Index of the PC field.
    pub fn pc_index(&self) -> usize {
        self.pc_index
    }

    /// The bank for field `i` (declaration order).
    pub fn bank(&self, i: usize) -> &FieldBank {
        &self.banks[i]
    }

    /// Mutable access to the bank for field `i`.
    pub fn bank_mut(&mut self, i: usize) -> &mut FieldBank {
        &mut self.banks[i]
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether there are no fields (never true for validated specs).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Total memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.banks.iter().map(FieldBank::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    fn field_bank(src: &str, options: PredictorOptions) -> FieldBank {
        let spec = parse(src).unwrap();
        FieldBank::new(&spec.fields[0], options)
    }

    #[test]
    fn lv_predicts_recent_values() {
        let mut bank = field_bank(
            "TCgen Trace Specification;\n64-Bit Field 1 = {: LV[3]};\nPC = Field 1;",
            PredictorOptions::default(),
        );
        for v in [10u64, 20, 30] {
            bank.update(0, v);
        }
        let mut preds = Vec::new();
        bank.predict_into(0, &mut preds);
        assert_eq!(preds, vec![30, 20, 10]);
    }

    #[test]
    fn dfcm_predicts_strides_never_seen_values() {
        // A pure stride sequence: after warmup, DFCM predicts values it
        // has never observed (the paper's key DFCM advantage).
        let mut bank = field_bank(
            "TCgen Trace Specification;\n64-Bit Field 1 = {L2 = 256: DFCM1[1]};\nPC = Field 1;",
            PredictorOptions::default(),
        );
        let mut hits = 0;
        for i in 0..100u64 {
            let v = 0x1000 + i * 8;
            let mut preds = Vec::new();
            bank.predict_into(0, &mut preds);
            if i >= 3 {
                assert_eq!(preds[0], v, "stride miss at step {i}");
                hits += 1;
            }
            bank.update(0, v);
        }
        assert_eq!(hits, 97);
    }

    #[test]
    fn element_width_follows_field_width() {
        for (bits, expected) in [(8u32, 8u32), (16, 16), (32, 32), (64, 64)] {
            let src = format!(
                "TCgen Trace Specification;\n{bits}-Bit Field 1 = {{: LV[1]}};\nPC = Field 1;"
            );
            let bank = field_bank(&src, PredictorOptions::default());
            assert_eq!(bank.element_bits(), expected, "{bits}-bit field");
            let wide = field_bank(
                &src,
                PredictorOptions { minimal_elements: false, ..Default::default() },
            );
            assert_eq!(wide.element_bits(), 64, "{bits}-bit field, minimization off");
        }
    }

    /// The tentpole invariant at the unit level: a narrow bank and the
    /// deoptimized u64 bank emit identical codes and misses.
    #[test]
    fn minimal_elements_do_not_change_streams() {
        let spec = parse(
            "TCgen Trace Specification;\n\
             8-Bit Field 1 = {: LV[1]};\n\
             16-Bit Field 2 = {L1 = 16, L2 = 256: DFCM2[2], FCM1[2], ST[2], LV[2]};\n\
             PC = Field 1;",
        )
        .unwrap();
        let minimal = PredictorOptions::default();
        let wide = PredictorOptions { minimal_elements: false, ..minimal };
        let mut x = 0x2468_ace0_1357_9bdfu64;
        let mut pcs = Vec::new();
        let mut vals = Vec::new();
        for i in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pcs.push(x >> 40);
            vals.push(if i % 3 == 0 { x >> 13 } else { i.wrapping_mul(12) });
        }
        for field in &spec.fields {
            let mut a = FieldBank::new(field, minimal);
            let mut b = FieldBank::new(field, wide);
            assert!(a.table_bytes() < b.table_bytes(), "narrow tables must be smaller");
            let (mut ca, mut ma) = (Vec::new(), Vec::new());
            let (mut cb, mut mb) = (Vec::new(), Vec::new());
            a.model_column(&pcs, &vals, &mut ca, &mut ma);
            b.model_column(&pcs, &vals, &mut cb, &mut mb);
            assert_eq!(ca, cb, "codes diverge on {}-bit field", field.bits);
            assert_eq!(ma, mb, "misses diverge on {}-bit field", field.bits);
            let mut ra = FieldBank::new(field, minimal);
            let mut out = Vec::new();
            ra.replay_column(Some(&pcs), &ca, &ma, &mut out).unwrap();
            let masked: Vec<u64> = vals.iter().map(|&v| v & a.width_mask()).collect();
            assert_eq!(out, masked, "narrow replay diverges on {}-bit field", field.bits);
        }
    }

    #[test]
    fn shared_and_private_tables_predict_identically() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let shared = PredictorOptions::default();
        let private = PredictorOptions { shared_tables: false, ..shared };
        let mut a = FieldBank::new(&spec.fields[1], shared);
        let mut b = FieldBank::new(&spec.fields[1], private);
        let mut x = 0xabcdef12345u64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = (x >> 5) & 0xffff;
            let value = if i % 3 == 0 { x } else { i * 16 };
            let mut pa = Vec::new();
            let mut pb = Vec::new();
            a.predict_into(pc, &mut pa);
            b.predict_into(pc, &mut pb);
            assert_eq!(pa, pb, "divergence at step {i}");
            a.update(pc, value);
            b.update(pc, value);
        }
        assert!(b.memory_bytes() > a.memory_bytes(), "sharing must save memory");
    }

    #[test]
    fn width_masking_applies() {
        let mut bank = field_bank(
            "TCgen Trace Specification;\n8-Bit Field 1 = {: LV[1]};\nPC = Field 1;",
            PredictorOptions::default(),
        );
        bank.update(0, 0x1234); // only 0x34 fits in 8 bits
        let mut preds = Vec::new();
        bank.predict_into(0, &mut preds);
        assert_eq!(preds, vec![0x34]);
    }

    #[test]
    fn spec_banks_put_pc_first() {
        let src = "TCgen Trace Specification;\n\
                   64-Bit Field 1 = {: LV[1]};\n\
                   32-Bit Field 2 = {: LV[1]};\n\
                   PC = Field 2;";
        let spec = parse(src).unwrap();
        let banks = SpecBanks::new(&spec, PredictorOptions::default());
        assert_eq!(banks.processing_order(), &[1, 0]);
        assert_eq!(banks.pc_index(), 1);
        assert_eq!(banks.len(), 2);
    }

    #[test]
    fn tcgen_a_prediction_counts() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let banks = SpecBanks::new(&spec, PredictorOptions::default());
        assert_eq!(banks.bank(0).n_predictions(), 4);
        assert_eq!(banks.bank(1).n_predictions(), 10);
    }

    #[test]
    fn occupancy_tracks_touched_lines() {
        let spec = parse(
            "TCgen Trace Specification;\n\
             32-Bit Field 1 = {: LV[1]};\n\
             64-Bit Field 2 = {L1 = 64, L2 = 256: DFCM2[1], FCM1[1], LV[1]};\n\
             PC = Field 1;",
        )
        .unwrap();
        let mut bank = FieldBank::new(&spec.fields[1], PredictorOptions::default());
        let occ = bank.occupancy();
        // L1, FCM1 L2, DFCM2 L2 — in that order.
        assert_eq!(occ.len(), 3);
        assert_eq!(occ[0].table, OccTable::L1);
        assert_eq!(occ[0].lines_total, 64);
        assert_eq!(occ[1].table, OccTable::FcmL2 { order: 1 });
        assert_eq!(occ[1].lines_total, 256);
        assert_eq!(occ[2].table, OccTable::DfcmL2 { order: 2 });
        assert_eq!(occ[2].lines_total, 512, "DFCM2 scales L2 by 2^(order-1)");
        assert!(occ.iter().all(|t| t.lines_written == 0), "fresh bank is empty");

        // Three distinct PCs touch exactly three L1 lines, however often.
        for step in 0..300u64 {
            bank.update(step % 3, step * 8);
        }
        let occ = bank.occupancy();
        assert_eq!(occ[0].lines_written, 3);
        assert!(occ[1].lines_written > 0 && occ[1].lines_written <= 300);
        assert!(occ[2].lines_written > 0 && occ[2].lines_written <= 300);
    }

    #[test]
    fn always_policy_differs_from_smart_on_repeats() {
        let src = "TCgen Trace Specification;\n64-Bit Field 1 = {: LV[2]};\nPC = Field 1;";
        let mut smart = field_bank(src, PredictorOptions::default());
        let mut always = field_bank(
            src,
            PredictorOptions { policy: UpdatePolicy::Always, ..Default::default() },
        );
        // Sequence 7,7,8: smart keeps [8,7]; always ends with [8,7] too
        // but after 7,7 smart holds [7,0] vs always [7,7].
        for bank in [&mut smart, &mut always] {
            bank.update(0, 7);
            bank.update(0, 7);
        }
        let mut ps = Vec::new();
        let mut pa = Vec::new();
        smart.predict_into(0, &mut ps);
        always.predict_into(0, &mut pa);
        assert_eq!(ps, vec![7, 0]);
        assert_eq!(pa, vec![7, 7]);
    }
}

#[cfg(test)]
mod st_tests {
    use super::*;
    use tcgen_spec::parse;

    fn st_bank(src: &str) -> FieldBank {
        let spec = parse(src).unwrap();
        FieldBank::new(&spec.fields[0], PredictorOptions::default())
    }

    #[test]
    fn st_predicts_multiple_stride_steps() {
        let mut bank =
            st_bank("TCgen Trace Specification;\n64-Bit Field 1 = {: ST[3]};\nPC = Field 1;");
        for v in [100u64, 108, 116] {
            bank.update(0, v);
        }
        let mut preds = Vec::new();
        bank.predict_into(0, &mut preds);
        assert_eq!(preds, vec![124, 132, 140], "last + 1..3 strides");
    }

    #[test]
    fn st_ignores_one_off_jumps() {
        let mut bank =
            st_bank("TCgen Trace Specification;\n64-Bit Field 1 = {: ST[1]};\nPC = Field 1;");
        for v in [0u64, 8, 16, 24] {
            bank.update(0, v);
        }
        bank.update(0, 5000); // a single jump
        let mut preds = Vec::new();
        bank.predict_into(0, &mut preds);
        // The confirmed stride is still 8, applied from the new last value.
        assert_eq!(preds, vec![5008]);
    }

    #[test]
    fn st_shares_the_last_value_table_with_lv() {
        let shared = st_bank(
            "TCgen Trace Specification;\n64-Bit Field 1 = {: ST[1], LV[2]};\nPC = Field 1;",
        );
        let spec = parse(
            "TCgen Trace Specification;\n64-Bit Field 1 = {: ST[1], LV[2]};\nPC = Field 1;",
        )
        .unwrap();
        let private = FieldBank::new(
            &spec.fields[0],
            PredictorOptions { shared_tables: false, ..Default::default() },
        );
        assert!(shared.memory_bytes() < private.memory_bytes());
    }

    #[test]
    fn st_shared_and_private_predict_identically() {
        let src = "TCgen Trace Specification;\n\
                   32-Bit Field 1 = {: LV[1]};\n\
                   64-Bit Field 2 = {L1 = 4, L2 = 64: ST[2], DFCM1[1], LV[1]};\nPC = Field 1;";
        let spec = parse(src).unwrap();
        let mut a = FieldBank::new(&spec.fields[1], PredictorOptions::default());
        let mut b = FieldBank::new(
            &spec.fields[1],
            PredictorOptions { shared_tables: false, ..Default::default() },
        );
        let mut x = 777u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = x >> 60;
            let value = if i % 4 == 0 { x >> 30 } else { i * 24 };
            let mut pa = Vec::new();
            let mut pb = Vec::new();
            a.predict_into(pc, &mut pa);
            b.predict_into(pc, &mut pb);
            assert_eq!(pa, pb, "divergence at step {i}");
            a.update(pc, value);
            b.update(pc, value);
        }
    }
}

#[cfg(test)]
mod columnar_tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    fn columns(n: usize) -> (Vec<u64>, Vec<u64>) {
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut pcs = Vec::with_capacity(n);
        let mut vals = Vec::with_capacity(n);
        for i in 0..n as u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pcs.push(x >> 44);
            vals.push(if i % 3 == 0 { x >> 8 } else { i * 8 + 5 });
        }
        (pcs, vals)
    }

    fn all_option_sets() -> Vec<PredictorOptions> {
        let d = PredictorOptions::default();
        vec![
            d,
            PredictorOptions { policy: UpdatePolicy::Always, ..d },
            PredictorOptions { fast_hash: false, ..d },
            PredictorOptions { shared_tables: false, ..d },
            PredictorOptions { adaptive_shift: false, ..d },
            PredictorOptions { minimal_elements: false, ..d },
        ]
    }

    /// The tentpole equivalence: one `model_column` call must produce
    /// exactly the codes and misses of the per-record find/update loop,
    /// under every ablation option set.
    #[test]
    fn model_column_matches_record_major_loop() {
        let st_spec = parse(
            "TCgen Trace Specification;\n\
             32-Bit Field 1 = {: LV[1]};\n\
             64-Bit Field 2 = {L1 = 16, L2 = 256: ST[3], DFCM1[1], LV[2]};\nPC = Field 1;",
        )
        .unwrap();
        let spec = parse(presets::TCGEN_B).unwrap();
        let (pcs, vals) = columns(3_000);
        for field in spec.fields.iter().chain(&st_spec.fields) {
            for options in all_option_sets() {
                let mut reference = FieldBank::new(field, options);
                let mut columnar = FieldBank::new(field, options);
                let mut want_codes = Vec::new();
                let mut want_misses = Vec::new();
                for (&pc, &raw) in pcs.iter().zip(&vals) {
                    let value = raw & reference.width_mask();
                    let code = reference.find_code(pc, value);
                    want_codes.push(code);
                    if u32::from(code) == reference.n_predictions() {
                        want_misses.push(value);
                    }
                    reference.update(pc, value);
                }
                let mut codes = Vec::new();
                let mut misses = Vec::new();
                columnar.model_column(&pcs, &vals, &mut codes, &mut misses);
                assert_eq!(codes, want_codes, "{options:?}");
                assert_eq!(misses, want_misses, "{options:?}");
            }
        }
    }

    #[test]
    fn replay_column_inverts_model_column() {
        let spec = parse(presets::TCGEN_B).unwrap();
        let (pcs, vals) = columns(2_000);
        for field in &spec.fields {
            let options = PredictorOptions::default();
            let mut fwd = FieldBank::new(field, options);
            let mut codes = Vec::new();
            let mut misses = Vec::new();
            fwd.model_column(&pcs, &vals, &mut codes, &mut misses);
            let mut bwd = FieldBank::new(field, options);
            let mut out = Vec::new();
            bwd.replay_column(Some(&pcs), &codes, &misses, &mut out).unwrap();
            let masked: Vec<u64> = vals.iter().map(|&v| v & fwd.width_mask()).collect();
            assert_eq!(out, masked);
        }
    }

    /// The PC field replays without a PC column: its L1 size is one, so
    /// modeling with the raw column and replaying with `None` agree —
    /// on both the one-pass and the pipelined replay schedule.
    #[test]
    fn pc_field_replays_without_pc_column() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let pc_field = &spec.fields[spec.pc_index()];
        let (_, vals) = columns(1_500);
        let options = PredictorOptions::default();
        let mut fwd = FieldBank::new(pc_field, options);
        let mut codes = Vec::new();
        let mut misses = Vec::new();
        fwd.model_column(&vals, &vals, &mut codes, &mut misses);
        let masked: Vec<u64> = vals.iter().map(|&v| v & fwd.width_mask()).collect();
        for plan in [false, true] {
            let mut bwd = FieldBank::new(pc_field, options);
            bwd.force_plan(plan);
            let mut out = Vec::new();
            bwd.replay_column(None, &codes, &misses, &mut out).unwrap();
            assert_eq!(out, masked, "plan = {plan}");
        }
    }

    /// The pipelined replay schedule is invisible: identical output and
    /// identical final predictor state (the codes and misses of one more
    /// modeled column) to the one-pass loop, for every predictor kind and ablation option set. Unit-test
    /// tables are far below the planning threshold, so both paths are
    /// forced explicitly.
    #[test]
    fn planned_replay_matches_one_pass_replay() {
        let st_spec = parse(
            "TCgen Trace Specification;\n\
             32-Bit Field 1 = {: LV[1]};\n\
             64-Bit Field 2 = {L1 = 16, L2 = 256: ST[3], DFCM1[1], LV[2]};\nPC = Field 1;",
        )
        .unwrap();
        let spec = parse(presets::TCGEN_B).unwrap();
        let (pcs, vals) = columns(3_000);
        for field in spec.fields.iter().chain(&st_spec.fields) {
            for options in all_option_sets() {
                let mut fwd = FieldBank::new(field, options);
                let mut codes = Vec::new();
                let mut misses = Vec::new();
                fwd.model_column(&pcs, &vals, &mut codes, &mut misses);
                let mut one_pass = FieldBank::new(field, options);
                one_pass.force_plan(false);
                let mut a = Vec::new();
                one_pass.replay_column(Some(&pcs), &codes, &misses, &mut a).unwrap();
                let mut pipelined = FieldBank::new(field, options);
                pipelined.force_plan(true);
                let mut b = Vec::new();
                pipelined.replay_column(Some(&pcs), &codes, &misses, &mut b).unwrap();
                assert_eq!(a, b, "outputs diverge: {}-bit {options:?}", field.bits);
                // State is only ever used to predict, so the banks hold
                // the same state when they model one more column alike.
                let [probe_a, probe_b] = [&mut one_pass, &mut pipelined].map(|bank| {
                    bank.force_plan(false);
                    let (mut codes, mut misses) = (Vec::new(), Vec::new());
                    bank.model_column(&pcs, &vals, &mut codes, &mut misses);
                    (codes, misses)
                });
                assert_eq!(
                    probe_a, probe_b,
                    "final state diverges: {}-bit {options:?}",
                    field.bits
                );
            }
        }
    }

    /// A reset on production-sized tables: TCGEN_A's banks, which model
    /// on the planned kernel, after a short column (a few lines written)
    /// and after a long one (a large share of L1 written), model two
    /// further columns exactly as new banks do.
    #[test]
    fn reset_matches_new_on_tcgen_a_tables() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let (b_pcs, b_vals) = columns(4_000);
        let c_vals: Vec<u64> = b_vals.iter().map(|v| v.rotate_left(17) ^ 0x5a5a).collect();
        let model = |bank: &mut FieldBank, pcs: &[u64], vals: &[u64]| {
            let (mut codes, mut misses) = (Vec::new(), Vec::new());
            bank.model_column(pcs, vals, &mut codes, &mut misses);
            (codes, misses)
        };
        for n in [500usize, 60_000] {
            let (pcs, vals) = columns(n);
            let a_vals: Vec<u64> = vals.iter().map(|v| v.wrapping_mul(3)).collect();
            for (fi, field) in spec.fields.iter().enumerate() {
                let pc_of = |vals: &'_ [u64], pcs: &'_ [u64]| {
                    if fi == spec.pc_index() {
                        vals.to_vec()
                    } else {
                        pcs.to_vec()
                    }
                };
                let mut used = FieldBank::new(field, PredictorOptions::default());
                model(&mut used, &pc_of(&a_vals, &pcs), &a_vals);
                if n > 10_000 && fi != spec.pc_index() {
                    let l1 = used.occupancy()[0].fill();
                    assert!(l1 > 0.125, "a long column must write a large share of L1: {l1}");
                }
                used.reset();
                let mut fresh = FieldBank::new(field, PredictorOptions::default());
                for vals in [&b_vals, &c_vals] {
                    let pcs = pc_of(vals, &b_pcs);
                    assert_eq!(
                        model(&mut used, &pcs, vals),
                        model(&mut fresh, &pcs, vals),
                        "field {fi} after {n} records"
                    );
                }
                assert_eq!(used.occupancy(), fresh.occupancy(), "field {fi} after {n} records");
            }
        }
    }

    #[test]
    fn replay_column_rejects_corrupt_streams() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let field = &spec.fields[1];
        let (pcs, vals) = columns(300);
        let options = PredictorOptions::default();
        let mut fwd = FieldBank::new(field, options);
        let mut codes = Vec::new();
        let mut misses = Vec::new();
        fwd.model_column(&pcs, &vals, &mut codes, &mut misses);
        assert!(!misses.is_empty(), "test needs at least one miss");

        // A code beyond the miss code.
        let mut bad = codes.clone();
        bad[7] = fwd.n_predictions() as u8 + 1;
        let mut bank = FieldBank::new(field, options);
        assert_eq!(
            bank.replay_column(Some(&pcs), &bad, &misses, &mut Vec::new()),
            Err(ReplayError::CodeOutOfRange { record: 7, code: fwd.n_predictions() as u8 + 1 })
        );

        // A miss stream that runs dry.
        let mut bank = FieldBank::new(field, options);
        let err = bank
            .replay_column(Some(&pcs), &codes, &misses[..misses.len() - 1], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, ReplayError::MissingValue { .. }));

        // Leftover miss values.
        let mut extra = misses.clone();
        extra.push(42);
        let mut bank = FieldBank::new(field, options);
        assert_eq!(
            bank.replay_column(Some(&pcs), &codes, &extra, &mut Vec::new()),
            Err(ReplayError::TrailingValues { left: 1 })
        );
    }
}

#[cfg(test)]
mod lazy_tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    /// The lazy paths must agree exactly with the eager prediction list.
    #[test]
    fn find_code_and_value_for_code_match_predict_into() {
        let spec = parse(presets::TCGEN_B).unwrap();
        let mut bank = FieldBank::new(&spec.fields[1], PredictorOptions::default());
        let mut x = 0x1357_9bdfu64;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = x >> 48;
            let value = if i % 3 == 0 { x >> 16 } else { i * 8 };
            let mut eager = Vec::new();
            bank.predict_into(pc, &mut eager);
            // value_for_code reproduces every slot.
            for (code, &expected) in eager.iter().enumerate() {
                assert_eq!(
                    bank.value_for_code(pc, code as u8),
                    Some(expected),
                    "slot {code} at step {i}"
                );
            }
            assert_eq!(bank.value_for_code(pc, eager.len() as u8), None);
            // find_code returns the first match, or the miss code.
            let lazy = bank.find_code(pc, value);
            let expected = eager.iter().position(|&p| p == value).unwrap_or(eager.len()) as u8;
            assert_eq!(lazy, expected, "step {i}");
            bank.update(pc, value);
        }
    }
}
