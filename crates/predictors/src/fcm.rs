//! Context banks: the shared machinery behind FCM and DFCM predictors.
//!
//! One bank serves every (D)FCM predictor of a field in one family: a
//! single first-level structure carries the running hashes for all orders
//! up to the highest selected one (paper: "only the first-level table for
//! the highest order predictor is generated and the lower-order
//! predictors utilize whatever fraction of that table they need"), and
//! each selected predictor owns a second-level value table of
//! `L2 * 2^(order-1)` lines.
//!
//! The second-level tables store the field's minimal element type `E`
//! (paper §4); the first-level hash state is width-independent (`u32`
//! running hashes / `u64` folded history), so only the value storage
//! narrows. Hash folding sees `value.to_u64()`, which is numerically the
//! value that was stored, so indices are identical at every width.

use crate::element::TableElement;
use crate::hash::HashSpec;
use crate::occupancy::Occupancy;
use crate::policy::UpdatePolicy;
use crate::table::ValueTable;

/// A second-level table belonging to one (D)FCM predictor.
#[derive(Debug, Clone)]
pub struct OrderTable<E: TableElement = u64> {
    /// Context order `x` of the owning predictor.
    pub order: u32,
    /// Value storage: `l2 << (order-1)` lines of `height` values.
    pub table: ValueTable<E>,
}

/// First-level state plus the second-level tables of one (D)FCM family.
#[derive(Debug, Clone)]
pub struct ContextBank<E: TableElement = u64> {
    spec: HashSpec,
    max_order: usize,
    /// Running hashes per L1 line (fast mode): `l1 × max_order`.
    hashes: Vec<u32>,
    /// Folded-value history per L1 line (scratch mode): `l1 × max_order`,
    /// most recent first.
    history: Vec<u64>,
    fast_hash: bool,
    tables: Vec<OrderTable<E>>,
    /// Lines-ever-written tracking, one map per second-level table.
    occ: Vec<Occupancy>,
}

impl<E: TableElement> ContextBank<E> {
    /// Builds a bank for predictors with the given `(order, height)`
    /// selections over a field of `field_bits` bits.
    ///
    /// `hash_order` fixes the depth of the first-level hash state and the
    /// hash parameters; it must be at least the largest selected order.
    /// Passing the *family's* maximum order (even for a bank holding only
    /// a lower-order predictor, as in the unshared-tables ablation) keeps
    /// the hash function — and therefore every table index — identical to
    /// the shared configuration's.
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty, `hash_order` is smaller than the
    /// largest order, or `l1`/`l2` are not powers of two.
    pub fn new(
        field_bits: u32,
        l1: u64,
        l2: u64,
        orders: &[(u32, u32)],
        hash_order: u32,
        adaptive_shift: bool,
        fast_hash: bool,
    ) -> Self {
        assert!(!orders.is_empty(), "a context bank needs at least one predictor");
        assert!(l1.is_power_of_two(), "L1 must be a power of two");
        let selected_max = orders.iter().map(|&(o, _)| o).max().expect("nonempty");
        assert!(hash_order >= selected_max, "hash_order below the largest selected order");
        let max_order = hash_order as usize;
        let spec = HashSpec::new(field_bits, l2, max_order as u32, adaptive_shift);
        let tables: Vec<OrderTable<E>> = orders
            .iter()
            .map(|&(order, height)| OrderTable {
                order,
                table: ValueTable::new((l2 << (order - 1)) as usize, height as usize),
            })
            .collect();
        let occ = orders
            .iter()
            .map(|&(order, _)| Occupancy::new((l2 << (order - 1)) as usize))
            .collect();
        Self {
            spec,
            max_order,
            hashes: if fast_hash { vec![0; l1 as usize * max_order] } else { Vec::new() },
            history: if fast_hash { Vec::new() } else { vec![0; l1 as usize * max_order] },
            fast_hash,
            tables,
            occ,
        }
    }

    /// Zeroes the first-level state (running hashes or history) of L1
    /// line `line`, as [`Self::new`] left it. The owning bank calls this
    /// for every line its L1 occupancy map marks: the hashes of a line
    /// advance only in an update that marks that line.
    #[inline]
    pub fn clear_line(&mut self, line: usize) {
        let range = line * self.max_order..(line + 1) * self.max_order;
        if self.fast_hash {
            self.hashes[range].fill(0);
        } else {
            self.history[range].fill(0);
        }
    }

    /// Returns every second-level table to its freshly built state,
    /// clearing the lines its occupancy map marks and the map with them.
    pub fn reset_tables(&mut self) {
        for (t, occ) in self.tables.iter_mut().zip(&mut self.occ) {
            occ.drain(|idx| t.table.clear_line(idx));
        }
    }

    /// Number of second-level tables (= predictors) in this bank.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Values per line of table `t`.
    pub fn table_height(&self, t: usize) -> usize {
        self.tables[t].table.height()
    }

    /// The current index into table `t` for L1 line `line`.
    #[inline]
    fn index(&self, line: usize, t: usize, scratch: &[u32]) -> usize {
        let order = self.tables[t].order as usize;
        if self.fast_hash {
            self.hashes[line * self.max_order + (order - 1)] as usize
        } else {
            scratch[order - 1] as usize
        }
    }

    /// Recomputes hashes from the history (scratch mode only).
    fn scratch_hashes(&self, line: usize) -> Vec<u32> {
        let start = line * self.max_order;
        self.spec.from_scratch(&self.history[start..start + self.max_order])
    }

    /// One entry of table `t`'s current line for `line` (lazy access for
    /// decompression, which needs a single slot rather than all of them).
    pub fn value_at(&self, line: usize, t: usize, entry: usize) -> E {
        let scratch = if self.fast_hash { Vec::new() } else { self.scratch_hashes(line) };
        let idx = self.index(line, t, &scratch);
        self.tables[t].table.line(idx)[entry]
    }

    /// Index of the first entry of table `t`'s current line equal to
    /// `value`, or `None`. The batch-modeling analogue of probing
    /// [`Self::value_at`] slot by slot: the hash is resolved once per
    /// probe rather than once per slot.
    #[inline]
    pub fn find_value(&self, line: usize, t: usize, value: E) -> Option<usize> {
        let scratch = if self.fast_hash { Vec::new() } else { self.scratch_hashes(line) };
        let idx = self.index(line, t, &scratch);
        self.tables[t].table.line(idx).iter().position(|&v| v == value)
    }

    /// Appends the predictions of table `t` for `line` to `out`, widened
    /// to the `u64` value domain.
    pub fn predict_into(&self, line: usize, t: usize, out: &mut Vec<u64>) {
        let scratch = if self.fast_hash { Vec::new() } else { self.scratch_hashes(line) };
        let idx = self.index(line, t, &scratch);
        out.extend(self.tables[t].table.line(idx).iter().map(|v| v.to_u64()));
    }

    /// Appends the predictions of every table, in table order, to `out`.
    pub fn predict_all_into(&self, line: usize, out: &mut Vec<u64>) {
        let scratch = if self.fast_hash { Vec::new() } else { self.scratch_hashes(line) };
        for t in 0..self.tables.len() {
            let idx = self.index(line, t, &scratch);
            out.extend(self.tables[t].table.line(idx).iter().map(|v| v.to_u64()));
        }
    }

    /// Resolves this record's table indices *before* the hash state
    /// advances: pushes one index per second-level table (in table
    /// order) onto `idx_out`, prefetches each indexed line, then
    /// advances the first-level hashes with the folded `input` — the
    /// exact index/advance schedule of [`Self::update`], split out so
    /// the columnar kernel can plan a whole batch of records and probe
    /// the tables later with their lines already in cache.
    ///
    /// A record planned this way must be finished with
    /// [`Self::update_tables_at`], never [`Self::update`], or the hashes
    /// would advance twice. The caller must also mark `line` in its L1
    /// occupancy map before the batch ends, as a reset relies on.
    #[inline]
    pub fn plan_record(&mut self, line: usize, input: u64, idx_out: &mut Vec<u32>) {
        let f = self.spec.fold_value(input);
        let start = line * self.max_order;
        if self.fast_hash {
            let hashes = &mut self.hashes[start..start + self.max_order];
            for t in &self.tables {
                let idx = hashes[t.order as usize - 1];
                t.table.prefetch(idx as usize);
                idx_out.push(idx);
            }
            self.spec.advance(hashes, f);
        } else {
            let scratch = self.scratch_hashes(line);
            for t in &self.tables {
                let idx = scratch[t.order as usize - 1];
                t.table.prefetch(idx as usize);
                idx_out.push(idx);
            }
            let hist = &mut self.history[start..start + self.max_order];
            hist.rotate_right(1);
            hist[0] = f;
        }
    }

    /// The resolve-and-prefetch half of [`Self::plan_record`]: pushes one
    /// index per second-level table onto `idx_out` and prefetches each
    /// indexed line, but leaves the hash state where it is. Replay uses
    /// this to look one record ahead — the *next* record's indices are
    /// known as soon as this record's hashes have advanced, before its
    /// value has been decoded — and pairs it with
    /// [`Self::advance_hashes`] once the value is known.
    #[inline]
    pub fn resolve_record(&self, line: usize, idx_out: &mut Vec<u32>) {
        if self.fast_hash {
            let start = line * self.max_order;
            let hashes = &self.hashes[start..start + self.max_order];
            for t in &self.tables {
                let idx = hashes[t.order as usize - 1];
                t.table.prefetch(idx as usize);
                idx_out.push(idx);
            }
        } else {
            let scratch = self.scratch_hashes(line);
            for t in &self.tables {
                let idx = scratch[t.order as usize - 1];
                t.table.prefetch(idx as usize);
                idx_out.push(idx);
            }
        }
    }

    /// The hash-advance half of [`Self::plan_record`]: folds `input` into
    /// the first-level state of `line`. Must follow a
    /// [`Self::resolve_record`] for the same line, and the record must be
    /// finished with [`Self::update_tables_at`] — never [`Self::update`],
    /// which would advance the hashes a second time — and the caller
    /// must mark `line` in its L1 occupancy map in the same step.
    #[inline]
    pub fn advance_hashes(&mut self, line: usize, input: u64) {
        let f = self.spec.fold_value(input);
        let start = line * self.max_order;
        if self.fast_hash {
            self.spec.advance(&mut self.hashes[start..start + self.max_order], f);
        } else {
            let hist = &mut self.history[start..start + self.max_order];
            hist.rotate_right(1);
            hist[0] = f;
        }
    }

    /// [`Self::find_value`] with the hash already resolved to `idx` by
    /// [`Self::plan_record`].
    #[inline]
    pub fn find_value_at(&self, t: usize, idx: usize, value: E) -> Option<usize> {
        self.tables[t].table.line(idx).iter().position(|&v| v == value)
    }

    /// [`Self::value_at`] with the hash already resolved to `idx` by
    /// [`Self::resolve_record`] or [`Self::plan_record`].
    #[inline]
    pub fn value_at_index(&self, t: usize, idx: usize, entry: usize) -> E {
        self.tables[t].table.line(idx)[entry]
    }

    /// The table-update half of [`Self::update`], at indices resolved by
    /// an earlier [`Self::plan_record`] call (one per table, in table
    /// order). The hash state is not touched — `plan_record` already
    /// advanced it.
    #[inline]
    pub fn update_tables_at(&mut self, idxs: &[u32], value: E, policy: UpdatePolicy) {
        for (t, &idx) in idxs.iter().enumerate() {
            let idx = idx as usize;
            // Mark before writing: a reset clears only marked lines.
            self.occ[t].mark(idx);
            self.tables[t].table.update(idx, value, policy);
        }
    }

    /// Updates every second-level table with `value` at the current
    /// indices, then advances the first-level hashes with `value`. The
    /// caller marks `line` in its L1 occupancy map.
    pub fn update(&mut self, line: usize, value: E, policy: UpdatePolicy) {
        let scratch = if self.fast_hash { Vec::new() } else { self.scratch_hashes(line) };
        for t in 0..self.tables.len() {
            let idx = self.index(line, t, &scratch);
            // Mark before writing: a reset clears only marked lines.
            self.occ[t].mark(idx);
            self.tables[t].table.update(idx, value, policy);
        }
        let f = self.spec.fold_value(value.to_u64());
        if self.fast_hash {
            let start = line * self.max_order;
            self.spec.advance(&mut self.hashes[start..start + self.max_order], f);
        } else {
            let start = line * self.max_order;
            let hist = &mut self.history[start..start + self.max_order];
            hist.rotate_right(1);
            hist[0] = f;
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.hashes.len() * 4
            + self.history.len() * 8
            + self.tables.iter().map(|t| t.table.memory_bytes()).sum::<usize>()
    }

    /// Memory footprint of the second-level value tables alone.
    pub fn table_memory_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.table.memory_bytes()).sum()
    }

    /// Per-table occupancy: `(order, lines_written, lines_total)` in
    /// table order.
    pub fn occupancies(&self) -> Vec<(u32, u64, u64)> {
        self.tables
            .iter()
            .zip(&self.occ)
            .map(|(t, occ)| (t.order, occ.written(), occ.lines()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(bank: &mut ContextBank, values: &[u64]) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for &v in values {
            let mut preds = Vec::new();
            bank.predict_all_into(0, &mut preds);
            out.push(preds);
            bank.update(0, v, UpdatePolicy::Smart);
        }
        out
    }

    #[test]
    fn fcm_learns_repeating_sequences() {
        // Order-2 FCM must predict a repeating A,B,C,A,B,C... pattern
        // once it has seen each context once.
        let mut bank = ContextBank::<u64>::new(64, 1, 256, &[(2, 1)], 2, true, true);
        let pattern: Vec<u64> = [11u64, 22, 33].iter().cycle().take(30).copied().collect();
        let preds = drive(&mut bank, &pattern);
        // After the first full cycle plus warmup, predictions are exact.
        for (i, p) in preds.iter().enumerate().skip(6) {
            assert_eq!(p[0], pattern[i], "mispredicted at step {i}");
        }
    }

    #[test]
    fn higher_orders_disambiguate_contexts() {
        // The sequence 1,2,9, 3,2,7, 1,2,9, 3,2,7 ... is ambiguous for an
        // order-1 FCM (context "2" precedes both 9 and 7) but exact for
        // order 2.
        let seq: Vec<u64> = [1u64, 2, 9, 3, 2, 7].iter().cycle().take(60).copied().collect();
        let mut o1 = ContextBank::<u64>::new(64, 1, 1024, &[(1, 1)], 1, true, true);
        let mut o2 = ContextBank::<u64>::new(64, 1, 1024, &[(2, 1)], 2, true, true);
        let p1 = drive(&mut o1, &seq);
        let p2 = drive(&mut o2, &seq);
        let hits = |ps: &[Vec<u64>]| {
            ps.iter().enumerate().skip(12).filter(|(i, p)| p[0] == seq[*i]).count()
        };
        assert!(hits(&p2) > hits(&p1), "order 2 ({}) <= order 1 ({})", hits(&p2), hits(&p1));
        assert_eq!(hits(&p2), 60 - 12, "order 2 should be exact after warmup");
    }

    #[test]
    fn scratch_mode_matches_fast_mode() {
        let values: Vec<u64> = (0..200).map(|i| (i * i * 2654435761u64) >> 7).collect();
        let mut fast = ContextBank::<u64>::new(64, 4, 512, &[(1, 2), (3, 2)], 3, true, true);
        let mut slow = ContextBank::<u64>::new(64, 4, 512, &[(1, 2), (3, 2)], 3, true, false);
        for (i, &v) in values.iter().enumerate() {
            let line = i % 4;
            let mut pf = Vec::new();
            let mut ps = Vec::new();
            fast.predict_all_into(line, &mut pf);
            slow.predict_all_into(line, &mut ps);
            assert_eq!(pf, ps, "divergence at step {i}");
            fast.update(line, v, UpdatePolicy::Smart);
            slow.update(line, v, UpdatePolicy::Smart);
        }
    }

    #[test]
    fn per_line_contexts_are_independent() {
        let mut bank = ContextBank::<u64>::new(64, 2, 256, &[(1, 1)], 1, true, true);
        // Line 0 sees 5,5,5... line 1 sees 9,9,9...
        for _ in 0..10 {
            bank.update(0, 5, UpdatePolicy::Smart);
            bank.update(1, 9, UpdatePolicy::Smart);
        }
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        bank.predict_into(0, 0, &mut p0);
        bank.predict_into(1, 0, &mut p1);
        assert_eq!(p0, vec![5]);
        assert_eq!(p1, vec![9]);
    }

    /// A narrow-element bank must walk exactly the same table indices as
    /// the u64 bank: the hash folds the numeric value, which masking to
    /// the field width already fixed.
    #[test]
    fn narrow_bank_matches_wide_bank_at_field_width() {
        let mut narrow = ContextBank::<u8>::new(8, 2, 512, &[(1, 2), (2, 1)], 2, true, true);
        let mut wide = ContextBank::<u64>::new(8, 2, 512, &[(1, 2), (2, 1)], 2, true, true);
        let mut x = 0xfeed_beefu64;
        for i in 0..500usize {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 23) & 0xff;
            let line = i % 2;
            let mut pn = Vec::new();
            let mut pw = Vec::new();
            narrow.predict_all_into(line, &mut pn);
            wide.predict_all_into(line, &mut pw);
            assert_eq!(pn, pw, "divergence at step {i}");
            assert_eq!(narrow.find_value(line, 0, v as u8), wide.find_value(line, 0, v));
            narrow.update(line, v as u8, UpdatePolicy::Smart);
            wide.update(line, v, UpdatePolicy::Smart);
        }
        assert!(narrow.table_memory_bytes() * 8 == wide.table_memory_bytes());
    }

    #[test]
    fn memory_accounting_scales_with_order() {
        let small = ContextBank::<u64>::new(64, 1, 1024, &[(1, 1)], 1, true, true);
        let big = ContextBank::<u64>::new(64, 1, 1024, &[(3, 1)], 3, true, true);
        assert!(big.memory_bytes() > small.memory_bytes() * 3);
    }
}
