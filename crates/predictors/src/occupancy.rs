//! Table-occupancy counters: how many lines of each predictor table were
//! ever written.
//!
//! The paper's usage feedback (§5) tells users which *predictors* are
//! idle; it says nothing about oversized *tables*. A first-level table of
//! 65536 lines indexed by a PC that only ever touches 300 of them wastes
//! memory without improving compression, and the same holds for
//! second-level (D)FCM tables whose hash indices cluster. These counters
//! close that gap: every bank records which lines it has written, and
//! [`TableOccupancy`] summaries flow into the engine's usage report and
//! the spec auto-tuner, which use them to shrink `L1`/`L2` parameters.
//!
//! The same maps make a reset cheap: every write to a table lands on a
//! line whose bit the same update sets, so [`Occupancy::drain`] visits
//! exactly the lines that differ from a freshly built table
//! (`FieldBank::reset`).

/// A write-once bitset over a table's lines plus a running count of set
/// bits: `mark` is one test-and-set per update, so keeping the counters
/// always-on costs a few instructions per table per record.
#[derive(Debug, Clone)]
pub struct Occupancy {
    bits: Vec<u64>,
    lines: u64,
    written: u64,
}

impl Occupancy {
    /// A zeroed occupancy map for a table of `lines` lines.
    pub fn new(lines: usize) -> Self {
        Self { bits: vec![0; lines.div_ceil(64)], lines: lines as u64, written: 0 }
    }

    /// Marks line `idx` as written.
    #[inline]
    pub fn mark(&mut self, idx: usize) {
        let word = &mut self.bits[idx >> 6];
        let bit = 1u64 << (idx & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.written += 1;
        }
    }

    /// Number of distinct lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Total lines in the table.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Calls `f` with every written line, in ascending order, and clears
    /// the map as it goes: afterwards no line is marked and
    /// [`Self::written`] is 0.
    pub fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.bits.iter_mut().enumerate().filter(|(_, word)| **word != 0) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.written = 0;
    }
}

/// Which table of a field's predictor bank an occupancy summary is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccTable {
    /// The shared first-level structures (last-value, stride, and hash
    /// histories), all indexed by the same `PC mod L1` line.
    L1,
    /// The second-level table of an `FCMx` predictor of the given order.
    FcmL2 {
        /// Context order `x`.
        order: u32,
    },
    /// The second-level table of a `DFCMx` predictor of the given order.
    DfcmL2 {
        /// Context order `x`.
        order: u32,
    },
}

/// Occupancy summary of one predictor table: lines ever written versus
/// lines allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOccupancy {
    /// The table this summary describes.
    pub table: OccTable,
    /// Distinct lines written at least once.
    pub lines_written: u64,
    /// Lines allocated.
    pub lines_total: u64,
}

impl TableOccupancy {
    /// Fraction of lines ever written (0 for an empty table).
    pub fn fill(&self) -> f64 {
        if self.lines_total == 0 {
            0.0
        } else {
            self.lines_written as f64 / self.lines_total as f64
        }
    }

    /// A short human-readable table name, e.g. `L1` or `DFCM3 L2`.
    pub fn label(&self) -> String {
        match self.table {
            OccTable::L1 => "L1".to_string(),
            OccTable::FcmL2 { order } => format!("FCM{order} L2"),
            OccTable::DfcmL2 { order } => format!("DFCM{order} L2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_counts_distinct_lines_once() {
        let mut occ = Occupancy::new(200);
        assert_eq!(occ.written(), 0);
        assert_eq!(occ.lines(), 200);
        occ.mark(0);
        occ.mark(0);
        occ.mark(63);
        occ.mark(64);
        occ.mark(199);
        assert_eq!(occ.written(), 4);
    }

    #[test]
    fn drain_visits_marked_lines_across_words_and_clears_them() {
        let mut occ = Occupancy::new(200);
        for idx in [199, 0, 63, 64, 127, 128, 5, 64] {
            occ.mark(idx);
        }
        assert_eq!(occ.written(), 7);
        let mut seen = Vec::new();
        occ.drain(|idx| seen.push(idx));
        assert_eq!(seen, [0, 5, 63, 64, 127, 128, 199]);
        assert_eq!(occ.written(), 0);
        let mut again = Vec::new();
        occ.drain(|idx| again.push(idx));
        assert!(again.is_empty(), "a drained map has no marks left");
        // Marks count again from zero.
        occ.mark(64);
        assert_eq!(occ.written(), 1);
    }

    #[test]
    fn single_line_table() {
        let mut occ = Occupancy::new(1);
        occ.mark(0);
        occ.mark(0);
        assert_eq!(occ.written(), 1);
        assert_eq!(occ.lines(), 1);
    }

    #[test]
    fn fill_and_labels() {
        let t = TableOccupancy { table: OccTable::L1, lines_written: 1, lines_total: 4 };
        assert!((t.fill() - 0.25).abs() < 1e-12);
        assert_eq!(t.label(), "L1");
        let f = TableOccupancy {
            table: OccTable::FcmL2 { order: 1 },
            lines_written: 0,
            lines_total: 0,
        };
        assert_eq!(f.fill(), 0.0);
        assert_eq!(f.label(), "FCM1 L2");
        let d = TableOccupancy {
            table: OccTable::DfcmL2 { order: 3 },
            lines_written: 2,
            lines_total: 8,
        };
        assert_eq!(d.label(), "DFCM3 L2");
    }
}
