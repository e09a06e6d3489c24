//! The stride 2-delta state backing `ST[n]` predictors (an extension
//! beyond the paper's predictor set, after Sazeides & Smith's st2d).
//!
//! Each line holds the most recent stride and the *confirmed* stride; a
//! stride is confirmed once it is observed twice in a row, which keeps
//! one-off jumps (function calls, allocation boundaries) from polluting
//! the prediction.

use crate::element::TableElement;

/// Per-line `(last_stride, confirmed_stride)` state.
///
/// Strides live in the same modular domain as the field's values, so
/// they share the field's minimal element type `E` (see
/// [`crate::element`]): `value - last` masked to the field width fits
/// any element that holds the width.
#[derive(Debug, Clone)]
pub struct StrideTable<E: TableElement = u64> {
    /// Interleaved pairs: `[last_stride, confirmed_stride]` per line.
    values: Vec<E>,
}

impl<E: TableElement> StrideTable<E> {
    /// Allocates a zeroed table with `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(lines: usize) -> Self {
        assert!(lines > 0, "stride table needs at least one line");
        Self { values: vec![E::default(); lines * 2] }
    }

    /// The confirmed stride of `line`.
    #[inline]
    pub fn confirmed(&self, line: usize) -> E {
        self.values[line * 2 + 1]
    }

    /// Observes a new stride: confirms it if it repeats the previous one.
    #[inline]
    pub fn update(&mut self, line: usize, stride: E) {
        let base = line * 2;
        if self.values[base] == stride {
            self.values[base + 1] = stride;
        }
        self.values[base] = stride;
    }

    /// Zeroes `line`, as [`Self::new`] left it.
    #[inline]
    pub fn clear_line(&mut self, line: usize) {
        self.values[line * 2..line * 2 + 2].fill(E::default());
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<E>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_confirms_on_second_sighting() {
        let mut t = StrideTable::<u64>::new(1);
        assert_eq!(t.confirmed(0), 0);
        t.update(0, 8);
        assert_eq!(t.confirmed(0), 0, "single sighting is not confirmed");
        t.update(0, 8);
        assert_eq!(t.confirmed(0), 8);
    }

    #[test]
    fn one_off_jump_does_not_disturb_confirmed_stride() {
        let mut t = StrideTable::<u64>::new(1);
        t.update(0, 8);
        t.update(0, 8);
        t.update(0, 4096); // a call or allocation jump
        assert_eq!(t.confirmed(0), 8, "jump must not be confirmed");
        t.update(0, 8);
        assert_eq!(t.confirmed(0), 8, "back in stride, still 8");
    }

    #[test]
    fn lines_are_independent() {
        let mut t = StrideTable::<u16>::new(2);
        t.update(0, 8);
        t.update(0, 8);
        t.update(1, 16);
        t.update(1, 16);
        assert_eq!(t.confirmed(0), 8);
        assert_eq!(t.confirmed(1), 16);
    }
}
