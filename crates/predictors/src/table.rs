//! Flat value tables: `lines × height` slots of most-recent-first values.

use crate::element::TableElement;
use crate::policy::UpdatePolicy;

/// A table of `lines` lines, each holding `height` values ordered most
/// recent first. Backs last-value tables and (D)FCM second-level tables.
///
/// The element type `E` is the narrowest unsigned integer covering the
/// owning field's bit width (paper §4, minimal element types); see
/// [`crate::element`] for why narrowing never changes stored values.
#[derive(Debug, Clone)]
pub struct ValueTable<E: TableElement = u64> {
    values: Vec<E>,
    height: usize,
}

impl<E: TableElement> ValueTable<E> {
    /// Allocates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `height` is zero.
    pub fn new(lines: usize, height: usize) -> Self {
        assert!(lines > 0 && height > 0, "table dimensions must be nonzero");
        Self { values: vec![E::default(); lines * height], height }
    }

    /// Values per line.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The values of `line`, most recent first.
    #[inline]
    pub fn line(&self, line: usize) -> &[E] {
        let start = line * self.height;
        &self.values[start..start + self.height]
    }

    /// First (most recent) entry of `line`.
    #[inline]
    pub fn first(&self, line: usize) -> E {
        self.values[line * self.height]
    }

    /// Applies the update `policy`: if the line is to be updated, the
    /// entries shift right one slot (dropping the oldest) and `value`
    /// enters at the front. Returns whether an update happened.
    #[inline]
    pub fn update(&mut self, line: usize, value: E, policy: UpdatePolicy) -> bool {
        let start = line * self.height;
        let slots = &mut self.values[start..start + self.height];
        if !policy.should_update(slots[0], value) {
            return false;
        }
        // Shift by hand: heights are tiny (1–4), so an explicit reverse
        // loop beats the `memmove` a `copy_within` would issue per line.
        for k in (1..slots.len()).rev() {
            slots[k] = slots[k - 1];
        }
        slots[0] = value;
        true
    }

    /// Zeroes `line`, as [`Self::new`] left it.
    #[inline]
    pub fn clear_line(&mut self, line: usize) {
        let start = line * self.height;
        self.values[start..start + self.height].fill(E::default());
    }

    /// Hints the CPU to pull `line` into cache ahead of a probe; a no-op
    /// on architectures without a stable prefetch intrinsic.
    #[inline(always)]
    pub fn prefetch(&self, line: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            let ptr = self.values.as_ptr().wrapping_add(line * self.height);
            // SAFETY: prefetch is a pure cache hint, valid for any address.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    ptr.cast::<i8>(),
                    core::arch::x86_64::_MM_HINT_T0,
                )
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
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
    fn update_shifts_most_recent_first() {
        let mut t = ValueTable::<u64>::new(2, 3);
        t.update(0, 10, UpdatePolicy::Smart);
        t.update(0, 20, UpdatePolicy::Smart);
        t.update(0, 30, UpdatePolicy::Smart);
        assert_eq!(t.line(0), &[30, 20, 10]);
        assert_eq!(t.line(1), &[0, 0, 0], "other lines untouched");
    }

    #[test]
    fn smart_update_keeps_first_two_distinct() {
        let mut t = ValueTable::<u64>::new(1, 2);
        t.update(0, 5, UpdatePolicy::Smart);
        assert!(!t.update(0, 5, UpdatePolicy::Smart), "repeat is skipped");
        t.update(0, 6, UpdatePolicy::Smart);
        assert_eq!(t.line(0), &[6, 5]);
        t.update(0, 5, UpdatePolicy::Smart);
        assert_eq!(t.line(0), &[5, 6], "alternation retained losslessly");
    }

    #[test]
    fn always_update_retains_duplicates() {
        let mut t = ValueTable::<u64>::new(1, 2);
        t.update(0, 5, UpdatePolicy::Always);
        t.update(0, 5, UpdatePolicy::Always);
        assert_eq!(t.line(0), &[5, 5]);
    }

    #[test]
    fn clear_line_zeroes_one_line_only() {
        let mut t = ValueTable::<u16>::new(3, 2);
        for line in 0..3 {
            t.update(line, 7, UpdatePolicy::Smart);
            t.update(line, 9, UpdatePolicy::Smart);
        }
        t.clear_line(1);
        assert_eq!(t.line(0), &[9, 7]);
        assert_eq!(t.line(1), &[0, 0]);
        assert_eq!(t.line(2), &[9, 7]);
    }

    #[test]
    fn height_one_lines() {
        let mut t = ValueTable::<u64>::new(4, 1);
        t.update(3, 9, UpdatePolicy::Smart);
        assert_eq!(t.first(3), 9);
        t.update(3, 9, UpdatePolicy::Always);
        assert_eq!(t.first(3), 9);
    }

    #[test]
    fn narrow_elements_shrink_footprint_not_behaviour() {
        let mut narrow = ValueTable::<u8>::new(4, 2);
        let mut wide = ValueTable::<u64>::new(4, 2);
        for v in [3u64, 3, 250, 7, 250] {
            narrow.update(1, v as u8, UpdatePolicy::Smart);
            wide.update(1, v, UpdatePolicy::Smart);
        }
        let widened: Vec<u64> = narrow.line(1).iter().map(|&v| u64::from(v)).collect();
        assert_eq!(widened, wide.line(1));
        assert_eq!(narrow.memory_bytes() * 8, wide.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_height_panics() {
        let _ = ValueTable::<u64>::new(4, 0);
    }
}
