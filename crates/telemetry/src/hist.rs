//! Lock-free log-bucketed histograms (HDR-style).
//!
//! A [`Histogram`] summarizes a stream of `u64` samples — span durations
//! in nanoseconds, job sizes in bytes — into a fixed array of atomic
//! buckets whose widths grow geometrically. Recording is wait-free (one
//! relaxed `fetch_add` per sample plus three bookkeeping atomics), reads
//! never block writers, and two histograms merge by adding buckets, so
//! per-thread or per-epoch histograms combine without loss.
//!
//! ## Bucket layout
//!
//! Values below `2^SUB_BITS` get one exact bucket each. Above that, each
//! power-of-two octave is split into `2^SUB_BITS` linear sub-buckets, so
//! the relative quantization error is bounded by `2^-SUB_BITS` (12.5%
//! with the default of 3) at every scale up to `u64::MAX`. The whole
//! table is [`N_BUCKETS`] counters — small enough to sit in one
//! allocation and scan in microseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count for the full `u64` range at `SUB_BITS` precision.
pub const N_BUCKETS: usize = {
    // Highest index: msb = 63, sub = SUB - 1.
    ((63 - SUB_BITS as usize + 1) << SUB_BITS) + (SUB - 1) + 1
};

/// The bucket a value lands in. Monotone in `v`: a larger sample never
/// maps to a smaller bucket, which is what makes record→percentile
/// monotone.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Smallest value mapping to bucket `i` (the bucket's inclusive lower
/// bound).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = (i >> SUB_BITS) as u32;
    let msb = group + SUB_BITS - 1;
    let sub = (i & (SUB - 1)) as u64;
    (1u64 << msb) | (sub << (msb - SUB_BITS))
}

/// Largest value mapping to bucket `i` (the bucket's inclusive upper
/// bound); `u64::MAX` saturates into the final bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 < N_BUCKETS {
        bucket_lower_bound(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A lock-free histogram of `u64` samples. The recorder hands out
/// shared `Arc<Histogram>` handles, registered by name like counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; N_BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("bucket count is N_BUCKETS");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free; the running sum saturates at
    /// `u64::MAX` instead of wrapping (same guard as
    /// [`Counter::add`](crate::Counter::add)).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.sum.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram. Concurrent recording keeps
    /// the snapshot internally close-to-consistent (each bucket is read
    /// once); totals are recomputed from the buckets so `count` always
    /// equals their sum.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; N_BUCKETS];
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            buckets[i] = v;
            count = count.saturating_add(v);
        }
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Adds every bucket of `other` into `self` — the mergeable half of
    /// the design: per-worker histograms fold into one total.
    pub fn merge_from(&self, other: &HistSnapshot) {
        for (i, &v) in other.buckets.iter().enumerate() {
            if v != 0 {
                self.buckets[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        let prev = self.sum.fetch_add(other.sum, Ordering::Relaxed);
        if prev.checked_add(other.sum).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }
}

/// An immutable copy of a [`Histogram`], with percentile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts, indexed like [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot (merging identity).
    pub fn empty() -> Self {
        HistSnapshot { buckets: vec![0; N_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The value at quantile `q` in `0.0..=1.0`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Monotone in `q`, and monotone under further recording. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                // The bucket's upper bound never under-reports a sample
                // in the bucket; cap it at the true maximum so q = 1.0
                // reports `max` exactly.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of all samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Pure merge of two snapshots — associative and commutative, with
    /// [`HistSnapshot::empty`] as identity.
    pub fn merged(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut out = self.clone();
        for (i, &v) in other.buckets.iter().enumerate() {
            out.buckets[i] = out.buckets[i].saturating_add(v);
        }
        out.count = out.count.saturating_add(other.count);
        out.sum = out.sum.saturating_add(other.sum);
        out.max = out.max.max(other.max);
        out
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// increasing bound order — the compact form reports and the
    /// Prometheus exposition use.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Every bucket's bounds are ordered, adjacent buckets touch, and
        // both bounds map back to the bucket itself.
        for i in 0..N_BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert!(lo <= hi, "bucket {i}: {lo} > {hi}");
            assert_eq!(bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of {i}");
            if i + 1 < N_BUCKETS {
                assert_eq!(bucket_lower_bound(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded_error() {
        let mut probes: Vec<u64> = (0..64)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        probes.sort_unstable();
        let mut prev = 0;
        for v in probes {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            // Relative error of the bucket width is <= 2^-SUB_BITS.
            let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
            if lo >= SUB as u64 {
                assert!((hi - lo) as f64 <= lo as f64 / (SUB as f64 - 1.0) + 1.0);
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q_and_under_recording() {
        let h = Histogram::new();
        for v in [1u64, 5, 10, 100, 1_000, 50_000, 1 << 30] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert_eq!(snap.quantile(1.0), 1 << 30, "q=1 is the exact max");
        // Recording a new maximum never lowers any quantile.
        let before: Vec<u64> = [0.5, 0.9, 0.99].iter().map(|&q| snap.quantile(q)).collect();
        h.record(1 << 40);
        let after = h.snapshot();
        for (&q, &b) in [0.5, 0.9, 0.99].iter().zip(&before) {
            assert!(after.quantile(q) >= b, "quantile({q}) decreased after a record");
        }
    }

    #[test]
    fn saturation_at_u64_max_is_safe() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(3);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert_eq!(snap.buckets[N_BUCKETS - 1], 2);
    }

    #[test]
    fn merge_is_associative_with_empty_identity() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 10, 100]);
        let b = mk(&[5, 500, u64::MAX]);
        let c = mk(&[7]);
        let left = a.merged(&b).merged(&c);
        let right = a.merged(&b.merged(&c));
        assert_eq!(left, right, "merge is associative");
        assert_eq!(a.merged(&HistSnapshot::empty()), a, "empty is the identity");
        assert_eq!(left.count, 7);
        // Atomic merge_from agrees with the pure merge.
        let h = Histogram::new();
        h.merge_from(&a);
        h.merge_from(&b);
        h.merge_from(&c);
        assert_eq!(h.snapshot(), left);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * 7 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 40_000);
    }
}
