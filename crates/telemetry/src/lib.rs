//! # tcgen-telemetry
//!
//! First-class pipeline telemetry for the TCgen reproduction: a designed
//! observation subsystem rather than ad-hoc `eprintln!` diagnostics.
//!
//! ## Observation model
//!
//! A [`Recorder`] observes one run of the pipeline. It collects exactly
//! three kinds of signal, all timestamped against a single monotonic
//! epoch taken at construction:
//!
//! * **Spans** — `(track, stage, start, duration)` intervals recorded by
//!   [`Recorder::span`] guards. A *track* is one lane of execution (the
//!   driver thread, or one pool worker); a *stage* is a static name from
//!   the span taxonomy (`compress`, `model.chunk`, `pack.segment`, …).
//!   Spans are pushed under a mutex, but only at block/job boundaries —
//!   never inside per-record loops — so contention is bounded by block
//!   count, not record count.
//! * **Counters** — named monotonic [`Counter`]s (bytes in/out, records,
//!   blocks, sub-stage nanoseconds). A counter handle is one
//!   `Arc<AtomicU64>`; incrementing it is a relaxed atomic add.
//! * **Pool stats** — per-pool [`PoolStats`]: jobs submitted/completed
//!   and the queue depth observed at each submission, from which the
//!   report derives mean and peak backlog.
//!
//! Everything is *passive*: a recorder never changes what the pipeline
//! computes, so compressed containers are byte-identical with telemetry
//! attached or not. Instrumented code holds an `Option<Recorder>` (or a
//! handle derived from one); when it is `None` the instrumentation is a
//! branch on a `None` and nothing else, which keeps the disabled-path
//! overhead unmeasurable.
//!
//! Sinks over a finished recorder:
//!
//! * [`Recorder::report`] — an aggregated [`Report`] with a human
//!   summary (`Display`) and machine-readable JSON
//!   ([`Report::to_json`]).
//! * [`Recorder::chrome_trace`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), one
//!   timeline track per pool worker, for visualizing pipeline overlap.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod chrome;
pub mod hist;
pub mod json;
pub mod report;
pub mod window;

pub use hist::{HistSnapshot, Histogram};
pub use report::{HistReport, PoolReport, Report, StageStats, TrackStats, WindowReport};
pub use window::{WindowDelta, WindowRing, WindowSnapshot};

thread_local! {
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with `trace` as the calling thread's current trace id, so
/// every span recorded inside carries it. The previous id is restored on
/// exit (including unwind), making nesting and pool-worker reuse safe.
/// Zero means "no trace" and is what [`current_trace_id`] reports
/// outside any `with_trace_id` scope.
pub fn with_trace_id<R>(trace: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            TRACE_ID.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(TRACE_ID.with(|t| t.replace(trace)));
    f()
}

/// The calling thread's current trace id (0 outside any
/// [`with_trace_id`] scope). Pool submit sites capture this and
/// re-establish it on the worker, so a request id follows its job across
/// threads.
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// One lane of execution in the trace: the driver thread or one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

impl TrackId {
    /// The calling thread's track, registered at recorder construction.
    pub const DRIVER: TrackId = TrackId(0);
}

/// A finished `(track, stage, start, duration)` interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The lane the stage ran on.
    pub track: TrackId,
    /// Stage name from the span taxonomy.
    pub name: &'static str,
    /// Nanoseconds from the recorder epoch to the stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Request trace id active when the span was recorded (0 = none).
    pub trace: u64,
}

/// A named monotonic counter. Cloning shares the underlying atomic, so a
/// handle can be looked up once at setup and bumped from hot-adjacent
/// code without touching the recorder again.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_update would loop; a saturating fetch_add is enough here
        // because realistic totals sit far below the ceiling — the
        // saturation guard is for pathological inputs, not precision.
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fan-out statistics for one worker pool.
#[derive(Debug)]
pub struct PoolStats {
    label: &'static str,
    workers: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    depth_sum: AtomicU64,
    depth_max: AtomicU64,
}

impl PoolStats {
    /// Records one submission observing `queue_depth` jobs already
    /// waiting (the backlog the new job joins).
    #[inline]
    pub fn on_submit(&self, queue_depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.depth_sum.fetch_add(queue_depth as u64, Ordering::Relaxed);
        self.depth_max.fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Records one finished job.
    #[inline]
    pub fn on_complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    epoch_unix_ms: u64,
    spans: Mutex<Vec<Span>>,
    tracks: Mutex<Vec<String>>,
    counters: Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    pools: Mutex<Vec<Arc<PoolStats>>>,
    hists: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    window: Mutex<Option<Arc<WindowRing>>>,
}

/// The telemetry collector for one pipeline run. Cloning is cheap and
/// shares the underlying state, so a recorder fans out to worker threads
/// alongside the work itself.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder whose epoch is now, with the driver track
    /// pre-registered as [`TrackId::DRIVER`].
    pub fn new() -> Self {
        let epoch_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                epoch_unix_ms,
                spans: Mutex::new(Vec::new()),
                tracks: Mutex::new(vec!["driver".to_string()]),
                counters: Mutex::new(Vec::new()),
                pools: Mutex::new(Vec::new()),
                hists: Mutex::new(Vec::new()),
                window: Mutex::new(None),
            }),
        }
    }

    /// Wall-clock time of the recorder epoch, milliseconds since the
    /// Unix epoch. Reports expose it as `since_unix_ms` so repeated
    /// stats pulls from one long-running recorder can be recognised as
    /// sharing an epoch (the window-consistency anchor for `tcgen top`).
    pub fn epoch_unix_ms(&self) -> u64 {
        self.inner.epoch_unix_ms
    }

    /// Registers a new track (one timeline lane) and returns its id.
    pub fn track(&self, name: impl Into<String>) -> TrackId {
        let mut tracks = self.inner.tracks.lock().unwrap();
        tracks.push(name.into());
        TrackId((tracks.len() - 1) as u32)
    }

    /// Nanoseconds elapsed since the recorder epoch.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on `track`; the span is recorded when the returned
    /// guard drops (including on unwind).
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, track: TrackId, name: &'static str) -> SpanGuard<'_> {
        SpanGuard { rec: self, track, name, start: Instant::now() }
    }

    /// Runs `f` inside a span on `track`.
    pub fn time<R>(&self, track: TrackId, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(track, name);
        f()
    }

    /// Records an already-measured span, stamped with the calling
    /// thread's current trace id.
    pub fn record_span(&self, track: TrackId, name: &'static str, start: Instant) {
        let start_ns = start.saturating_duration_since(self.inner.epoch).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        let trace = current_trace_id();
        self.inner.spans.lock().unwrap().push(Span { track, name, start_ns, dur_ns, trace });
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use. Names are static so hot-adjacent code never
    /// allocates; the handle should be looked up once and kept.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut counters = self.inner.counters.lock().unwrap();
        if let Some((_, c)) = counters.iter().find(|(n, _)| *n == name) {
            return Counter(Arc::clone(c));
        }
        let c = Arc::new(AtomicU64::new(0));
        counters.push((name, Arc::clone(&c)));
        Counter(c)
    }

    /// Returns the pool-stat block registered under `label`, creating it
    /// on first use. Re-registering (e.g. a second compression on the
    /// same recorder) accumulates into the same block and keeps the
    /// largest worker count seen.
    pub fn pool(&self, label: &'static str, workers: usize) -> Arc<PoolStats> {
        let mut pools = self.inner.pools.lock().unwrap();
        if let Some(p) = pools.iter().find(|p| p.label == label) {
            p.workers.fetch_max(workers as u64, Ordering::Relaxed);
            return Arc::clone(p);
        }
        let p = Arc::new(PoolStats {
            label,
            workers: AtomicU64::new(workers as u64),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            depth_sum: AtomicU64::new(0),
            depth_max: AtomicU64::new(0),
        });
        pools.push(Arc::clone(&p));
        p
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use. Like counters, names are static and the handle should
    /// be looked up once and kept; recording into it is wait-free.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut hists = self.inner.hists.lock().unwrap();
        if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        hists.push((name, Arc::clone(&h)));
        h
    }

    /// Returns the rolling-window ring attached to this recorder,
    /// creating one with `capacity` slots on first call. Something with
    /// a clock (the serve daemon's sampler) must push snapshots into it;
    /// the recorder itself never does.
    pub fn window_ring(&self, capacity: usize) -> Arc<WindowRing> {
        let mut window = self.inner.window.lock().unwrap();
        Arc::clone(window.get_or_insert_with(|| Arc::new(WindowRing::new(capacity))))
    }

    /// The ring attached by [`Recorder::window_ring`], if any.
    pub fn window(&self) -> Option<Arc<WindowRing>> {
        self.inner.window.lock().unwrap().clone()
    }

    /// Current counter values, sorted by name. This is what a window
    /// sampler stores in each [`WindowSnapshot`].
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counter_values().into_iter().map(|(n, v)| (n.to_string(), v)).collect()
    }

    /// A consistent copy of every span recorded so far, in completion
    /// order. Exposed for trace reconstruction (grouping one request's
    /// spans by their [`Span::trace`] id).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().unwrap().clone()
    }

    /// Aggregates everything recorded so far into a [`Report`].
    pub fn report(&self) -> Report {
        report::build(self)
    }

    /// Exports everything recorded so far as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace(self)
    }

    /// A consistent snapshot of the recorded spans and track names.
    pub(crate) fn snapshot(&self) -> (Vec<Span>, Vec<String>) {
        let spans = self.inner.spans.lock().unwrap().clone();
        let tracks = self.inner.tracks.lock().unwrap().clone();
        (spans, tracks)
    }

    pub(crate) fn counter_values(&self) -> Vec<(&'static str, u64)> {
        let counters = self.inner.counters.lock().unwrap();
        let mut values: Vec<(&'static str, u64)> =
            counters.iter().map(|(n, c)| (*n, c.load(Ordering::Relaxed))).collect();
        values.sort_by_key(|(n, _)| *n);
        values
    }

    pub(crate) fn hist_values(&self) -> Vec<(&'static str, hist::HistSnapshot)> {
        let hists = self.inner.hists.lock().unwrap();
        hists.iter().map(|(n, h)| (*n, h.snapshot())).collect()
    }

    pub(crate) fn pool_values(&self) -> Vec<report::PoolReport> {
        let pools = self.inner.pools.lock().unwrap();
        pools
            .iter()
            .map(|p| {
                let submitted = p.submitted.load(Ordering::Relaxed);
                let depth_sum = p.depth_sum.load(Ordering::Relaxed);
                report::PoolReport {
                    label: p.label.to_string(),
                    workers: p.workers.load(Ordering::Relaxed),
                    submitted,
                    completed: p.completed.load(Ordering::Relaxed),
                    depth_max: p.depth_max.load(Ordering::Relaxed),
                    depth_mean: if submitted == 0 {
                        0.0
                    } else {
                        depth_sum as f64 / submitted as f64
                    },
                }
            })
            .collect()
    }
}

/// Opens a driver-track span when a recorder is present; the usual idiom
/// at optionally-instrumented call sites:
///
/// ```
/// # use tcgen_telemetry::{driver_span, Recorder};
/// # let tel: Option<&Recorder> = None;
/// let _span = driver_span(tel, "model.chunk");
/// // ... stage work ...
/// ```
pub fn driver_span<'a>(tel: Option<&'a Recorder>, name: &'static str) -> Option<SpanGuard<'a>> {
    tel.map(|r| r.span(TrackId::DRIVER, name))
}

/// The standard counter quartet for one top-level codec operation:
/// input/output bytes, records, and blocks, under `compress.*` or
/// `decompress.*` names.
#[derive(Debug, Clone)]
pub struct OpCounters {
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    pub records: Counter,
    pub blocks: Counter,
}

impl OpCounters {
    /// The `compress.*` quartet.
    pub fn compress(rec: &Recorder) -> Self {
        Self {
            bytes_in: rec.counter("compress.bytes_in"),
            bytes_out: rec.counter("compress.bytes_out"),
            records: rec.counter("compress.records"),
            blocks: rec.counter("compress.blocks"),
        }
    }

    /// The `decompress.*` quartet.
    pub fn decompress(rec: &Recorder) -> Self {
        Self {
            bytes_in: rec.counter("decompress.bytes_in"),
            bytes_out: rec.counter("decompress.bytes_out"),
            records: rec.counter("decompress.records"),
            blocks: rec.counter("decompress.blocks"),
        }
    }
}

/// Records a span on drop. Created by [`Recorder::span`].
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    track: TrackId,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.record_span(self.track, self.name, self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_on_their_tracks() {
        let rec = Recorder::new();
        let worker = rec.track("worker-0");
        rec.time(TrackId::DRIVER, "compress", || {
            rec.time(worker, "pack.segment", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (spans, tracks) = rec.snapshot();
        assert_eq!(tracks, vec!["driver", "worker-0"]);
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        assert_eq!(spans[0].name, "pack.segment");
        assert_eq!(spans[0].track, worker);
        assert_eq!(spans[1].name, "compress");
        assert!(spans[1].dur_ns >= spans[0].dur_ns);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let rec = Recorder::new();
        let c = rec.counter("bytes");
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        // Same name returns the same counter.
        assert_eq!(rec.counter("bytes").get(), u64::MAX);
    }

    #[test]
    fn pool_stats_accumulate_and_merge_by_label() {
        let rec = Recorder::new();
        let p = rec.pool("pack", 2);
        p.on_submit(0);
        p.on_submit(4);
        p.on_complete();
        let again = rec.pool("pack", 4);
        again.on_submit(2);
        let pools = rec.pool_values();
        assert_eq!(pools.len(), 1);
        assert_eq!(pools[0].workers, 4);
        assert_eq!(pools[0].submitted, 3);
        assert_eq!(pools[0].completed, 1);
        assert_eq!(pools[0].depth_max, 4);
        assert!((pools[0].depth_mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.counter("records").add(7);
        assert_eq!(rec.counter("records").get(), 7);
    }

    #[test]
    fn spans_are_stamped_with_the_active_trace_id() {
        let rec = Recorder::new();
        with_trace_id(0xCAFE, || {
            rec.time(TrackId::DRIVER, "compress", || {
                assert_eq!(current_trace_id(), 0xCAFE);
                with_trace_id(0xBEEF, || {
                    rec.time(TrackId::DRIVER, "pack.segment", || {});
                });
                assert_eq!(current_trace_id(), 0xCAFE, "nested scope restored");
            });
        });
        assert_eq!(current_trace_id(), 0, "outermost scope restored to none");
        rec.time(TrackId::DRIVER, "model.chunk", || {});
        let spans = rec.spans();
        assert_eq!(spans[0].name, "pack.segment");
        assert_eq!(spans[0].trace, 0xBEEF);
        assert_eq!(spans[1].name, "compress");
        assert_eq!(spans[1].trace, 0xCAFE);
        assert_eq!(spans[2].trace, 0, "spans outside any scope carry no trace");
    }

    #[test]
    fn histograms_and_window_rings_are_shared_by_name() {
        let rec = Recorder::new();
        rec.histogram("serve.job_duration_ns").record(10);
        let again = rec.histogram("serve.job_duration_ns");
        assert_eq!(again.snapshot().count, 1, "same name returns the same histogram");
        let ring = rec.window_ring(8);
        let ring2 = rec.window_ring(99);
        assert!(Arc::ptr_eq(&ring, &ring2), "first capacity wins");
        assert!(rec.window().is_some());
        assert!(rec.epoch_unix_ms() > 0);
    }
}
