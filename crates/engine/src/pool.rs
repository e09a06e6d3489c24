//! A process-global worker pool with per-job ordered pipelines.
//!
//! The codec's block pipeline needs exactly one primitive: run many
//! independent jobs (segment compressions or decompressions) on worker
//! threads while the submitting thread keeps doing serial work (predictor
//! modeling or replay), and consume the results in the order the jobs were
//! submitted so the container bytes come out deterministically.
//!
//! Earlier revisions spawned a fresh scoped pool per codec call. A
//! long-running service cannot afford that: every request would build and
//! tear down its own threads, and two concurrent requests would fight over
//! the machine with no shared scheduler. The pool is therefore split in
//! two layers:
//!
//! * [`SharedPool`] — a set of *owned* (non-scoped) worker threads shared
//!   by every pipeline in the process ([`SharedPool::global`]). Callers
//!   register a **job** ([`SharedPool::job`]) with a priority, a
//!   parallelism cap, and a queue capacity, and submit type-erased tasks
//!   to it. Workers scan all registered jobs and run the
//!   highest-priority eligible task, round-robin among equal priorities,
//!   so every live job makes progress and a hot job's tasks are picked up
//!   by whichever worker frees first (work sharing across jobs). A job's
//!   `max_parallel` bounds how many workers run it at once, and the pool
//!   grows its worker set to the *sum* of the parallelism caps of the
//!   jobs live at registration time — the same thread count the old
//!   per-call scoped pools would have spawned, minus the per-call spawn
//!   cost — so no job can starve another of its configured share.
//!   Submission blocks while a job's queue is at capacity
//!   (backpressure); dropping the job handle abandons unstarted tasks
//!   and blocks until in-flight ones finish.
//!
//! * [`Pipeline`] — the ordered fan-out/fan-in adapter the codec uses,
//!   now a thin veneer over a `SharedPool` job. Its API is unchanged
//!   except that no [`std::thread::scope`] is needed: jobs and worker
//!   closures may still borrow from the caller's stack (the `'env`
//!   lifetime), because dropping the pipeline drains its job before the
//!   borrow ends. A panicking job poisons *its own* pipeline — the
//!   consumer receives [`WorkerPanicked`] — while the shared workers and
//!   every other job keep running.
//!
//! Per-worker mutable state (e.g. a [`blockzip`] scratch) lives in a pool
//! of `max_parallel` slots: a task checks a slot out for its duration, so
//! at most `threads` distinct states exist per pipeline and telemetry
//! tracks keep their `{label}-{index}` names.
//!
//! Safety note: `Pipeline` erases its tasks to `'static` to hand them to
//! the owned workers. This is sound because its drop glue (the contained
//! [`JobHandle`]) drains the job before `'env` ends; leaking a `Pipeline`
//! (`mem::forget`) would break that contract, so the type is crate-private
//! and no call site leaks one.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use tcgen_telemetry::{PoolStats, Recorder, TrackId};

/// Error returned by [`Pipeline::next`] after a job panicked on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkerPanicked;

/// A unit of work handed to the shared pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Priority inherited by pipelines started on this thread; the serve
    /// daemon raises it around request handling so interactive jobs are
    /// scheduled ahead of batch work sharing the same pool.
    static JOB_PRIORITY: Cell<u8> = const { Cell::new(0) };
}

/// Runs `f` with every `Pipeline` started on this thread registering
/// its pool job at `priority` (higher is scheduled first; the default is
/// 0). Restores the previous priority on exit, including on unwind.
pub fn with_job_priority<R>(priority: u8, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOB_PRIORITY.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(JOB_PRIORITY.with(|p| p.replace(priority)));
    f()
}

fn current_priority() -> u8 {
    JOB_PRIORITY.with(|p| p.get())
}

/// Configuration for a [`SharedPool`] job.
pub(crate) struct JobConfig {
    /// Scheduling priority; higher runs first. Equal priorities share
    /// workers round-robin.
    pub priority: u8,
    /// Most workers allowed on this job at once (≥ 1).
    pub max_parallel: usize,
    /// Queue capacity; [`JobHandle::submit`] blocks at this depth.
    /// `usize::MAX` means the caller bounds submission itself.
    pub capacity: usize,
}

struct Job {
    id: u64,
    priority: u8,
    max_parallel: usize,
    capacity: usize,
    queue: VecDeque<Task>,
    inflight: usize,
}

struct PoolState {
    jobs: Vec<Job>,
    next_job: u64,
    workers: usize,
    shutdown: bool,
    /// Round-robin cursor breaking priority ties across jobs.
    rr: u64,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signalled when a task is queued or the pool shuts down.
    work_ready: Condvar,
    /// Signalled when a task starts (queue space freed) or finishes
    /// (in-flight count dropped) — submitters and drainers wait here.
    job_ready: Condvar,
}

/// A set of owned worker threads shared by many jobs.
pub(crate) struct SharedPool {
    inner: Arc<PoolInner>,
}

impl SharedPool {
    /// A pool with no workers yet; workers spawn on demand as jobs
    /// register. Unit tests build private pools for determinism —
    /// everything else uses [`SharedPool::global`].
    pub fn new() -> Self {
        Self {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    jobs: Vec::new(),
                    next_job: 0,
                    workers: 0,
                    shutdown: false,
                    rr: 0,
                }),
                work_ready: Condvar::new(),
                job_ready: Condvar::new(),
            }),
        }
    }

    /// The process-wide pool every [`Pipeline`] runs on.
    pub fn global() -> &'static SharedPool {
        static GLOBAL: OnceLock<SharedPool> = OnceLock::new();
        GLOBAL.get_or_init(SharedPool::new)
    }

    /// Registers a job and grows the worker set so that every live job
    /// can reach its full `max_parallel` concurrently.
    pub fn job(&self, cfg: JobConfig) -> JobHandle {
        let max_parallel = cfg.max_parallel.max(1);
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_job;
        st.next_job += 1;
        st.jobs.push(Job {
            id,
            priority: cfg.priority,
            max_parallel,
            capacity: cfg.capacity.max(1),
            queue: VecDeque::new(),
            inflight: 0,
        });
        let demand: usize = st.jobs.iter().map(|j| j.max_parallel).sum();
        while st.workers < demand {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name(format!("tcgen-pool-{}", st.workers))
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
            st.workers += 1;
        }
        drop(st);
        JobHandle { inner: Arc::clone(&self.inner), id }
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        // Private pools (tests) release their workers; the global pool
        // lives for the process and never drops.
        let mut st = self.inner.state.lock().unwrap();
        st.shutdown = true;
        drop(st);
        self.inner.work_ready.notify_all();
    }
}

/// A registered job on a [`SharedPool`]. Dropping it abandons queued
/// tasks and blocks until in-flight tasks complete, so tasks never
/// outlive the data their submitter still borrows.
pub(crate) struct JobHandle {
    inner: Arc<PoolInner>,
    id: u64,
}

impl JobHandle {
    /// Queues a task, blocking while the job is at capacity.
    pub fn submit(&self, task: Task) {
        let mut task = Some(task);
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let job = st
                .jobs
                .iter_mut()
                .find(|j| j.id == self.id)
                .expect("job is registered until its handle drops");
            if job.queue.len() < job.capacity {
                job.queue.push_back(task.take().unwrap());
                break;
            }
            st = self.inner.job_ready.wait(st).unwrap();
        }
        drop(st);
        self.inner.work_ready.notify_one();
    }

    /// Tasks queued but not yet started — the backlog depth a new
    /// submission would join.
    pub fn pending(&self) -> usize {
        let st = self.inner.state.lock().unwrap();
        st.jobs.iter().find(|j| j.id == self.id).map_or(0, |j| j.queue.len())
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        let abandoned: Vec<Task>;
        {
            let mut st = self.inner.state.lock().unwrap();
            let job = st
                .jobs
                .iter_mut()
                .find(|j| j.id == self.id)
                .expect("job is registered until its handle drops");
            // Abandon work nobody will consume (early-error paths)…
            abandoned = job.queue.drain(..).collect();
            // …and wait out tasks already on a worker: they may borrow
            // from the submitter's stack, which outlives this drop.
            while st.jobs.iter().find(|j| j.id == self.id).is_some_and(|j| j.inflight > 0) {
                st = self.inner.job_ready.wait(st).unwrap();
            }
            st.jobs.retain(|j| j.id != self.id);
        }
        drop(abandoned);
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let (job_id, task) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(picked) = take_task(&mut st) {
                    break picked;
                }
                st = inner.work_ready.wait(st).unwrap();
            }
        };
        // A task starting frees queue capacity for its submitter.
        inner.job_ready.notify_all();
        // Tasks wrap their own panic handling (a pipeline poisons
        // itself); this net only keeps the worker alive regardless.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let mut st = inner.state.lock().unwrap();
        let mut more = false;
        if let Some(job) = st.jobs.iter_mut().find(|j| j.id == job_id) {
            job.inflight -= 1;
            more = !job.queue.is_empty() && job.inflight < job.max_parallel;
        }
        drop(st);
        inner.job_ready.notify_all();
        if more {
            // Completing freed this job's parallelism slot; wake a peer
            // in case this worker picks a different job next.
            inner.work_ready.notify_one();
        }
    }
}

/// Picks the next task: highest priority among jobs with queued work and
/// spare parallelism, round-robin among ties.
fn take_task(st: &mut PoolState) -> Option<(u64, Task)> {
    let mut eligible: Vec<usize> = Vec::new();
    let mut top = 0u8;
    for (idx, job) in st.jobs.iter().enumerate() {
        if job.queue.is_empty() || job.inflight >= job.max_parallel {
            continue;
        }
        if eligible.is_empty() || job.priority > top {
            if job.priority > top {
                eligible.clear();
            }
            top = job.priority;
            eligible.push(idx);
        } else if job.priority == top {
            eligible.push(idx);
        }
    }
    if eligible.is_empty() {
        return None;
    }
    let pick = eligible[(st.rr % eligible.len() as u64) as usize];
    st.rr = st.rr.wrapping_add(1);
    let job = &mut st.jobs[pick];
    let task = job.queue.pop_front().expect("eligible job has queued work");
    job.inflight += 1;
    Some((job.id, task))
}

/// How an instrumented pipeline reports itself: `label` names the pool
/// (and its queue-depth stats and worker tracks, `label-0`, `label-1`,
/// …), `span` names the per-job spans recorded on those tracks.
pub(crate) struct PoolTelemetry {
    pub rec: Recorder,
    pub label: &'static str,
    pub span: &'static str,
}

impl PoolTelemetry {
    /// Builds the hookup when a recorder is attached; `None` otherwise,
    /// which makes [`Pipeline::start_instrumented`] behave exactly like
    /// [`Pipeline::start`].
    pub fn from(
        tel: Option<&Recorder>,
        label: &'static str,
        span: &'static str,
    ) -> Option<Self> {
        tel.map(|rec| Self { rec: rec.clone(), label, span })
    }
}

/// Per-slot telemetry state, resolved once at pipeline start.
struct SlotTelemetry {
    rec: Recorder,
    track: TrackId,
    span: &'static str,
    stats: Arc<PoolStats>,
}

/// One checkout-able unit of worker-private state.
struct Slot<W> {
    worker: W,
    tel: Option<SlotTelemetry>,
}

struct CoreState<O> {
    done: BTreeMap<u64, O>,
    next_out: u64,
    poisoned: bool,
}

/// The typed fan-in side shared between the submitter and its tasks.
struct Core<O> {
    state: Mutex<CoreState<O>>,
    /// Signalled when a result lands in `done` or the pipeline poisons.
    done_ready: Condvar,
}

/// An ordered fan-out/fan-in queue over the shared worker pool.
///
/// `'env` is the lifetime of everything the jobs and worker closures
/// borrow; the pipeline cannot outlive it, and its drop glue drains the
/// underlying pool job first.
pub(crate) struct Pipeline<'env, I, O> {
    /// Dropped first: closes the job, abandons unstarted tasks, and
    /// joins in-flight ones before any borrowed data can die.
    job: JobHandle,
    core: Arc<Core<O>>,
    stats: Option<Arc<PoolStats>>,
    next_in: Cell<u64>,
    #[allow(clippy::type_complexity)]
    make_task: Box<dyn Fn(u64, I) -> Box<dyn FnOnce() + Send + 'env> + 'env>,
    _env: PhantomData<&'env ()>,
}

impl<'env, I: Send + 'env, O: Send + 'env> Pipeline<'env, I, O> {
    /// Starts a pipeline with `threads` parallelism on the global pool.
    /// `make_worker` runs once per slot on the calling thread and returns
    /// that slot's job function, which lets each concurrent task own
    /// private mutable state (e.g. a [`blockzip::Scratch`] reused across
    /// jobs).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn start<F, W>(threads: usize, make_worker: F) -> Self
    where
        F: Fn() -> W,
        W: FnMut(I) -> O + Send + 'env,
    {
        Self::start_instrumented(threads, None, make_worker)
    }

    /// [`Pipeline::start`] with optional telemetry: each worker slot gets
    /// its own timeline track named `{label}-{index}` and wraps every job
    /// in a span, and submissions record the queue depth they join. With
    /// `tel` of `None` this is exactly [`Pipeline::start`].
    pub fn start_instrumented<F, W>(
        threads: usize,
        tel: Option<PoolTelemetry>,
        make_worker: F,
    ) -> Self
    where
        F: Fn() -> W,
        W: FnMut(I) -> O + Send + 'env,
    {
        let threads = threads.max(1);
        let stats = tel.as_ref().map(|t| t.rec.pool(t.label, threads));
        let mut slot_stack = Vec::with_capacity(threads);
        for i in 0..threads {
            let slot_tel = tel.as_ref().zip(stats.as_ref()).map(|(t, stats)| SlotTelemetry {
                rec: t.rec.clone(),
                track: t.rec.track(format!("{}-{i}", t.label)),
                span: t.span,
                stats: Arc::clone(stats),
            });
            slot_stack.push(Slot { worker: make_worker(), tel: slot_tel });
        }
        // Slots are checked out in LIFO order, so track indices name
        // slots, not OS threads — the set of names is stable either way.
        let slots = Arc::new(Mutex::new(slot_stack));
        let core = Arc::new(Core {
            state: Mutex::new(CoreState {
                done: BTreeMap::new(),
                next_out: 0,
                poisoned: false,
            }),
            done_ready: Condvar::new(),
        });
        let job = SharedPool::global().job(JobConfig {
            priority: current_priority(),
            max_parallel: threads,
            // Call sites bound how far submission runs ahead of
            // consumption themselves, exactly as before.
            capacity: usize::MAX,
        });
        let make_task = {
            let core = Arc::clone(&core);
            Box::new(move |seq: u64, input: I| -> Box<dyn FnOnce() + Send + 'env> {
                let slots = Arc::clone(&slots);
                let core = Arc::clone(&core);
                // Capture the submitting thread's request trace at submit
                // time and re-establish it on the worker, so spans a task
                // records are attributed to the request that enqueued it.
                let trace = tcgen_telemetry::current_trace_id();
                Box::new(move || {
                    tcgen_telemetry::with_trace_id(trace, || run_one(&slots, &core, seq, input))
                })
            })
        };
        Self { job, core, stats, next_in: Cell::new(0), make_task, _env: PhantomData }
    }

    /// Enqueues a job. The adapter's queue is unbounded; the caller is
    /// responsible for bounding how far submission runs ahead of
    /// consumption.
    pub fn submit(&self, input: I) {
        if let Some(stats) = &self.stats {
            // Depth of the backlog this job joins, before it is queued.
            stats.on_submit(self.job.pending());
        }
        let seq = self.next_in.get();
        self.next_in.set(seq + 1);
        let task = (self.make_task)(seq, input);
        // SAFETY: the task borrows at most `'env` data. `self.job` is
        // dropped before `'env` ends (the pipeline is bound by `'env`
        // and is never leaked), and its drop drains this task — run to
        // completion or dropped on the submitting thread — first.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        self.job.submit(task);
    }

    /// Blocks until the result of the oldest unconsumed submission is
    /// ready and returns it. Calling this more times than [`submit`] was
    /// called deadlocks — the codec always consumes exactly one result
    /// per submission.
    ///
    /// # Errors
    ///
    /// [`WorkerPanicked`] if any job panicked.
    pub fn next(&self) -> Result<O, WorkerPanicked> {
        let mut st = self.core.state.lock().unwrap();
        loop {
            if st.poisoned {
                return Err(WorkerPanicked);
            }
            let seq = st.next_out;
            if let Some(out) = st.done.remove(&seq) {
                st.next_out += 1;
                return Ok(out);
            }
            st = self.core.done_ready.wait(st).unwrap();
        }
    }
}

/// Runs one pipeline task on a pool worker: check a slot out, run the
/// worker function under the panic net, file the result by sequence.
fn run_one<I, O, W: FnMut(I) -> O>(
    slots: &Mutex<Vec<Slot<W>>>,
    core: &Core<O>,
    seq: u64,
    input: I,
) {
    if core.state.lock().unwrap().poisoned {
        // A sibling task panicked; the consumer is bailing out, so
        // don't burn workers on results nobody will read.
        return;
    }
    let mut slot = slots
        .lock()
        .unwrap()
        .pop()
        .expect("pool caps this job's concurrency at the slot count");
    // The span covers only the job, not the queue wait, so a track's
    // busy time is a faithful per-worker CPU-time proxy.
    let result = match &slot.tel {
        Some(t) => {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| (slot.worker)(input)));
            t.rec.record_span(t.track, t.span, start);
            t.stats.on_complete();
            result
        }
        None => catch_unwind(AssertUnwindSafe(|| (slot.worker)(input))),
    };
    slots.lock().unwrap().push(slot);
    let mut st = core.state.lock().unwrap();
    match result {
        Ok(out) => {
            st.done.insert(seq, out);
        }
        Err(_) => {
            st.poisoned = true;
        }
    }
    drop(st);
    core.done_ready.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_submission_order() {
        let pipe = Pipeline::start(4, || {
            |n: u64| {
                // Stagger so later submissions often finish first.
                std::thread::sleep(std::time::Duration::from_micros(500 - n % 500));
                n * 10
            }
        });
        for n in 0..200u64 {
            pipe.submit(n);
        }
        for n in 0..200u64 {
            assert_eq!(pipe.next().unwrap(), n * 10);
        }
    }

    #[test]
    fn interleaved_submit_and_consume() {
        let pipe = Pipeline::start(2, || |n: usize| n + 1);
        let mut expect = 0;
        for round in 0..50usize {
            pipe.submit(round * 2);
            pipe.submit(round * 2 + 1);
            if round % 3 == 0 {
                while expect <= round * 2 {
                    assert_eq!(pipe.next().unwrap(), expect + 1);
                    expect += 1;
                }
            }
        }
        while expect < 100 {
            assert_eq!(pipe.next().unwrap(), expect + 1);
            expect += 1;
        }
    }

    #[test]
    fn jobs_may_borrow_from_the_callers_stack() {
        let data: Vec<u32> = (0..64).collect();
        let slices: Vec<&[u32]> = data.chunks(8).collect();
        let pipe = Pipeline::start(3, || |s: &[u32]| s.iter().sum::<u32>());
        for s in &slices {
            pipe.submit(s);
        }
        for s in &slices {
            assert_eq!(pipe.next().unwrap(), s.iter().sum::<u32>());
        }
    }

    #[test]
    fn worker_panic_is_reported_not_deadlocked() {
        let pipe = Pipeline::start(2, || {
            |n: u32| {
                assert!(n != 5, "boom");
                n
            }
        });
        for n in 0..16u32 {
            pipe.submit(n);
        }
        // Results before the panic may or may not arrive; eventually
        // the poisoned state must surface instead of hanging.
        let mut saw_error = false;
        for _ in 0..16 {
            if pipe.next().is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
    }

    #[test]
    fn panic_poisons_only_its_own_pipeline() {
        let bad = Pipeline::start(2, || |_: u32| -> u32 { panic!("boom") });
        let good = Pipeline::start(2, || |n: u32| n * 2);
        bad.submit(1);
        for n in 0..32u32 {
            good.submit(n);
        }
        assert_eq!(bad.next(), Err(WorkerPanicked));
        // The shared workers survive the sibling's panic.
        for n in 0..32u32 {
            assert_eq!(good.next().unwrap(), n * 2);
        }
    }

    #[test]
    fn workers_run_jobs_concurrently() {
        // Sleep-bound jobs overlap even on a single CPU: 8 × 100 ms on 4
        // workers must take far less than the 800 ms serial time.
        let start = std::time::Instant::now();
        let pipe = Pipeline::start(4, || {
            |n: u32| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                n
            }
        });
        for n in 0..8u32 {
            pipe.submit(n);
        }
        for n in 0..8u32 {
            assert_eq!(pipe.next().unwrap(), n);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(600),
            "8 × 100 ms jobs on 4 workers took {:?} — not overlapping",
            start.elapsed()
        );
    }

    #[test]
    fn two_jobs_share_the_pool_concurrently() {
        // Two pipelines, each capped at 2 workers, both sleeping: the
        // pool must run them side by side (4 workers total), so the
        // wall clock stays far under the 800 ms serial time.
        let start = std::time::Instant::now();
        let a = Pipeline::start(2, || {
            |n: u32| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                n
            }
        });
        let b = Pipeline::start(2, || {
            |n: u32| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                n + 100
            }
        });
        for n in 0..4u32 {
            a.submit(n);
            b.submit(n);
        }
        for n in 0..4u32 {
            assert_eq!(a.next().unwrap(), n);
            assert_eq!(b.next().unwrap(), n + 100);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(600),
            "two 2-way jobs took {:?} — not sharing the pool",
            start.elapsed()
        );
    }

    #[test]
    fn instrumented_pool_records_tracks_spans_and_depth() {
        let rec = Recorder::new();
        {
            let pipe = Pipeline::start_instrumented(
                3,
                PoolTelemetry::from(Some(&rec), "pack", "pack.segment"),
                || |n: u64| n + 1,
            );
            for n in 0..30u64 {
                pipe.submit(n);
            }
            for n in 0..30u64 {
                assert_eq!(pipe.next().unwrap(), n + 1);
            }
        }
        let report = rec.report();
        // One track per worker slot, named after the pool.
        let names: Vec<&str> = report.tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["driver", "pack-0", "pack-1", "pack-2"]);
        let stage = report.stage("pack.segment").expect("job spans recorded");
        assert_eq!(stage.count, 30);
        assert_eq!(report.pools.len(), 1);
        assert_eq!(report.pools[0].label, "pack");
        assert_eq!(report.pools[0].workers, 3);
        assert_eq!(report.pools[0].submitted, 30);
        assert_eq!(report.pools[0].completed, 30);
    }

    #[test]
    fn dropping_with_unconsumed_work_does_not_hang() {
        let pipe = Pipeline::start(2, || |n: u32| n);
        for n in 0..1000u32 {
            pipe.submit(n);
        }
        assert_eq!(pipe.next().unwrap(), 0);
        // Dropping here abandons the rest; the handle must still drain.
    }

    #[test]
    fn priority_orders_queued_tasks_across_jobs() {
        // A private 1-worker pool makes scheduling fully deterministic:
        // block the worker, queue a low- and a high-priority task, then
        // release — the high-priority task must run first.
        let pool = SharedPool::new();
        let gate = pool.job(JobConfig { priority: 0, max_parallel: 1, capacity: 4 });
        let low = pool.job(JobConfig { priority: 1, max_parallel: 1, capacity: 4 });
        let high = pool.job(JobConfig { priority: 9, max_parallel: 1, capacity: 4 });
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        gate.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv().unwrap();
        for (job, tag) in [(&low, "low"), (&high, "high")] {
            let done_tx = done_tx.clone();
            job.submit(Box::new(move || {
                done_tx.send(tag).unwrap();
            }));
        }
        release_tx.send(()).unwrap();
        let order = [done_rx.recv().unwrap(), done_rx.recv().unwrap()];
        drop(gate);
        drop(low);
        drop(high);
        assert_eq!(order, ["high", "low"]);
    }

    #[test]
    fn bounded_submission_blocks_until_space_frees() {
        // 1 worker, capacity-1 queue: with the worker blocked and one
        // task queued, a further submit must block until the worker
        // dequeues the first task.
        let pool = SharedPool::new();
        let job = Arc::new(pool.job(JobConfig { priority: 0, max_parallel: 1, capacity: 1 }));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        job.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv().unwrap();
        job.submit(Box::new(|| {})); // fills the capacity-1 queue
        let submitted = Arc::new(AtomicBool::new(false));
        let handle = {
            let job = Arc::clone(&job);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                job.submit(Box::new(|| {}));
                submitted.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !submitted.load(Ordering::SeqCst),
            "submit returned while the queue was at capacity"
        );
        release_tx.send(()).unwrap();
        handle.join().unwrap();
        assert!(submitted.load(Ordering::SeqCst));
        drop(Arc::try_unwrap(job).ok());
    }

    #[test]
    fn job_priority_is_scoped_and_restored() {
        assert_eq!(current_priority(), 0);
        let got = with_job_priority(7, current_priority);
        assert_eq!(got, 7);
        assert_eq!(current_priority(), 0);
    }
}
