//! A process-global worker pool with per-job ordered pipelines.
//!
//! The codec's block pipeline needs exactly one primitive: run many
//! independent jobs (segment compressions or decompressions) on worker
//! threads while the submitting thread keeps doing serial work (predictor
//! modeling or replay), and consume the results in the order the jobs were
//! submitted so the container bytes come out deterministically.
//!
//! A long-running service cannot afford a fresh set of threads per codec
//! call: every request would build and tear down its own threads, and two
//! concurrent requests would fight over the machine with no shared
//! scheduler. So every [`Pipeline`] registers one **job** with a single
//! process-global scheduler of *owned* (non-scoped) worker threads, at
//! the priority of its thread ([`with_job_priority`]) and with a
//! parallelism cap of its `threads`:
//!
//! * Workers scan all registered jobs and run the highest-priority
//!   eligible task, round-robin among equal priorities, so every live job
//!   makes progress and a hot job's tasks are picked up by whichever
//!   worker frees first (work sharing across jobs).
//! * A job's `max_parallel` bounds how many workers run it at once, and
//!   the pool grows its worker set to the *sum* of the parallelism caps of
//!   the jobs live at registration time, so no job can starve another of
//!   its configured share.
//! * A job's queue is unbounded: each caller bounds how far submission
//!   runs ahead of consumption itself (the codec's `ahead`).
//! * Results come back in submission order. Jobs and worker closures may
//!   borrow from the caller's stack (the `'env` lifetime), because
//!   dropping the pipeline abandons its unstarted tasks and waits out the
//!   in-flight ones before the borrow ends.
//! * A panicking job poisons *its own* pipeline — the consumer receives
//!   [`WorkerPanicked`] — while the shared workers and every other job
//!   keep running.
//!
//! Per-worker mutable state (e.g. a [`blockzip`] scratch) lives in a pool
//! of `max_parallel` slots: a task checks a slot out for its duration, so
//! at most `threads` distinct states exist per pipeline and telemetry
//! tracks keep their `{label}-{index}` names.
//!
//! Safety note: `Pipeline` erases its tasks to `'static` to hand them to
//! the owned workers. This is sound because its `Drop` drains the job
//! before `'env` ends; leaking a `Pipeline` (`mem::forget`) would break
//! that contract, so the type is crate-private and no call site leaks
//! one.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
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

/// One pipeline's registration with the scheduler.
struct Job {
    id: u64,
    /// Scheduling priority; higher runs first. Equal priorities share
    /// workers round-robin.
    priority: u8,
    /// Most workers allowed on this job at once (≥ 1).
    max_parallel: usize,
    queue: VecDeque<Task>,
    inflight: usize,
}

struct PoolState {
    jobs: Vec<Job>,
    next_job: u64,
    workers: usize,
    /// Round-robin cursor breaking priority ties across jobs.
    rr: u64,
}

impl PoolState {
    fn job(&mut self, id: u64) -> &mut Job {
        self.jobs
            .iter_mut()
            .find(|j| j.id == id)
            .expect("job is registered until its pipeline drops")
    }
}

/// The worker set shared by every pipeline in the process.
struct Scheduler {
    state: Mutex<PoolState>,
    /// Signalled when a task is queued.
    work_ready: Condvar,
    /// Signalled when a task finishes; draining pipelines wait here.
    task_done: Condvar,
}

static SCHEDULER: Scheduler = Scheduler {
    state: Mutex::new(PoolState { jobs: Vec::new(), next_job: 0, workers: 0, rr: 0 }),
    work_ready: Condvar::new(),
    task_done: Condvar::new(),
};

fn worker_loop() {
    loop {
        let (job_id, task) = {
            let mut st = SCHEDULER.state.lock().unwrap();
            loop {
                if let Some(picked) = take_task(&mut st) {
                    break picked;
                }
                st = SCHEDULER.work_ready.wait(st).unwrap();
            }
        };
        // Tasks wrap their own panic handling (a pipeline poisons
        // itself); this net only keeps the worker alive regardless.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let mut st = SCHEDULER.state.lock().unwrap();
        let mut more = false;
        if let Some(job) = st.jobs.iter_mut().find(|j| j.id == job_id) {
            job.inflight -= 1;
            more = !job.queue.is_empty() && job.inflight < job.max_parallel;
        }
        drop(st);
        SCHEDULER.task_done.notify_all();
        if more {
            // Completing freed this job's parallelism slot; wake a peer
            // in case this worker picks a different job next.
            SCHEDULER.work_ready.notify_one();
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
    /// which makes [`Pipeline::start`] record nothing.
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
/// borrow; the pipeline cannot outlive it, and its `Drop` drains its
/// pool job first.
pub(crate) struct Pipeline<'env, I, O> {
    /// This pipeline's job on the scheduler.
    job: u64,
    core: Arc<Core<O>>,
    stats: Option<Arc<PoolStats>>,
    next_in: Cell<u64>,
    #[allow(clippy::type_complexity)]
    make_task: Box<dyn Fn(u64, I) -> Box<dyn FnOnce() + Send + 'env> + 'env>,
    _env: PhantomData<&'env ()>,
}

impl<'env, I: Send + 'env, O: Send + 'env> Pipeline<'env, I, O> {
    /// Starts a pipeline with `threads` parallelism on the shared pool.
    /// `make_worker` runs once per slot on the calling thread and returns
    /// that slot's job function, which lets each concurrent task own
    /// private mutable state (e.g. a [`blockzip::Scratch`] reused across
    /// jobs).
    ///
    /// With `tel`, each worker slot gets its own timeline track named
    /// `{label}-{index}` and wraps every job in a span, and submissions
    /// record the queue depth they join.
    pub fn start<F, W>(threads: usize, tel: Option<PoolTelemetry>, make_worker: F) -> Self
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
        let job = {
            let mut st = SCHEDULER.state.lock().unwrap();
            let id = st.next_job;
            st.next_job += 1;
            st.jobs.push(Job {
                id,
                priority: current_priority(),
                max_parallel: threads,
                queue: VecDeque::new(),
                inflight: 0,
            });
            // Grow the workers so every live job can reach its full
            // `max_parallel` concurrently.
            let demand: usize = st.jobs.iter().map(|j| j.max_parallel).sum();
            while st.workers < demand {
                std::thread::Builder::new()
                    .name(format!("tcgen-pool-{}", st.workers))
                    .spawn(worker_loop)
                    .expect("spawn pool worker");
                st.workers += 1;
            }
            id
        };
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

    /// Enqueues a job. The queue is unbounded; the caller is responsible
    /// for bounding how far submission runs ahead of consumption.
    pub fn submit(&self, input: I) {
        let seq = self.next_in.get();
        self.next_in.set(seq + 1);
        let task = (self.make_task)(seq, input);
        // SAFETY: the task borrows at most `'env` data. The pipeline's
        // `Drop` runs before `'env` ends (the pipeline is bound by `'env`
        // and is never leaked), and it drains this task — run to
        // completion on a worker or dropped on the submitting thread —
        // first.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        let mut st = SCHEDULER.state.lock().unwrap();
        let queue = &mut st.job(self.job).queue;
        if let Some(stats) = &self.stats {
            // Depth of the backlog this job joins, before it is queued.
            stats.on_submit(queue.len());
        }
        queue.push_back(task);
        drop(st);
        SCHEDULER.work_ready.notify_one();
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

impl<I, O> Drop for Pipeline<'_, I, O> {
    /// Abandons unstarted tasks and blocks until in-flight ones finish,
    /// so no task outlives the data its submitter still borrows.
    fn drop(&mut self) {
        let mut st = SCHEDULER.state.lock().unwrap();
        // Abandon work nobody will consume (early-error paths)…
        let abandoned: Vec<Task> = st.job(self.job).queue.drain(..).collect();
        // …and wait out tasks already on a worker: they may borrow from
        // the submitter's stack, which outlives this drop.
        while st.job(self.job).inflight > 0 {
            st = SCHEDULER.task_done.wait(st).unwrap();
        }
        st.jobs.retain(|j| j.id != self.job);
        drop(st);
        drop(abandoned);
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

    #[test]
    fn results_come_back_in_submission_order() {
        let pipe = Pipeline::start(4, None, || {
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
        let pipe = Pipeline::start(2, None, || |n: usize| n + 1);
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
        let pipe = Pipeline::start(3, None, || |s: &[u32]| s.iter().sum::<u32>());
        for s in &slices {
            pipe.submit(s);
        }
        for s in &slices {
            assert_eq!(pipe.next().unwrap(), s.iter().sum::<u32>());
        }
    }

    #[test]
    fn worker_panic_is_reported_not_deadlocked() {
        let pipe = Pipeline::start(2, None, || {
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
        let bad = Pipeline::start(2, None, || |_: u32| -> u32 { panic!("boom") });
        let good = Pipeline::start(2, None, || |n: u32| n * 2);
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
        let pipe = Pipeline::start(4, None, || {
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
        let a = Pipeline::start(2, None, || {
            |n: u32| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                n
            }
        });
        let b = Pipeline::start(2, None, || {
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
            let pipe = Pipeline::start(
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
        let pipe = Pipeline::start(2, None, || |n: u32| n);
        for n in 0..1000u32 {
            pipe.submit(n);
        }
        assert_eq!(pipe.next().unwrap(), 0);
        // Dropping here abandons the rest; the pipeline must still drain.
    }

    #[test]
    fn priority_orders_queued_tasks_across_jobs() {
        // The scheduler's choice itself, with no worker thread to race
        // it: a gate job at its one-task cap, then a low- and a
        // high-priority task queued behind it. The high-priority task is
        // taken first, and the gate job is never eligible.
        let job = |id, priority, inflight, queued: usize| Job {
            id,
            priority,
            max_parallel: 1,
            queue: (0..queued).map(|_| Box::new(|| {}) as Task).collect(),
            inflight,
        };
        let mut st = PoolState {
            jobs: vec![job(0, 0, 1, 0), job(1, 1, 0, 1), job(2, 9, 0, 1)],
            next_job: 3,
            workers: 1,
            rr: 0,
        };
        let tags = ["gate", "low", "high"];
        let order: Vec<&str> = std::iter::from_fn(|| take_task(&mut st))
            .map(|(id, _)| tags[id as usize])
            .collect();
        assert_eq!(order, ["high", "low"]);
    }

    #[test]
    fn job_priority_is_scoped_and_restored() {
        assert_eq!(current_priority(), 0);
        let got = with_job_priority(7, current_priority);
        assert_eq!(got, 7);
        assert_eq!(current_priority(), 0);
    }
}
