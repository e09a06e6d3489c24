//! The long-running `tcgen serve` daemon.
//!
//! One daemon process hosts any number of client connections, each of
//! which can carry several jobs at once (frames are demultiplexed by
//! request id). Jobs from all connections run on the daemon's job
//! workers, and their block fan-out lands on the engine's one
//! process-global worker pool, so a daemon is a genuinely multi-tenant
//! service: a flood of small jobs and one huge compression share
//! workers, with per-job priorities deciding who runs first.
//!
//! ## Job workers
//!
//! At most [`ServeOptions::max_jobs`] long-lived workers run jobs, one
//! at a time each. They start on demand. A new job goes to the most
//! recently idle worker, whose predictor table set is the warmest: the
//! engine keeps each thread's last set and resets it for the thread's
//! next call instead of building one. A new worker starts only when no
//! worker is idle or finishing a job. Otherwise the job queues, which is
//! the service-level backpressure (`serve.backpressure_waits`), and
//! queued jobs start highest `priority` byte first, oldest first among
//! equals. A worker is free for the next job once its engine call
//! returns: it writes the previous result, then takes the job. So a
//! closed-loop client's next request waits for the worker that served
//! it, instead of racing that write and starting another worker with
//! another table set.
//!
//! Memory is bounded by the workers: each keeps at most one idle table
//! set (about 20 MB for TCGEN_A), so a daemon holds at most `max_jobs`
//! of them, and none once a shutdown drain has retired its workers.
//! Workers belong to the daemon rather than to the engine pool because
//! a served job blocks its thread until its own block tasks finish: as
//! a task on that pool it would wait on the workers it occupies.
//!
//! Concurrency is also bounded inside each job by the engine's own
//! bounded pipelines. A panicking job — an engine bug — is caught at the
//! job boundary and reported as an `RSP_ERR` frame for that request id;
//! the daemon, its cache, its workers and its pool all keep serving.
//!
//! Shutdown is graceful by construction: `REQ_SHUTDOWN` flips a flag so
//! no new job is accepted, then waits until every accepted job has put
//! its result on the wire and every worker has exited before
//! acknowledging and stopping the accept loop.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use tcgen_engine::Recorder;
use tcgen_telemetry::{with_trace_id, PoolStats, TrackId, WindowSnapshot};

use crate::cache::EngineCache;
use crate::jobs::run_job;
use crate::proto::{
    decode_open, frame_type, read_frame, write_frame, JobKind, JobRequest, ProtoError, CHUNK,
};

/// How often the daemon samples its counters into the rolling-window
/// ring. 250ms keeps a 10s window at ~40 samples for a few KB of ring.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

/// Ring capacity: enough samples to cover the 60s window with slack.
const SAMPLE_CAPACITY: usize = 300;

/// How many jobs one connection may hold open (opened, not yet ended)
/// before the daemon calls it abuse and closes the connection.
pub const MAX_OPEN_REQUESTS: usize = 64;

/// Why the admission lock is never poisoned: its holders only count,
/// queue and hand off jobs, none of which panics.
const ADMISSION_LOCK: &str = "no thread panics holding the admission lock";

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Job workers, and so jobs executing at once; further accepted
    /// jobs queue. Zero means one.
    pub max_jobs: usize,
    /// Engines kept warm in the spec cache; zero disables caching.
    pub max_cached_engines: usize,
    /// `HOST:PORT` to serve `/metrics` and `/healthz` on over HTTP;
    /// `None` disables the listener.
    pub metrics_addr: Option<String>,
    /// Jobs running at least this many milliseconds emit one structured
    /// `slow_request` event line; zero disables the slow log.
    pub slow_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_jobs: 4, max_cached_engines: 16, metrics_addr: None, slow_ms: 0 }
    }
}

/// One accepted job, queued or held by a worker.
struct Job {
    request: JobRequest,
    input: Vec<u8>,
    writer: SharedWriter,
    id: u32,
    /// When the job was accepted; its `serve.wait` span runs from here
    /// to its start.
    accepted_at: Instant,
}

/// Jobs and workers, under one lock.
#[derive(Default)]
struct Admission {
    /// Jobs accepted (REQ_END seen) whose result is not yet on the wire.
    accepted: usize,
    /// Accepted jobs no worker has taken yet, keyed so the first entry
    /// has the highest priority and, among equals, arrived first.
    queue: BTreeMap<(Reverse<u8>, u64), Job>,
    /// Arrival number of the next accepted job.
    arrivals: u64,
    /// Live workers: running a job, writing its result, or idle.
    workers: usize,
    /// Workers writing a result; each takes a queued job next.
    finishing: usize,
    /// The hand-off channel of each idle worker, the most recently idle
    /// last. Dropping one retires its worker.
    idle: Vec<Sender<Job>>,
    shutting_down: bool,
}

impl Admission {
    fn enqueue(&mut self, job: Job) {
        let key = (Reverse(job.request.priority), self.arrivals);
        self.arrivals += 1;
        self.queue.insert(key, job);
    }
}

/// What [`Daemon::admit`] did with a job.
enum Admitted {
    /// Handed to an idle worker, or queued for the next free one.
    Placed,
    /// A worker place was taken for the job; the caller starts the
    /// worker.
    StartWorker(Job),
    /// The daemon is draining.
    Refused(Job),
}

/// State shared by the accept loop, every connection thread, and every
/// job worker.
pub struct Daemon {
    cache: EngineCache,
    recorder: Recorder,
    serve_track: TrackId,
    job_stats: Arc<PoolStats>,
    admission: Mutex<Admission>,
    changed: Condvar,
    max_jobs: usize,
    slow_ms: u64,
    /// Sink for structured event lines (`slow_request`, `job_error`).
    /// Stderr in production; tests inject a buffer.
    events: Mutex<Box<dyn Write + Send>>,
}

impl Daemon {
    /// A daemon with a fresh telemetry recorder and engine cache. A
    /// background sampler thread (holding only a [`Weak`] reference, so
    /// it dies with the daemon) feeds the recorder's rolling-window
    /// ring every `SAMPLE_INTERVAL`.
    pub fn new(options: &ServeOptions) -> Arc<Self> {
        let recorder = Recorder::new();
        let serve_track = recorder.track("serve");
        let max_jobs = options.max_jobs.max(1);
        let job_stats = recorder.pool("serve-jobs", max_jobs);
        recorder.window_ring(SAMPLE_CAPACITY);
        let daemon = Arc::new(Daemon {
            cache: EngineCache::new(options.max_cached_engines),
            recorder,
            serve_track,
            job_stats,
            admission: Mutex::default(),
            changed: Condvar::new(),
            max_jobs,
            slow_ms: options.slow_ms,
            events: Mutex::new(Box::new(io::stderr())),
        });
        let weak: Weak<Daemon> = Arc::downgrade(&daemon);
        let _ = std::thread::Builder::new().name("tcgen-serve-sampler".into()).spawn(
            move || loop {
                std::thread::sleep(SAMPLE_INTERVAL);
                let Some(daemon) = weak.upgrade() else { return };
                daemon.sample();
            },
        );
        daemon
    }

    /// Pushes one observation into the rolling-window ring. The sampler
    /// thread calls this on its tick; tests call it directly to fill
    /// windows without waiting.
    pub fn sample(&self) {
        if let Some(ring) = self.recorder.window() {
            ring.push(WindowSnapshot {
                at_ns: self.recorder.elapsed_ns(),
                counters: self.recorder.counters_snapshot(),
                queue_depth: self.queue_depth(),
            });
        }
    }

    /// The daemon's process-lifetime telemetry recorder. Every cached
    /// engine reports into it, so one `stats` request sees the worker
    /// tracks and queue depths of all tenants combined.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn lock_admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect(ADMISSION_LOCK)
    }

    /// Accepted jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> u64 {
        self.lock_admission().queue.len() as u64
    }

    /// Jobs currently executing: workers neither idle nor writing a
    /// result.
    pub fn running_jobs(&self) -> u64 {
        let admission = self.lock_admission();
        (admission.workers - admission.idle.len() - admission.finishing) as u64
    }

    /// Engines warm in the spec cache.
    pub fn cached_engines(&self) -> u64 {
        self.cache.len() as u64
    }

    /// The job-worker cap (`--max-jobs`).
    pub fn max_jobs(&self) -> u64 {
        self.max_jobs as u64
    }

    /// Redirects structured event lines (stderr by default); tests use
    /// this to capture the slow-request and job-error logs.
    pub fn set_event_sink(&self, sink: Box<dyn Write + Send>) {
        *self.events.lock().unwrap() = sink;
    }

    fn emit_event(&self, line: &str) {
        let mut events = self.events.lock().unwrap();
        let _ = writeln!(events, "{line}");
        let _ = events.flush();
    }

    fn unix_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Accepts `job` and places it: with the most recently idle worker,
    /// in the queue when a worker is finishing or all `max_jobs` are
    /// busy, or else with a new worker, whose place it takes. The queue
    /// depth reported to telemetry is how many accepted jobs wait for a
    /// worker when this one arrives.
    fn admit(&self, mut job: Job) -> Admitted {
        let mut admission = self.lock_admission();
        if admission.shutting_down {
            return Admitted::Refused(job);
        }
        self.job_stats.on_submit(admission.queue.len());
        admission.accepted += 1;
        self.recorder.counter("serve.jobs").add(1);
        while let Some(worker) = admission.idle.pop() {
            match worker.send(job) {
                Ok(()) => return Admitted::Placed,
                // Its receiver is gone only if the worker died idle.
                Err(mpsc::SendError(back)) => {
                    admission.workers -= 1;
                    job = back;
                }
            }
        }
        // Each finishing worker takes one queued job once its result is
        // written; while one is left over, wait for it rather than start
        // a worker that would build another table set.
        if admission.finishing > admission.queue.len() {
            admission.enqueue(job);
            return Admitted::Placed;
        }
        if admission.workers < self.max_jobs {
            admission.workers += 1;
            return Admitted::StartWorker(job);
        }
        // Backpressure engaged: the service is at its concurrency cap
        // and this job queues. The counter makes that visible to
        // `stats` (and provable in tests).
        self.recorder.counter("serve.backpressure_waits").add(1);
        admission.enqueue(job);
        Admitted::Placed
    }

    /// Starts a worker whose first job is `job`, on the place
    /// [`Daemon::admit`] took for it. If no thread can start, the job is
    /// answered with an error frame and the place passes to the next
    /// queued job, which a worker that never started would strand.
    fn start_worker(self: &Arc<Self>, mut job: Job) {
        loop {
            let (writer, id) = (Arc::clone(&job.writer), job.id);
            let daemon = Arc::clone(self);
            let started = std::thread::Builder::new()
                .name("tcgen-serve-job".into())
                .spawn(move || daemon.work(job));
            if started.is_ok() {
                return;
            }
            send_error(&writer, id, "internal error: could not start a job worker");
            match self.worker_not_started() {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Releases the accepted count of a job whose worker did not start
    /// and wakes a draining shutdown. Returns the next queued job, which
    /// keeps the place, or gives the place back when none waits.
    fn worker_not_started(&self) -> Option<Job> {
        let mut admission = self.lock_admission();
        admission.accepted -= 1;
        self.changed.notify_all();
        let next = admission.queue.pop_first().map(|(_, job)| job);
        if next.is_none() {
            admission.workers -= 1;
        }
        next
    }

    /// A worker's life: runs `job`, then every job it takes after it,
    /// until the daemon drains.
    fn work(self: Arc<Self>, mut job: Job) {
        loop {
            self.run(job);
            match self.next_job() {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Runs one job under its trace id, catching a panic, and writes its
    /// outcome back. The worker counts as finishing from the moment the
    /// engine call returns, so the next job queues for it.
    fn run(&self, job: Job) {
        let Job { request, input, writer, id, accepted_at } = job;
        let (kind, trace) = (request.kind, request.trace_id);
        // Everything the job records — the admission-wait and job spans
        // here, and every engine span on pool workers via the pipeline's
        // submit-time capture — carries the client-minted trace id.
        with_trace_id(trace, || {
            self.recorder.record_span(self.serve_track, "serve.wait", accepted_at);
            self.recorder.counter("serve.bytes_in").add(input.len() as u64);
            self.recorder.histogram("serve.job_bytes_in").record(input.len() as u64);
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_job(&request, &input, &self.cache, Some(&self.recorder))
            }));
            self.lock_admission().finishing += 1;
            self.recorder.record_span(self.serve_track, span_name(kind), start);
            let dur = start.elapsed();
            self.recorder.histogram("serve.job_duration_ns").record(dur.as_nanos() as u64);
            let result = outcome.unwrap_or_else(|panic| {
                Err(format!("internal error: job panicked: {}", panic_text(&*panic)))
            });
            self.recorder.counter(jobs_counter_name(kind, result.is_ok())).add(1);
            let dur_ms = dur.as_millis() as u64;
            if self.slow_ms > 0 && dur_ms >= self.slow_ms {
                self.emit_event(&format!(
                    "slow_request ts_ms={} trace={:016x} kind={} dur_ms={} bytes_in={}",
                    Daemon::unix_ms(),
                    trace,
                    kind.name(),
                    dur_ms,
                    input.len(),
                ));
            }
            match result {
                Ok(bytes) => {
                    self.recorder.counter("serve.bytes_out").add(bytes.len() as u64);
                    self.recorder.histogram("serve.job_bytes_out").record(bytes.len() as u64);
                    send_result(&writer, id, &bytes)
                }
                Err(msg) => {
                    self.recorder.counter("serve.errors").add(1);
                    self.emit_event(&format!(
                        "job_error ts_ms={} trace={:016x} kind={} error={:?}",
                        Daemon::unix_ms(),
                        trace,
                        kind.name(),
                        msg,
                    ));
                    send_error(&writer, id, &msg);
                }
            }
        });
    }

    /// Counts the job whose result was just written as drained, then
    /// takes the next job: the first in the queue, else one handed to
    /// this worker while it idles. `None` once the daemon drains, and
    /// the worker exits.
    fn next_job(&self) -> Option<Job> {
        let handoff = {
            let mut admission = self.lock_admission();
            // Only now does the job count as drained: a graceful shutdown
            // waits until results are on the wire, not merely computed.
            admission.accepted -= 1;
            admission.finishing -= 1;
            self.job_stats.on_complete();
            self.changed.notify_all();
            if let Some((_, job)) = admission.queue.pop_first() {
                return Some(job);
            }
            if admission.shutting_down {
                admission.workers -= 1;
                return None;
            }
            let (worker, handoff) = mpsc::channel();
            admission.idle.push(worker);
            handoff
        };
        let job = handoff.recv().ok();
        if job.is_none() {
            // Retired by a shutdown drain.
            self.lock_admission().workers -= 1;
            self.changed.notify_all();
        }
        job
    }

    /// Flips the shutdown flag, retires the idle workers, and blocks
    /// until every accepted job has put its result on the wire and every
    /// worker has exited. Idempotent; later calls just wait.
    fn begin_shutdown_and_drain(&self) {
        let mut admission = self.lock_admission();
        admission.shutting_down = true;
        admission.idle.clear();
        while admission.accepted > 0 || admission.workers > 0 {
            admission = self.changed.wait(admission).expect(ADMISSION_LOCK);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.lock_admission().shutting_down
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Serves clients on a unix domain socket at `path` until a client
/// sends `REQ_SHUTDOWN`. A stale socket file from a previous run is
/// replaced. Returns once the listener has stopped, every accepted job
/// has drained and every job worker has exited.
pub fn serve_unix(path: &Path, options: &ServeOptions) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let daemon = Daemon::new(options);
    if let Some(addr) = &options.metrics_addr {
        let bound = crate::metrics::start_metrics(&daemon, addr)?;
        eprintln!("tcgen serve: metrics on http://{bound}/metrics");
    }
    serve_listener(&daemon, &listener, path)?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// The accept loop behind [`serve_unix`], split out so tests can run a
/// daemon they built themselves (and read its recorder afterwards).
pub fn serve_listener(
    daemon: &Arc<Daemon>,
    listener: &UnixListener,
    path: &Path,
) -> io::Result<()> {
    let wake_path: PathBuf = path.to_path_buf();
    for stream in listener.incoming() {
        if daemon.is_shutting_down() {
            break;
        }
        let stream = stream?;
        if daemon.is_shutting_down() {
            break;
        }
        let daemon = Arc::clone(daemon);
        let wake = wake_path.clone();
        std::thread::Builder::new().name("tcgen-serve-conn".into()).spawn(move || {
            let Ok(reader) = stream.try_clone() else { return };
            let writer: SharedWriter = Arc::new(Mutex::new(Box::new(stream)));
            serve_connection(&daemon, io::BufReader::new(reader), &writer, &|| {
                // Unblock the accept loop so it observes the flag.
                let _ = UnixStream::connect(&wake);
            });
        })?;
    }
    daemon.begin_shutdown_and_drain();
    Ok(())
}

/// Serves exactly one client over standard input/output — `tcgen serve
/// --stdio`, the inetd/ssh-friendly mode. Returns at EOF or after a
/// shutdown request, once the jobs have drained and the workers exited.
pub fn serve_stdio(options: &ServeOptions) -> io::Result<()> {
    let daemon = Daemon::new(options);
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
    serve_connection(&daemon, io::BufReader::new(io::stdin()), &writer, &|| {});
    daemon.begin_shutdown_and_drain();
    Ok(())
}

/// One request being assembled: its decoded `REQ_OPEN` plus the input
/// chunks received so far.
struct OpenRequest {
    request: JobRequest,
    input: Vec<u8>,
}

/// Reads frames from one client until EOF, a protocol violation, or
/// daemon shutdown. Protocol violations are answered with a loud
/// `RSP_ERR` and a closed connection — a peer that frames incorrectly
/// cannot be resynchronised. `wake` is called after a shutdown drain so
/// the accept loop wakes up and exits.
pub fn serve_connection(
    daemon: &Arc<Daemon>,
    mut reader: impl Read,
    writer: &SharedWriter,
    wake: &dyn Fn(),
) {
    let mut open: HashMap<u32, OpenRequest> = HashMap::new();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(ProtoError::Malformed(msg)) => {
                send_error(writer, 0, &format!("protocol error: {msg}"));
                return;
            }
            Err(ProtoError::Io(_)) => return,
        };
        let id = frame.request_id;
        match frame.frame_type {
            frame_type::REQ_OPEN => {
                let request = match decode_open(&frame.payload) {
                    Ok(request) => request,
                    Err(e) => {
                        send_error(writer, id, &format!("bad open request: {e}"));
                        return;
                    }
                };
                if open.len() >= MAX_OPEN_REQUESTS {
                    send_error(writer, id, "too many open requests on one connection");
                    return;
                }
                if open.insert(id, OpenRequest { request, input: Vec::new() }).is_some() {
                    send_error(writer, id, "request id is already open");
                    return;
                }
            }
            frame_type::REQ_DATA => match open.get_mut(&id) {
                Some(pending) => pending.input.extend_from_slice(&frame.payload),
                None => {
                    send_error(writer, id, "data frame for a request that is not open");
                    return;
                }
            },
            frame_type::REQ_END => {
                let Some(OpenRequest { request, input }) = open.remove(&id) else {
                    send_error(writer, id, "end frame for a request that is not open");
                    return;
                };
                let job = Job {
                    request,
                    input,
                    writer: Arc::clone(writer),
                    id,
                    accepted_at: Instant::now(),
                };
                match daemon.admit(job) {
                    Admitted::Placed => {}
                    Admitted::StartWorker(job) => daemon.start_worker(job),
                    Admitted::Refused(job) => {
                        send_error(&job.writer, job.id, "server is shutting down")
                    }
                }
            }
            frame_type::REQ_STATS => {
                let start = Instant::now();
                let report = daemon.recorder.report().to_json();
                daemon.recorder.record_span(daemon.serve_track, "serve.stats", start);
                send_result(writer, id, report.as_bytes());
            }
            frame_type::REQ_STATS_STREAM => {
                if frame.payload.len() != 4 {
                    send_error(writer, id, "stats stream payload must be a u32 interval");
                    return;
                }
                let interval =
                    u32::from_le_bytes(frame.payload[..4].try_into().unwrap()).max(10);
                let daemon = Arc::clone(daemon);
                let stream_writer = Arc::clone(writer);
                let spawned = std::thread::Builder::new()
                    .name("tcgen-serve-stats".into())
                    .spawn(move || loop {
                        let report = daemon.recorder.report().to_json();
                        {
                            // One frame per lock acquisition, so stream
                            // ticks interleave atomically with job
                            // responses on the shared connection.
                            let mut w = stream_writer.lock().unwrap();
                            if write_frame(&mut *w, frame_type::RSP_DATA, id, report.as_bytes())
                                .is_err()
                                || w.flush().is_err()
                            {
                                return;
                            }
                        }
                        if daemon.is_shutting_down() {
                            let mut w = stream_writer.lock().unwrap();
                            let _ = write_frame(&mut *w, frame_type::RSP_END, id, b"");
                            let _ = w.flush();
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(u64::from(interval)));
                    });
                if spawned.is_err() {
                    send_error(writer, id, "internal error: could not spawn a stats thread");
                }
            }
            frame_type::REQ_SHUTDOWN => {
                daemon.begin_shutdown_and_drain();
                send_result(writer, id, b"");
                wake();
            }
            other => {
                send_error(writer, id, &format!("unknown frame type {other:#04x}"));
                return;
            }
        }
    }
}

/// One static counter name per `(kind, outcome)` pair, so job outcomes
/// are countable by label without allocating in the job path.
fn jobs_counter_name(kind: JobKind, ok: bool) -> &'static str {
    match (kind, ok) {
        (JobKind::Compress, true) => "serve.jobs.compress.ok",
        (JobKind::Compress, false) => "serve.jobs.compress.error",
        (JobKind::Decompress, true) => "serve.jobs.decompress.ok",
        (JobKind::Decompress, false) => "serve.jobs.decompress.error",
        (JobKind::Inspect, true) => "serve.jobs.inspect.ok",
        (JobKind::Inspect, false) => "serve.jobs.inspect.error",
        (JobKind::Extract, true) => "serve.jobs.extract.ok",
        (JobKind::Extract, false) => "serve.jobs.extract.error",
        (JobKind::DebugSleep, true) => "serve.jobs.sleep.ok",
        (JobKind::DebugSleep, false) => "serve.jobs.sleep.error",
        (JobKind::DebugPanic, true) => "serve.jobs.panic.ok",
        (JobKind::DebugPanic, false) => "serve.jobs.panic.error",
    }
}

fn span_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Compress => "serve.compress",
        JobKind::Decompress => "serve.decompress",
        JobKind::Inspect => "serve.inspect",
        JobKind::Extract => "serve.extract",
        JobKind::DebugSleep => "serve.sleep",
        JobKind::DebugPanic => "serve.panic",
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}

/// Streams `bytes` back as `RSP_DATA` chunks and an `RSP_END`. Write
/// failures mean the client went away mid-job; the daemon shrugs.
fn send_result(writer: &SharedWriter, id: u32, bytes: &[u8]) {
    for chunk in bytes.chunks(CHUNK) {
        let mut w = writer.lock().unwrap();
        if write_frame(&mut *w, frame_type::RSP_DATA, id, chunk).is_err() {
            return;
        }
    }
    let mut w = writer.lock().unwrap();
    let _ = write_frame(&mut *w, frame_type::RSP_END, id, b"");
    let _ = w.flush();
}

fn send_error(writer: &SharedWriter, id: u32, msg: &str) {
    let mut w = writer.lock().unwrap();
    let _ = write_frame(&mut *w, frame_type::RSP_ERR, id, msg.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_job() -> Job {
        Job {
            request: JobRequest::new(JobKind::DebugSleep, ""),
            input: Vec::new(),
            writer: Arc::new(Mutex::new(Box::new(io::sink()))),
            id: 1,
            accepted_at: Instant::now(),
        }
    }

    /// A job whose worker could not start gives back its accepted count
    /// and its worker place: the counts read zero, and the next job takes
    /// the only place at once. A job queued behind it takes the place
    /// over instead of waiting for a worker that never started.
    #[test]
    fn a_worker_that_fails_to_start_releases_its_job() {
        let daemon = Daemon::new(&ServeOptions { max_jobs: 1, ..ServeOptions::default() });
        assert!(matches!(daemon.admit(sleep_job()), Admitted::StartWorker(_)));
        assert_eq!(daemon.running_jobs(), 1);
        assert!(daemon.worker_not_started().is_none());
        assert_eq!((daemon.running_jobs(), daemon.queue_depth()), (0, 0));

        assert!(matches!(daemon.admit(sleep_job()), Admitted::StartWorker(_)));
        let backpressure = daemon.recorder().counter("serve.backpressure_waits");
        assert_eq!(backpressure.get(), 0);
        assert!(matches!(daemon.admit(sleep_job()), Admitted::Placed));
        assert_eq!((daemon.queue_depth(), backpressure.get()), (1, 1));
        let next = daemon.worker_not_started().expect("the queued job takes the place");
        assert_eq!((daemon.running_jobs(), daemon.queue_depth()), (1, 0));

        daemon.start_worker(next);
        daemon.begin_shutdown_and_drain();
        assert_eq!((daemon.running_jobs(), daemon.queue_depth()), (0, 0));
        assert!(matches!(daemon.admit(sleep_job()), Admitted::Refused(_)));
    }
}
