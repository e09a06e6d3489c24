//! The long-running `tcgen serve` daemon.
//!
//! One daemon process hosts any number of client connections, each of
//! which can carry several jobs at once (frames are demultiplexed by
//! request id). All jobs from all connections land on the same
//! process-global worker pool inside the engine, so a daemon is a
//! genuinely multi-tenant service: a flood of small jobs and one huge
//! compression share workers, with per-job priorities deciding who runs
//! first.
//!
//! Concurrency is bounded twice. [`ServeOptions::max_jobs`] caps how
//! many jobs *execute* at once (accepted jobs beyond that wait in line,
//! which is the service-level backpressure), and the engine's own
//! bounded pipelines apply backpressure inside each job. A panicking
//! job — an engine bug — is caught at the job boundary and reported as
//! an `RSP_ERR` frame for that request id; the daemon, its cache, and
//! its pool all keep serving.
//!
//! Shutdown is graceful by construction: `REQ_SHUTDOWN` flips a flag so
//! no new job is accepted, then waits until every accepted job has
//! finished before acknowledging and stopping the accept loop.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use tcgen_engine::{drop_idle_tables, Recorder};
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

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Jobs allowed to execute concurrently; further accepted jobs
    /// queue. Zero means one.
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

struct Limits {
    /// Jobs accepted (REQ_END seen) and not yet finished.
    accepted: usize,
    /// Jobs currently executing (holding one of the `max_jobs` slots).
    running: usize,
    shutting_down: bool,
}

/// State shared by the accept loop, every connection thread, and every
/// job thread.
pub struct Daemon {
    cache: EngineCache,
    recorder: Recorder,
    serve_track: TrackId,
    job_stats: Arc<PoolStats>,
    limits: Mutex<Limits>,
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
            limits: Mutex::new(Limits { accepted: 0, running: 0, shutting_down: false }),
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

    /// Accepted jobs currently waiting for an execution slot.
    pub fn queue_depth(&self) -> u64 {
        let limits = self.limits.lock().unwrap();
        limits.accepted.saturating_sub(limits.running) as u64
    }

    /// Jobs currently executing.
    pub fn running_jobs(&self) -> u64 {
        self.limits.lock().unwrap().running as u64
    }

    /// Engines warm in the spec cache.
    pub fn cached_engines(&self) -> u64 {
        self.cache.len() as u64
    }

    /// The execution-slot cap (`--max-jobs`).
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

    /// Accepts a job for execution, or refuses because the daemon is
    /// draining. The queue depth reported to telemetry is how many
    /// accepted jobs are waiting for an execution slot right now.
    fn try_accept_job(&self) -> bool {
        let mut limits = self.limits.lock().unwrap();
        if limits.shutting_down {
            return false;
        }
        // Depth = jobs already waiting for a slot when this one arrived.
        self.job_stats.on_submit(limits.accepted.saturating_sub(limits.running));
        limits.accepted += 1;
        self.recorder.counter("serve.jobs").add(1);
        true
    }

    /// Blocks until one of the `max_jobs` execution slots is free.
    fn acquire_slot(&self) {
        let mut limits = self.limits.lock().unwrap();
        if limits.running >= self.max_jobs {
            // Backpressure engaged: the service is at its concurrency
            // cap and this job queues. The counter makes that visible
            // to `stats` (and provable in tests).
            self.recorder.counter("serve.backpressure_waits").add(1);
        }
        while limits.running >= self.max_jobs {
            limits = self.changed.wait(limits).unwrap();
        }
        limits.running += 1;
    }

    /// Releases the slot and the accepted count; wakes waiters (queued
    /// jobs and a draining shutdown).
    fn finish_job(&self) {
        let mut limits = self.limits.lock().unwrap();
        limits.running -= 1;
        limits.accepted -= 1;
        self.job_stats.on_complete();
        drop(limits);
        self.changed.notify_all();
    }

    /// Releases the accepted count of a job that never ran, and so never
    /// took a slot; wakes a draining shutdown.
    fn abandon_job(&self) {
        self.limits.lock().expect("no thread panics holding the limits lock").accepted -= 1;
        self.changed.notify_all();
    }

    /// Flips the shutdown flag and blocks until every accepted job has
    /// finished. Idempotent; later calls just wait for the drain.
    fn begin_shutdown_and_drain(&self) {
        let mut limits = self.limits.lock().unwrap();
        limits.shutting_down = true;
        while limits.accepted > 0 {
            limits = self.changed.wait(limits).unwrap();
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.limits.lock().unwrap().shutting_down
    }

    /// Waits for in-flight jobs without initiating shutdown — the
    /// accept loop's last act, so `serve` never returns with work live.
    fn wait_drained(&self) {
        let mut limits = self.limits.lock().unwrap();
        while limits.accepted > 0 {
            limits = self.changed.wait(limits).unwrap();
        }
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Serves clients on a unix domain socket at `path` until a client
/// sends `REQ_SHUTDOWN`. A stale socket file from a previous run is
/// replaced. Returns once the listener has stopped and every accepted
/// job has drained.
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
    daemon.wait_drained();
    Ok(())
}

/// Serves exactly one client over standard input/output — `tcgen serve
/// --stdio`, the inetd/ssh-friendly mode. Returns at EOF or after a
/// shutdown request drains.
pub fn serve_stdio(options: &ServeOptions) -> io::Result<()> {
    let daemon = Daemon::new(options);
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
    serve_connection(&daemon, io::BufReader::new(io::stdin()), &writer, &|| {});
    daemon.wait_drained();
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
                let Some(pending) = open.remove(&id) else {
                    send_error(writer, id, "end frame for a request that is not open");
                    return;
                };
                if !daemon.try_accept_job() {
                    send_error(writer, id, "server is shutting down");
                    continue;
                }
                spawn_job(daemon, writer, id, pending);
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

/// Runs one accepted job on its own thread: waits for an execution
/// slot, executes under `catch_unwind`, and streams the outcome back.
fn spawn_job(daemon: &Arc<Daemon>, writer: &SharedWriter, id: u32, pending: OpenRequest) {
    let daemon_for_job = Arc::clone(daemon);
    let writer_for_job = Arc::clone(writer);
    let spawned = std::thread::Builder::new().name("tcgen-serve-job".into()).spawn(move || {
        let daemon = daemon_for_job;
        let writer = writer_for_job;
        let kind = pending.request.kind;
        let trace = pending.request.trace_id;
        // Everything the job records — the admission-wait and job spans
        // here, and every engine span on pool workers via the pipeline's
        // submit-time capture — carries the client-minted trace id.
        with_trace_id(trace, || {
            let wait_start = Instant::now();
            daemon.acquire_slot();
            daemon.recorder.record_span(daemon.serve_track, "serve.wait", wait_start);
            daemon.recorder.counter("serve.bytes_in").add(pending.input.len() as u64);
            daemon.recorder.histogram("serve.job_bytes_in").record(pending.input.len() as u64);
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_job(&pending.request, &pending.input, &daemon.cache, Some(&daemon.recorder))
            }));
            // This thread makes no further engine call: free its table
            // set before the result is sent, not when the thread exits.
            drop_idle_tables();
            daemon.recorder.record_span(daemon.serve_track, span_name(kind), start);
            let dur = start.elapsed();
            daemon.recorder.histogram("serve.job_duration_ns").record(dur.as_nanos() as u64);
            let result = match outcome {
                Ok(result) => result,
                Err(panic) => {
                    Err(format!("internal error: job panicked: {}", panic_text(&panic)))
                }
            };
            daemon.recorder.counter(jobs_counter_name(kind, result.is_ok())).add(1);
            let dur_ms = dur.as_millis() as u64;
            if daemon.slow_ms > 0 && dur_ms >= daemon.slow_ms {
                daemon.emit_event(&format!(
                    "slow_request ts_ms={} trace={:016x} kind={} dur_ms={} bytes_in={}",
                    Daemon::unix_ms(),
                    trace,
                    kind.name(),
                    dur_ms,
                    pending.input.len(),
                ));
            }
            match result {
                Ok(bytes) => {
                    daemon.recorder.counter("serve.bytes_out").add(bytes.len() as u64);
                    daemon.recorder.histogram("serve.job_bytes_out").record(bytes.len() as u64);
                    send_result(&writer, id, &bytes)
                }
                Err(msg) => {
                    daemon.recorder.counter("serve.errors").add(1);
                    daemon.emit_event(&format!(
                        "job_error ts_ms={} trace={:016x} kind={} error={:?}",
                        Daemon::unix_ms(),
                        trace,
                        kind.name(),
                        msg,
                    ));
                    send_error(&writer, id, &msg);
                }
            }
            // Only now does the job count as drained: a graceful shutdown
            // waits until results are on the wire, not merely computed.
            daemon.finish_job();
        });
    });
    if spawned.is_err() {
        daemon.abandon_job();
        send_error(writer, id, "internal error: could not spawn a job thread");
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

    /// A job whose thread could not be spawned gives back its accepted
    /// count and nothing else: the counts read zero, and the next job
    /// gets the only slot at once.
    #[test]
    fn an_unspawned_job_releases_only_its_accepted_count() {
        let daemon = Daemon::new(&ServeOptions { max_jobs: 1, ..ServeOptions::default() });
        assert!(daemon.try_accept_job());
        daemon.abandon_job();
        assert_eq!(daemon.running_jobs(), 0);
        assert_eq!(daemon.queue_depth(), 0);

        assert!(daemon.try_accept_job());
        daemon.acquire_slot();
        assert_eq!(daemon.running_jobs(), 1);
        assert_eq!(daemon.recorder().counter("serve.backpressure_waits").get(), 0);
        daemon.finish_job();
        assert_eq!((daemon.running_jobs(), daemon.queue_depth()), (0, 0));
    }
}
