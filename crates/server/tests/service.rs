//! End-to-end tests of the `tcgen serve` daemon over a real unix
//! socket: byte identity against direct engine calls, multi-tenant
//! concurrency with backpressure, fault isolation, protocol abuse, the
//! engine cache, and graceful shutdown.
//!
//! Timing assertions are written for a single-CPU container: the
//! overlapping work is *sleeping*, so concurrency shows up in
//! wall-clock time even with one core.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tcgen_engine::telemetry::json;
use tcgen_server::proto::{self, frame_type};
use tcgen_server::{Client, ClientError, Daemon, JobKind, JobRequest, ServeOptions};

const SPEC: &str =
    "TCgen Trace Specification;\n32-Bit Field 1 = {L1 = 1, L2 = 64: FCM1[2]};\nPC = Field 1;";

fn trace(records: u64) -> Vec<u8> {
    let mut raw = Vec::new();
    for i in 0..records {
        raw.extend_from_slice(&(0x4000_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
    }
    raw
}

/// Starts a daemon on a fresh socket path; the caller shuts it down
/// with [`Client::shutdown`] and joins the handle.
fn start_daemon(options: ServeOptions) -> (PathBuf, std::thread::JoinHandle<()>) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("tcgen-serve-test-{}-{n}.sock", std::process::id()));
    let serve_path = path.clone();
    let handle = std::thread::spawn(move || {
        tcgen_server::serve_unix(&serve_path, &options).expect("daemon failed");
    });
    // Wait for the socket to accept connections.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if UnixStream::connect(&path).is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never came up at {path:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    (path, handle)
}

fn sleep_request(millis: u64) -> JobRequest {
    let mut req = JobRequest::new(JobKind::DebugSleep, "");
    req.range_start = millis;
    req
}

#[test]
fn served_results_are_byte_identical_to_direct_engine_calls() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let raw = trace(600);
    let spec = tcgen_spec::parse(SPEC).unwrap();
    for threads in [1u32, 3] {
        for profile in [0u8, 2] {
            for checkpoint_blocks in [0u32, 2] {
                let mut req = JobRequest::new(JobKind::Compress, SPEC);
                req.threads = threads;
                req.profile = profile;
                req.block_records = 100;
                req.checkpoint_blocks = checkpoint_blocks;

                let mut options = tcgen_engine::EngineOptions::tcgen();
                options.backend = tcgen_engine::Backend::from_id(profile).unwrap();
                options.threads = threads as usize;
                options.block_records = 100;
                options.checkpoint_blocks = checkpoint_blocks as usize;
                let engine = tcgen_engine::Engine::new(spec.clone(), options);
                let direct = engine.compress(&raw).unwrap();

                let mut client = Client::connect(&path).unwrap();
                let served = client.run(&req, &raw).unwrap();
                assert_eq!(
                    served, direct,
                    "threads={threads} profile={profile} checkpoints={checkpoint_blocks}"
                );

                req.kind = JobKind::Decompress;
                let back = client.run(&req, &served).unwrap();
                assert_eq!(back, raw);

                if checkpoint_blocks > 0 {
                    req.kind = JobKind::Extract;
                    req.range_start = 150;
                    req.range_end = 450;
                    let slice = client.run(&req, &served).unwrap();
                    assert_eq!(slice, raw[150 * 4..450 * 4].to_vec());

                    req.kind = JobKind::Inspect;
                    let info = String::from_utf8(client.run(&req, &served).unwrap()).unwrap();
                    assert!(info.contains("\"total_records\": 600"), "{info}");
                }
            }
        }
    }
    Client::connect(&path).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn one_daemon_sustains_four_concurrent_jobs() {
    let (path, handle) = start_daemon(ServeOptions {
        max_jobs: 4,
        max_cached_engines: 4,
        ..ServeOptions::default()
    });
    let start = Instant::now();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                let input = vec![i as u8; 64];
                let out = client.run(&sleep_request(300), &input).unwrap();
                assert_eq!(out, input, "each tenant gets its own bytes back");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(1000),
        "four 300ms jobs took {elapsed:?}; they should overlap, not serialise to 1200ms"
    );

    let mut client = Client::connect(&path).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"pool\":\"serve-jobs\""), "{stats}");
    assert!(stats.contains("\"serve.jobs\":4"), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn max_jobs_applies_backpressure_to_excess_jobs() {
    let (path, handle) = start_daemon(ServeOptions {
        max_jobs: 1,
        max_cached_engines: 4,
        ..ServeOptions::default()
    });
    let start = Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                client.run(&sleep_request(250), b"x").unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(490),
        "max_jobs=1 must serialise two 250ms jobs, finished in {elapsed:?}"
    );

    let mut client = Client::connect(&path).unwrap();
    let stats = client.stats().unwrap();
    // With one execution slot, the second job had to wait for a slot —
    // the backpressure counter proves the cap engaged.
    assert!(stats.contains("\"serve.backpressure_waits\":1"), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_panicking_job_is_an_error_frame_not_a_dead_daemon() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let mut client = Client::connect(&path).unwrap();
    let err = client.run(&JobRequest::new(JobKind::DebugPanic, ""), b"boom").unwrap_err();
    match err {
        ClientError::Server(msg) => assert!(
            msg.contains("internal error: job panicked: debug-panic job requested"),
            "{msg}"
        ),
        other => panic!("expected a server error frame, got {other:?}"),
    }
    // Same connection, next job: the daemon and its pool survived.
    let out = client.run(&sleep_request(0), b"still alive").unwrap();
    assert_eq!(out, b"still alive");
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"serve.errors\":1"), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Reads the error frame a protocol violation should provoke, and
/// confirms the daemon closed the connection after it.
fn expect_err_then_close(stream: &mut UnixStream, needle: &str) {
    let frame = proto::read_frame(stream).unwrap().expect("an RSP_ERR frame");
    assert_eq!(frame.frame_type, frame_type::RSP_ERR);
    let msg = String::from_utf8_lossy(&frame.payload).into_owned();
    assert!(msg.contains(needle), "expected {needle:?} in {msg:?}");
    assert!(proto::read_frame(stream).unwrap().is_none(), "connection should be closed");
}

#[test]
fn protocol_violations_are_rejected_loudly_and_the_daemon_survives() {
    let (path, handle) = start_daemon(ServeOptions::default());

    // Oversized declared length: rejected before any allocation.
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 10]).unwrap();
    expect_err_then_close(&mut s, "exceeds");

    // Corrupted payload: the CRC catches it.
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, frame_type::REQ_DATA, 1, b"corrupt me").unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0x01;
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(&buf).unwrap();
    expect_err_then_close(&mut s, "CRC");

    // Unknown frame type.
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, 0x77, 9, b"").unwrap();
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(&buf).unwrap();
    expect_err_then_close(&mut s, "unknown frame type");

    // Data for a request that was never opened.
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, frame_type::REQ_DATA, 5, b"orphan").unwrap();
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(&buf).unwrap();
    expect_err_then_close(&mut s, "not open");

    // Truncated frame then hangup, and a mid-job disconnect: the
    // daemon just drops the connection.
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[1u8; 4]).unwrap();
    drop(s);
    let mut s = UnixStream::connect(&path).unwrap();
    let open = proto::encode_open(&sleep_request(200));
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, frame_type::REQ_OPEN, 2, &open).unwrap();
    proto::write_frame(&mut buf, frame_type::REQ_DATA, 2, b"abandoned").unwrap();
    proto::write_frame(&mut buf, frame_type::REQ_END, 2, b"").unwrap();
    s.write_all(&buf).unwrap();
    drop(s);

    // After all that abuse, a well-behaved client still gets service.
    let mut client = Client::connect(&path).unwrap();
    assert_eq!(client.run(&sleep_request(0), b"ok").unwrap(), b"ok");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn engine_cache_hits_misses_and_evictions_show_in_stats() {
    let (path, handle) = start_daemon(ServeOptions {
        max_jobs: 2,
        max_cached_engines: 1,
        ..ServeOptions::default()
    });
    let raw = trace(200);
    let mut client = Client::connect(&path).unwrap();
    let mut req = JobRequest::new(JobKind::Compress, SPEC);
    req.threads = 1;

    client.run(&req, &raw).unwrap(); // miss: first build
    client.run(&req, &raw).unwrap(); // hit
    let mut other = req.clone();
    other.profile = 2;
    client.run(&other, &raw).unwrap(); // miss, evicts the max-profile engine
    client.run(&req, &raw).unwrap(); // miss again: capacity 1 evicted it

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"serve.cache_hit\":1"), "{stats}");
    assert!(stats.contains("\"serve.cache_miss\":3"), "{stats}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The `tables.built` and `tables.reused` counters of a stats report.
fn table_counts(stats: &str) -> (u64, u64) {
    let v = json::parse(stats).expect("stats JSON parses");
    let counters = v.get("counters").unwrap();
    let count = |name| counters.get(name).and_then(|c| c.as_u64()).unwrap_or(0);
    (count("tables.built"), count("tables.reused"))
}

#[test]
fn sequential_jobs_reuse_one_worker_table_set() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let raw = trace(400);
    let mut req = JobRequest::new(JobKind::Compress, SPEC);
    req.threads = 1;
    let mut client = Client::connect(&path).unwrap();
    let first = client.run(&req, &raw).unwrap();
    for _ in 0..5 {
        assert_eq!(client.run(&req, &raw).unwrap(), first);
    }
    // Each job goes to the worker that served the one before, which
    // resets its parked set instead of building one.
    assert_eq!(table_counts(&client.stats().unwrap()), (1, 5));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_closed_loop_clients_build_one_table_set_each_at_most() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let raw = trace(400);
                let mut req = JobRequest::new(JobKind::Compress, SPEC);
                req.threads = 1;
                let mut client = Client::connect(&path).unwrap();
                for _ in 0..5 {
                    client.run(&req, &raw).unwrap();
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let mut client = Client::connect(&path).unwrap();
    let (built, reused) = table_counts(&client.stats().unwrap());
    assert!(built <= 2, "two closed-loop clients need two workers: built {built}");
    assert_eq!(built + reused, 10, "one set per job, built or reused");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Like [`start_daemon`], but the test owns the [`Daemon`] so it can
/// read the recorder and inject an event sink.
fn start_owned_daemon(
    options: ServeOptions,
) -> (PathBuf, Arc<Daemon>, std::thread::JoinHandle<()>) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("tcgen-serve-owned-{}-{n}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let daemon = Daemon::new(&options);
    let serve_daemon = Arc::clone(&daemon);
    let serve_path = path.clone();
    let handle = std::thread::spawn(move || {
        tcgen_server::daemon::serve_listener(&serve_daemon, &listener, &serve_path)
            .expect("daemon failed");
    });
    (path, daemon, handle)
}

/// A `Write` that appends into a shared buffer — the injectable event
/// sink for asserting on slow-request and job-error log lines.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn trace_ids_propagate_to_every_span_and_the_slow_log_fires_exactly_once() {
    let options = ServeOptions { slow_ms: 25, ..ServeOptions::default() };
    let (path, daemon, handle) = start_owned_daemon(options);
    let events = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    daemon.set_event_sink(Box::new(events.clone()));

    let raw = trace(300);
    let mut req = JobRequest::new(JobKind::Compress, SPEC);
    req.threads = 2;
    req.block_records = 100;
    req.trace_id = 0xA11C_E000_0000_0042;
    let mut client = Client::connect(&path).unwrap();
    client.run(&req, &raw).unwrap();

    // Every span of the job's lifecycle — admission wait, the serve
    // span, the engine's driver span, and the pool workers' pack spans —
    // carries the client-minted trace id.
    let spans = daemon.recorder().spans();
    let traced: Vec<&str> =
        spans.iter().filter(|s| s.trace == req.trace_id).map(|s| s.name).collect();
    assert!(traced.contains(&"serve.wait"), "admission wait traced: {traced:?}");
    assert!(traced.contains(&"serve.compress"), "serve span traced: {traced:?}");
    assert!(traced.contains(&"compress"), "engine driver span traced: {traced:?}");
    assert!(
        traced.iter().any(|n| !n.starts_with("serve.") && *n != "compress"),
        "at least one pool-worker span traced: {traced:?}"
    );
    assert!(
        spans.iter().all(|s| s.trace == req.trace_id || s.trace == 0),
        "no span carries a foreign trace id"
    );

    // A job over the --slow-ms threshold emits exactly one slow_request
    // line carrying the trace id; a fast job emits none.
    let mut slow = sleep_request(80);
    slow.trace_id = 0xBEE5;
    client.run(&slow, b"x").unwrap();
    client.run(&sleep_request(0), b"y").unwrap();
    let log = String::from_utf8(events.0.lock().unwrap().clone()).unwrap();
    let slow_lines: Vec<&str> =
        log.lines().filter(|l| l.starts_with("slow_request ")).collect();
    assert_eq!(slow_lines.len(), 1, "exactly one slow line: {log:?}");
    assert!(slow_lines[0].contains("trace=000000000000bee5"), "{}", slow_lines[0]);
    assert!(slow_lines[0].contains("kind=sleep"), "{}", slow_lines[0]);
    assert!(slow_lines[0].contains("dur_ms="), "{}", slow_lines[0]);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn job_failures_emit_a_structured_event_line() {
    let (path, daemon, handle) = start_owned_daemon(ServeOptions::default());
    let events = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    daemon.set_event_sink(Box::new(events.clone()));

    let mut client = Client::connect(&path).unwrap();
    let mut req = JobRequest::new(JobKind::DebugPanic, "");
    req.trace_id = 0xDEAD;
    client.run(&req, b"boom").unwrap_err();

    let log = String::from_utf8(events.0.lock().unwrap().clone()).unwrap();
    let err_lines: Vec<&str> = log.lines().filter(|l| l.starts_with("job_error ")).collect();
    assert_eq!(err_lines.len(), 1, "{log:?}");
    assert!(err_lines[0].contains("ts_ms="), "{}", err_lines[0]);
    assert!(err_lines[0].contains("trace=000000000000dead"), "{}", err_lines[0]);
    assert!(err_lines[0].contains("kind=panic"), "{}", err_lines[0]);
    assert!(err_lines[0].contains("panicked: debug-panic job requested"), "{}", err_lines[0]);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn queued_jobs_start_highest_priority_first() {
    let (path, daemon, handle) =
        start_owned_daemon(ServeOptions { max_jobs: 1, ..ServeOptions::default() });
    let wait_until = |what: &str, ready: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let finished = Arc::new(Mutex::new(Vec::new()));
    let submit = |name: &'static str, priority: u8, millis: u64| {
        let (path, finished) = (path.clone(), Arc::clone(&finished));
        std::thread::spawn(move || {
            let mut req = sleep_request(millis);
            req.priority = priority;
            Client::connect(&path).unwrap().run(&req, name.as_bytes()).unwrap();
            finished.lock().unwrap().push(name);
        })
    };
    // The only worker runs a 300 ms job while two more queue, the
    // priority-1 job first.
    let blocker = submit("blocker", 0, 300);
    wait_until("the blocker to start", &|| daemon.running_jobs() == 1);
    let low = submit("low", 1, 50);
    wait_until("the low job to queue", &|| daemon.queue_depth() == 1);
    let high = submit("high", 9, 50);
    wait_until("the high job to queue", &|| daemon.queue_depth() == 2);
    for client in [blocker, low, high] {
        client.join().unwrap();
    }
    assert_eq!(*finished.lock().unwrap(), ["blocker", "high", "low"]);

    let mut client = Client::connect(&path).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn repeated_stats_share_an_epoch_and_partition_jobs_without_double_counting() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let mut client = Client::connect(&path).unwrap();

    let jobs_total = |stats: &str| -> u64 {
        let v = json::parse(stats).expect("stats JSON parses");
        v.get("counters").unwrap().get("serve.jobs").unwrap().as_u64().unwrap()
    };
    let since = |stats: &str| -> u64 {
        json::parse(stats).unwrap().get("since_unix_ms").unwrap().as_u64().unwrap()
    };

    for _ in 0..2 {
        client.run(&sleep_request(0), b"a").unwrap();
    }
    let first = client.stats().unwrap();
    for _ in 0..3 {
        client.run(&sleep_request(0), b"b").unwrap();
    }
    let second = client.stats().unwrap();

    // Same epoch => cumulative counters => consecutive deltas partition
    // time exactly (2 then 3, never a double-counted job).
    assert_eq!(since(&first), since(&second), "one daemon, one epoch");
    assert_eq!(jobs_total(&first), 2);
    assert_eq!(jobs_total(&second) - jobs_total(&first), 3);

    // The report carries the job-duration histogram for the same jobs.
    let v = json::parse(&second).unwrap();
    let hists = v.get("histograms").unwrap().as_arr().unwrap();
    let durations = hists
        .iter()
        .find(|h| h.get("histogram").unwrap().as_str() == Some("serve.job_duration_ns"))
        .expect("duration histogram present");
    assert_eq!(durations.get("count").unwrap().as_u64(), Some(5));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn streamed_stats_tick_and_windows_expose_live_rates() {
    let (path, daemon, handle) = start_owned_daemon(ServeOptions::default());
    let mut jobs = Client::connect(&path).unwrap();
    for _ in 0..4 {
        jobs.run(&sleep_request(0), b"w").unwrap();
    }
    // Fill the window ring without waiting for the 250ms sampler.
    daemon.sample();
    for _ in 0..2 {
        jobs.run(&sleep_request(0), b"w").unwrap();
    }
    std::thread::sleep(Duration::from_millis(5));
    daemon.sample();

    let mut stream = Client::connect(&path).unwrap();
    let mut reports: Vec<String> = Vec::new();
    stream
        .stats_stream(20, |report| {
            reports.push(report.to_string());
            reports.len() < 3
        })
        .unwrap();
    assert_eq!(reports.len(), 3, "three stream ticks collected");

    let parsed: Vec<_> = reports.iter().map(|r| json::parse(r).unwrap()).collect();
    let epochs: Vec<u64> =
        parsed.iter().map(|v| v.get("since_unix_ms").unwrap().as_u64().unwrap()).collect();
    assert!(epochs.windows(2).all(|w| w[0] == w[1]), "stream shares one epoch");
    let windows = parsed[0].get("windows").expect("windows present").as_arr().unwrap();
    assert!(!windows.is_empty());
    let rate = windows[0]
        .get("rates")
        .unwrap()
        .get("serve.jobs")
        .expect("serve.jobs rate present")
        .as_f64()
        .unwrap();
    assert!(rate > 0.0, "jobs ran inside the window, rate must be nonzero");

    drop(stream); // closing the connection ends the stream server-side
    jobs.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn metrics_endpoint_exposes_live_job_metrics_over_http() {
    let (path, daemon, handle) = start_owned_daemon(ServeOptions::default());
    let addr = tcgen_server::start_metrics(&daemon, "127.0.0.1:0").expect("bind metrics");

    let raw = trace(200);
    let mut client = Client::connect(&path).unwrap();
    let mut req = JobRequest::new(JobKind::Compress, SPEC);
    req.threads = 1;
    client.run(&req, &raw).unwrap();
    client.run(&req, &raw).unwrap(); // second run hits the engine cache
    client.run(&JobRequest::new(JobKind::DebugPanic, ""), b"").unwrap_err();
    daemon.sample();

    let get = |path: &str| {
        use std::io::Read as _;
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    assert!(get("/healthz").contains("ok\n"));
    let metrics = get("/metrics");
    assert!(metrics.contains("tcgen_serve_jobs_total{kind=\"compress\",outcome=\"ok\"} 2"));
    assert!(metrics.contains("tcgen_serve_jobs_total{kind=\"panic\",outcome=\"error\"} 1"));
    assert!(metrics.contains("tcgen_serve_cache_events_total{result=\"hit\"} 1"));
    assert!(metrics.contains("tcgen_serve_cache_events_total{result=\"miss\"} 1"));
    assert!(metrics.contains("# TYPE tcgen_serve_job_duration_seconds histogram"));
    assert!(metrics.contains("tcgen_serve_job_duration_seconds_bucket{le=\"+Inf\"} 3"));
    assert!(metrics.contains("tcgen_serve_job_duration_seconds_p50"));
    assert!(metrics.contains("tcgen_serve_job_duration_seconds_p99"));
    assert!(metrics.contains("tcgen_serve_queue_depth 0"));
    assert!(metrics.contains("tcgen_serve_queue_depth_hwm{window=\"10s\"}"));
    for dir in ["in", "out"] {
        let needle = format!("tcgen_serve_bytes_total{{direction=\"{dir}\"}}");
        let line = metrics.lines().find(|l| l.starts_with(&needle)).expect("bytes family");
        let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0, "bytes_{dir} counted: {line}");
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let (path, handle) = start_daemon(ServeOptions::default());
    let job_path = path.clone();
    let job = std::thread::spawn(move || {
        let mut client = Client::connect(&job_path).unwrap();
        client.run(&sleep_request(400), b"slow but finished").unwrap()
    });
    // Let the slow job get accepted before asking for shutdown.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(&path).unwrap();
    let start = Instant::now();
    client.shutdown().unwrap();
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(200),
        "shutdown acknowledged after {waited:?}; it must wait for the 400ms job"
    );
    assert_eq!(job.join().unwrap(), b"slow but finished", "the drained job still delivered");
    handle.join().unwrap();
    // New connections are refused once the daemon is gone.
    assert!(UnixStream::connect(&path).is_err());
}
