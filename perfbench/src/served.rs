//! The `serve-mixed` workload: the shipped `tcgen serve --socket` in a
//! child process, driven in a closed loop over unix-socket connections.
//! Each connection sends its next request when the previous reply
//! arrives; the four request kinds come in seeded rounds of five.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tcgen_engine::Backend;
use tcgen_server::{Client, JobKind, JobRequest};
use tcgen_spec::presets::TCGEN_A;
use tcgen_telemetry::{json, Recorder, TrackId};

use crate::inputs::{mix, range_at, Trace, SMALL_SPEC};
use crate::metrics::{same, Op, Sample, Tally};

/// A running `tcgen serve` child. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    pub fn spawn(tcgen: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(tcgen)
            .args(["serve", "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tcgen.display()))?;
        Ok(Daemon { child, socket: socket.to_path_buf() })
    }

    /// Connects once the daemon listens, polling every millisecond.
    pub fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(client) = Client::connect(&self.socket) {
                return Ok(client);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("tcgen serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("tcgen serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn peak_rss_mib(&self) -> f64 {
        crate::vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and exit, and reaps it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("tcgen serve did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The four request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compress with TCGEN_A and the `max` backend.
    CompressMax,
    /// Compress with the small-table spec and the `fast` backend.
    CompressFast,
    /// Decompress a checkpointed container.
    Decompress,
    /// Extract a range from a larger checkpointed container.
    Extract,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::CompressMax, Kind::CompressFast, Kind::Decompress, Kind::Extract];

    pub fn class(self) -> &'static str {
        match self {
            Kind::CompressMax => "tcgen_a.max",
            Kind::CompressFast => "small.fast",
            Kind::Decompress => "decompress",
            Kind::Extract => "extract",
        }
    }

    fn op(self) -> Op {
        match self {
            Kind::CompressMax | Kind::CompressFast => Op::Compress,
            Kind::Decompress => Op::Decompress,
            Kind::Extract => Op::Extract,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::CompressMax => "bench.request.compress_max",
            Kind::CompressFast => "bench.request.compress_fast",
            Kind::Decompress => "bench.request.decompress",
            Kind::Extract => "bench.request.extract",
        }
    }
}

/// A checkpointed container and the trace it holds.
pub struct Seekable {
    pub trace: Trace,
    pub container: Vec<u8>,
}

/// The request inputs and the outputs each one must produce.
pub struct Inputs {
    pub compress: Vec<Trace>,
    /// In-process TCGEN_A/`max` container of each compress input; served
    /// containers must match them byte for byte.
    pub expect_max: Vec<Vec<u8>>,
    /// In-process small-spec/`fast` container of each compress input.
    pub expect_fast: Vec<Vec<u8>>,
    pub decompress: Vec<Seekable>,
    pub extract: Vec<Seekable>,
    pub extract_len: u64,
    pub block_records: u32,
    pub checkpoint_blocks: u32,
}

/// Request `i` of a run, with what it must answer.
pub struct Request<'a> {
    pub kind: Kind,
    pub job: JobRequest,
    pub input: &'a [u8],
    pub want: &'a [u8],
    /// Which input of its kind the request carries.
    pub source: usize,
    pub range: std::ops::Range<u64>,
}

impl Inputs {
    fn job(&self, kind: Kind) -> JobRequest {
        let mut req = match kind {
            Kind::CompressMax => JobRequest::new(JobKind::Compress, TCGEN_A),
            Kind::CompressFast => {
                let mut req = JobRequest::new(JobKind::Compress, SMALL_SPEC);
                req.profile = Backend::Fast.id();
                req
            }
            Kind::Decompress => JobRequest::new(JobKind::Decompress, TCGEN_A),
            Kind::Extract => JobRequest::new(JobKind::Extract, TCGEN_A),
        };
        if matches!(kind, Kind::Decompress | Kind::Extract) {
            // The geometry the containers were written with, so both
            // kinds share one engine-cache key.
            req.block_records = self.block_records;
            req.checkpoint_blocks = self.checkpoint_blocks;
        }
        req
    }

    /// Request `i` of the run: every input cycles in order, every
    /// extract range is placed by the seed.
    pub fn request(&self, seed: u64, i: usize) -> Request<'_> {
        let kind = kind_at(seed, i);
        let mut job = self.job(kind);
        let round = i / ROUND.len();
        let pick = |len: usize| round % len;
        let (input, want, source, range): (&[u8], &[u8], usize, _) = match kind {
            Kind::CompressMax | Kind::CompressFast => {
                let n = pick(self.compress.len());
                let want = if kind == Kind::CompressMax {
                    &self.expect_max
                } else {
                    &self.expect_fast
                };
                (&self.compress[n].raw, &want[n], n, 0..0)
            }
            Kind::Decompress => {
                let n = pick(self.decompress.len());
                let s = &self.decompress[n];
                (&s.container, &s.trace.raw, n, 0..0)
            }
            Kind::Extract => {
                let n = i % self.extract.len();
                let s = &self.extract[n];
                let range = range_at(mix(seed, i as u64), s.trace.records(), self.extract_len);
                job.range_start = range.start;
                job.range_end = range.end;
                (&s.container, s.trace.slice(&range), n, range)
            }
        };
        Request { kind, job, input, want, source, range }
    }

    /// One request per engine-cache key, answered in turn: the warm-up
    /// that ends set-up.
    pub fn warm_up(&self, client: &mut Client, warm: &Warm) -> Result<(), String> {
        let ask = |client: &mut Client, req: JobRequest, input: &[u8], want: &[u8]| {
            let out = client.run(&req, input).map_err(|e| e.to_string())?;
            same(&out, want)
        };
        ask(client, self.job(Kind::CompressMax), &warm.raw, &warm.expect_max)?;
        ask(client, self.job(Kind::CompressFast), &warm.raw, &warm.expect_fast)?;
        ask(client, self.job(Kind::Decompress), &warm.container, &warm.raw)
    }
}

/// A small trace and its containers, for the set-up warm-up.
pub struct Warm {
    pub raw: Vec<u8>,
    pub expect_max: Vec<u8>,
    pub expect_fast: Vec<u8>,
    pub container: Vec<u8>,
}

/// One round of requests. Extracts take two slots: with four equal
/// shares the median would fall exactly between the second and third
/// fastest kinds, where a few requests more or less move it by a fifth;
/// with one kind at 40% the median and p90 both land inside a kind.
const ROUND: [Kind; 5] =
    [Kind::CompressMax, Kind::CompressFast, Kind::Decompress, Kind::Extract, Kind::Extract];

/// Request kinds in seeded order: rounds shuffled one by one, so every
/// prefix of the run holds the kinds in the round's shares.
pub fn kind_at(seed: u64, i: usize) -> Kind {
    let round = (i / ROUND.len()) as u64;
    let mut order = ROUND;
    for j in (1..order.len()).rev() {
        let k = (mix(mix(seed, round), j as u64) % (j as u64 + 1)) as usize;
        order.swap(j, k);
    }
    order[i % ROUND.len()]
}

/// When the generator stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Count(usize),
}

/// The closed-loop request generator: `connections` connections, each
/// sending request `i` of the seeded sequence when its previous reply
/// arrived.
pub struct Generator<'a> {
    pub workload: &'a str,
    pub socket: &'a Path,
    pub inputs: &'a Inputs,
    pub seed: u64,
    pub connections: usize,
}

impl Generator<'_> {
    /// Runs until `stop`. Returns the samples, the wall time and how
    /// many requests were issued.
    pub fn drive(
        &self,
        stop: Stop,
        trace: Option<&Recorder>,
        tally: &mut Tally,
    ) -> (Vec<Sample>, f64, usize) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let results: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.connections)
                .map(|c| {
                    let next = &next;
                    let track = trace.map(|rec| (rec, rec.track(format!("client-{c}"))));
                    scope.spawn(move || self.connection(next, stop, track))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut samples = Vec::new();
        for (s, t) in results {
            samples.extend(s);
            tally.add(t);
        }
        let taken = next.load(Ordering::SeqCst);
        let issued = match stop {
            Stop::Count(n) => taken.min(n),
            Stop::At(_) => taken,
        };
        (samples, wall, issued)
    }

    fn connection(
        &self,
        next: &AtomicUsize,
        stop: Stop,
        trace: Option<(&Recorder, TrackId)>,
    ) -> (Vec<Sample>, Tally) {
        let mut samples = Vec::new();
        let mut tally = Tally::default();
        let mut client = None;
        loop {
            if let Stop::At(at) = stop {
                if Instant::now() >= at {
                    break;
                }
            }
            let i = next.fetch_add(1, Ordering::SeqCst);
            if matches!(stop, Stop::Count(n) if i >= n) {
                break;
            }
            let Request { kind, job, input, want, source, .. } =
                self.inputs.request(self.seed, i);
            if client.is_none() {
                client = Client::connect(self.socket).ok();
            }
            let t = Instant::now();
            let outcome = match client.as_mut() {
                Some(c) => c.run(&job, input).map_err(|e| e.to_string()),
                None => Err("cannot connect to tcgen serve".into()),
            };
            let secs = t.elapsed().as_secs_f64();
            if let Some((rec, track)) = trace {
                rec.record_span(track, kind.span(), t);
            }
            let check = match outcome {
                Ok(out) => {
                    let packed = if kind.op() == Op::Compress { out.len() } else { 0 };
                    same(&out, want).map(|()| packed)
                }
                Err(e) => {
                    // A broken connection is replaced before the next request.
                    client = None;
                    Err(e)
                }
            };
            if let Ok(packed_bytes) = check {
                let raw_bytes =
                    if kind.op() == Op::Compress { input.len() } else { want.len() };
                samples.push(Sample {
                    op: kind.op(),
                    class: kind.class(),
                    input: source,
                    secs,
                    raw_bytes,
                    packed_bytes,
                });
            }
            tally.check(self.workload, kind.class(), &format!("request {i}"), check.map(drop));
        }
        (samples, tally)
    }
}

/// The daemon's counters and span totals, read through `Client::stats`.
pub struct Stats {
    value: json::Value,
}

impl Stats {
    pub fn fetch(client: &mut Client) -> Result<Stats, String> {
        let text = client.stats().map_err(|e| e.to_string())?;
        json::parse(&text).map(|value| Stats { value })
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.value
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    }

    /// `(count, total seconds)` of one span name.
    pub fn stage(&self, name: &str) -> (f64, f64) {
        let stages = self.value.get("stages").and_then(|s| s.as_arr()).unwrap_or(&[]);
        stages.iter().find(|s| s.get("stage").and_then(|n| n.as_str()) == Some(name)).map_or(
            (0.0, 0.0),
            |s| {
                let field = |k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                (field("count"), field("total_seconds"))
            },
        )
    }
}
