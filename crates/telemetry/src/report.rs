//! Aggregated summary of a [`Recorder`]: per-stage
//! statistics, per-track busy time, counters, and pool fan-out, with a
//! human `Display` table and a machine-readable JSON form.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::JsonWriter;
use crate::Recorder;

/// Aggregate of every span sharing one stage name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl StageStats {
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregate of one timeline lane. `busy_ns` sums span durations on the
/// track, which stands in for per-thread CPU time: instrumented stages
/// spin no locks and sleep only when the pool queue is empty (outside
/// any span), so span time is a faithful busy-time proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackStats {
    pub id: u32,
    pub name: String,
    pub spans: u64,
    pub busy_ns: u64,
}

/// Aggregate of one worker pool's fan-out behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    pub label: String,
    pub workers: u64,
    pub submitted: u64,
    pub completed: u64,
    pub depth_max: u64,
    pub depth_mean: f64,
}

/// Summary of one named histogram: headline percentiles plus the
/// non-empty buckets as `(upper_bound, count)` pairs, so consumers
/// (Prometheus exposition, `tcgen top` window diffs) can rebuild the
/// full distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct HistReport {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub buckets: Vec<(u64, u64)>,
}

/// Rates over one trailing window, from the recorder's
/// [`WindowRing`](crate::WindowRing).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// The requested window width in seconds (10, 60).
    pub seconds: u64,
    /// Time the window actually covers (less while the ring fills).
    pub span_seconds: f64,
    /// Samples inside the window.
    pub samples: u64,
    /// Highest queue depth any in-window sample observed.
    pub queue_depth_hwm: u64,
    /// Per-second counter rates, sorted by name.
    pub rates: Vec<(String, f64)>,
}

/// Snapshot summary of one recorder. Build with
/// [`Recorder::report`](crate::Recorder::report).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Wall time from recorder epoch to the report call, nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock time of the recorder epoch, ms since the Unix epoch.
    /// Two reports with the same `since_unix_ms` share cumulative
    /// counters, so their difference is an exact window.
    pub since_unix_ms: u64,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Stage aggregates, sorted by total time descending.
    pub stages: Vec<StageStats>,
    /// Track aggregates in track-id order.
    pub tracks: Vec<TrackStats>,
    /// Pool aggregates in registration order.
    pub pools: Vec<PoolReport>,
    /// Histogram summaries in registration order (empty when no
    /// histogram was touched).
    pub histograms: Vec<HistReport>,
    /// Trailing-window rates (empty unless a window ring is attached
    /// and populated).
    pub windows: Vec<WindowReport>,
}

pub(crate) fn build(rec: &Recorder) -> Report {
    let wall_ns = rec.elapsed_ns();
    let (spans, track_names) = rec.snapshot();

    let mut by_stage: BTreeMap<&'static str, StageStats> = BTreeMap::new();
    let mut tracks: Vec<TrackStats> = track_names
        .into_iter()
        .enumerate()
        .map(|(id, name)| TrackStats { id: id as u32, name, spans: 0, busy_ns: 0 })
        .collect();
    for span in &spans {
        let stage = by_stage.entry(span.name).or_insert_with(|| StageStats {
            name: span.name.to_string(),
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        stage.count += 1;
        stage.total_ns = stage.total_ns.saturating_add(span.dur_ns);
        stage.max_ns = stage.max_ns.max(span.dur_ns);
        if let Some(track) = tracks.get_mut(span.track.0 as usize) {
            track.spans += 1;
            track.busy_ns = track.busy_ns.saturating_add(span.dur_ns);
        }
    }
    let mut stages: Vec<StageStats> = by_stage.into_values().collect();
    stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    let histograms = rec
        .hist_values()
        .into_iter()
        .filter(|(_, snap)| snap.count > 0)
        .map(|(name, snap)| HistReport {
            name: name.to_string(),
            count: snap.count,
            sum: snap.sum,
            max: snap.max,
            p50: snap.quantile(0.50),
            p90: snap.quantile(0.90),
            p99: snap.quantile(0.99),
            buckets: snap.nonzero_buckets(),
        })
        .collect();

    let mut windows = Vec::new();
    if let Some(ring) = rec.window() {
        let now = crate::WindowSnapshot {
            at_ns: wall_ns,
            counters: rec.counters_snapshot(),
            queue_depth: ring.latest().map_or(0, |s| s.queue_depth),
        };
        for seconds in [10u64, 60] {
            if let Some(d) = ring.window(seconds * 1_000_000_000, &now) {
                windows.push(WindowReport {
                    seconds,
                    span_seconds: d.span_ns as f64 / 1e9,
                    samples: d.samples,
                    queue_depth_hwm: d.queue_depth_hwm,
                    rates: d.rates,
                });
            }
        }
    }

    Report {
        wall_ns,
        since_unix_ms: rec.epoch_unix_ms(),
        counters: rec.counter_values().into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        stages,
        tracks,
        pools: rec.pool_values(),
        histograms,
        windows,
    }
}

impl Report {
    /// Value of the counter named `name`, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Total time of the stage named `name`, if any span ran under it.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The histogram summary named `name`, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistReport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Derived throughput figures for top-level operations that recorded
    /// both a span and byte/record counters: `(op, mb_per_s,
    /// records_per_s)` for each of `compress` / `decompress` present,
    /// where `mb_per_s` counts trace bytes (`compress.bytes_in`,
    /// `decompress.bytes_out`).
    pub fn derived(&self) -> Vec<(String, f64, f64)> {
        let mut out = Vec::new();
        for op in ["compress", "decompress"] {
            let Some(stage) = self.stage(op) else { continue };
            if stage.total_ns == 0 {
                continue;
            }
            let secs = stage.total_ns as f64 / 1e9;
            // Trace bytes either way: what compress reads, what
            // decompress writes.
            let trace_bytes = if op == "compress" { "bytes_in" } else { "bytes_out" };
            let bytes_key = format!("{op}.{trace_bytes}");
            let records_key = format!("{op}.records");
            let mb_per_s = self
                .counter(&bytes_key)
                .map(|b| b as f64 / (1024.0 * 1024.0) / secs)
                .unwrap_or(0.0);
            let records_per_s =
                self.counter(&records_key).map(|r| r as f64 / secs).unwrap_or(0.0);
            if mb_per_s > 0.0 || records_per_s > 0.0 {
                out.push((op.to_string(), mb_per_s, records_per_s));
            }
        }
        out
    }

    /// Machine-readable JSON form of the report.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("wall_seconds");
        w.num(self.wall_ns as f64 / 1e9);
        w.key("since_unix_ms");
        w.int(self.since_unix_ms);
        w.key("counters");
        w.begin_obj();
        for (name, value) in &self.counters {
            w.key(name);
            w.int(*value);
        }
        w.end_obj();
        w.key("stages");
        w.begin_arr();
        for stage in &self.stages {
            w.begin_obj();
            w.key("stage");
            w.str(&stage.name);
            w.key("count");
            w.int(stage.count);
            w.key("total_seconds");
            w.num(stage.total_ns as f64 / 1e9);
            w.key("mean_seconds");
            w.num(stage.mean_ns() as f64 / 1e9);
            w.key("max_seconds");
            w.num(stage.max_ns as f64 / 1e9);
            w.end_obj();
        }
        w.end_arr();
        w.key("tracks");
        w.begin_arr();
        for track in &self.tracks {
            w.begin_obj();
            w.key("track");
            w.str(&track.name);
            w.key("id");
            w.int(track.id as u64);
            w.key("spans");
            w.int(track.spans);
            w.key("busy_seconds");
            w.num(track.busy_ns as f64 / 1e9);
            w.end_obj();
        }
        w.end_arr();
        w.key("pools");
        w.begin_arr();
        for pool in &self.pools {
            w.begin_obj();
            w.key("pool");
            w.str(&pool.label);
            w.key("workers");
            w.int(pool.workers);
            w.key("submitted");
            w.int(pool.submitted);
            w.key("completed");
            w.int(pool.completed);
            w.key("queue_depth_max");
            w.int(pool.depth_max);
            w.key("queue_depth_mean");
            w.num(pool.depth_mean);
            w.end_obj();
        }
        w.end_arr();
        if !self.histograms.is_empty() {
            w.key("histograms");
            w.begin_arr();
            for h in &self.histograms {
                w.begin_obj();
                w.key("histogram");
                w.str(&h.name);
                w.key("count");
                w.int(h.count);
                w.key("sum");
                w.int(h.sum);
                w.key("max");
                w.int(h.max);
                w.key("p50");
                w.int(h.p50);
                w.key("p90");
                w.int(h.p90);
                w.key("p99");
                w.int(h.p99);
                w.key("buckets");
                w.begin_arr();
                for (le, count) in &h.buckets {
                    w.begin_obj();
                    w.key("le");
                    w.int(*le);
                    w.key("count");
                    w.int(*count);
                    w.end_obj();
                }
                w.end_arr();
                w.end_obj();
            }
            w.end_arr();
        }
        if !self.windows.is_empty() {
            w.key("windows");
            w.begin_arr();
            for win in &self.windows {
                w.begin_obj();
                w.key("seconds");
                w.int(win.seconds);
                w.key("span_seconds");
                w.num(win.span_seconds);
                w.key("samples");
                w.int(win.samples);
                w.key("queue_depth_hwm");
                w.int(win.queue_depth_hwm);
                w.key("rates");
                w.begin_obj();
                for (name, rate) in &win.rates {
                    w.key(name);
                    w.num(*rate);
                }
                w.end_obj();
                w.end_obj();
            }
            w.end_arr();
        }
        let derived = self.derived();
        if !derived.is_empty() {
            w.key("derived");
            w.begin_obj();
            for (op, mb_per_s, records_per_s) in &derived {
                w.key(&format!("{op}_mb_per_s"));
                w.num(*mb_per_s);
                w.key(&format!("{op}_records_per_s"));
                w.num(*records_per_s);
            }
            w.end_obj();
        }
        w.end_obj();
        w.finish()
    }
}

fn fmt_secs(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} us", secs * 1e6)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry: {} wall", fmt_secs(self.wall_ns))?;
        if !self.stages.is_empty() {
            writeln!(
                f,
                "  {:<22} {:>8} {:>12} {:>12} {:>12}",
                "stage", "count", "total", "mean", "max"
            )?;
            for stage in &self.stages {
                writeln!(
                    f,
                    "  {:<22} {:>8} {:>12} {:>12} {:>12}",
                    stage.name,
                    stage.count,
                    fmt_secs(stage.total_ns),
                    fmt_secs(stage.mean_ns()),
                    fmt_secs(stage.max_ns)
                )?;
            }
        }
        for (op, mb_per_s, records_per_s) in self.derived() {
            writeln!(f, "  {op}: {mb_per_s:.1} MB/s, {records_per_s:.0} records/s")?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "  counters")?;
            for (name, value) in &self.counters {
                writeln!(f, "    {name:<28} {value:>16}")?;
            }
        }
        if !self.pools.is_empty() {
            writeln!(f, "  pools")?;
            for pool in &self.pools {
                writeln!(
                    f,
                    "    {}: {} workers, {} jobs, queue depth mean {:.1} max {}",
                    pool.label, pool.workers, pool.submitted, pool.depth_mean, pool.depth_max
                )?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "  histograms")?;
            for h in &self.histograms {
                writeln!(
                    f,
                    "    {}: {} samples, p50 {} p90 {} p99 {} max {}",
                    h.name, h.count, h.p50, h.p90, h.p99, h.max
                )?;
            }
        }
        if !self.windows.is_empty() {
            writeln!(f, "  windows")?;
            for win in &self.windows {
                writeln!(
                    f,
                    "    last {}s ({:.1}s observed, {} samples): queue hwm {}",
                    win.seconds, win.span_seconds, win.samples, win.queue_depth_hwm
                )?;
            }
        }
        let busy_tracks = self.tracks.iter().filter(|t| t.spans > 0);
        let mut wrote_header = false;
        for track in busy_tracks {
            if !wrote_header {
                writeln!(f, "  tracks")?;
                wrote_header = true;
            }
            writeln!(
                f,
                "    {}: {} spans, {} busy",
                track.name,
                track.spans,
                fmt_secs(track.busy_ns)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};
    use crate::{Recorder, TrackId};

    #[test]
    fn report_aggregates_stages_and_tracks() {
        let rec = Recorder::new();
        let worker = rec.track("pack-0");
        rec.time(TrackId::DRIVER, "compress", || {
            for _ in 0..3 {
                rec.time(worker, "pack.segment", || {});
            }
        });
        rec.counter("compress.bytes_in").add(1 << 20);
        rec.counter("compress.records").add(1000);
        // A decompress whose container (bytes in) is a tenth of the trace
        // it writes (bytes out).
        rec.time(TrackId::DRIVER, "decompress", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        rec.counter("decompress.bytes_in").add(1 << 20);
        rec.counter("decompress.bytes_out").add(10 << 20);
        let report = rec.report();
        assert_eq!(report.stage("pack.segment").unwrap().count, 3);
        assert_eq!(report.stage("compress").unwrap().count, 1);
        assert_eq!(report.tracks[1].spans, 3);
        assert_eq!(report.counter("compress.records"), Some(1000));
        let derived = report.derived();
        assert_eq!(derived.len(), 2);
        assert_eq!(derived[0].0, "compress");
        assert!(derived[0].1 > 0.0);
        // Both lines report MB/s of trace: decompress divides bytes out.
        let secs = report.stage("decompress").unwrap().total_ns as f64 / 1e9;
        assert_eq!(derived[1].0, "decompress");
        assert_eq!(derived[1].1, 10.0 / secs);
    }

    #[test]
    fn json_report_parses_and_preserves_u64_counters() {
        let rec = Recorder::new();
        rec.time(TrackId::DRIVER, "compress", || {});
        rec.counter("compress.bytes_in").add(u64::MAX);
        let pool = rec.pool("pack", 3);
        pool.on_submit(1);
        pool.on_complete();
        let text = rec.report().to_json();
        let value = parse(&text).expect("report JSON parses");
        let counters = value.get("counters").unwrap();
        assert_eq!(counters.get("compress.bytes_in").unwrap(), &Value::Int(u64::MAX));
        let stages = value.get("stages").unwrap().as_arr().unwrap();
        assert!(stages.iter().any(|s| s.get("stage").unwrap().as_str() == Some("compress")));
        let pools = value.get("pools").unwrap().as_arr().unwrap();
        assert_eq!(pools[0].get("workers").unwrap(), &Value::Int(3));
        assert!(value.get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn histograms_and_windows_flow_into_report_and_json() {
        let rec = Recorder::new();
        let hist = rec.histogram("serve.job_duration_ns");
        for v in [100u64, 200, 300, 4_000] {
            hist.record(v);
        }
        let ring = rec.window_ring(8);
        ring.push(crate::WindowSnapshot {
            at_ns: 0,
            counters: vec![("serve.jobs".into(), 0)],
            queue_depth: 3,
        });
        rec.counter("serve.jobs").add(5);
        // Spin until some wall time has passed so the window span is
        // nonzero even on a coarse clock.
        while rec.elapsed_ns() < 1_000 {
            std::hint::spin_loop();
        }
        let report = rec.report();
        assert!(report.since_unix_ms > 0);
        let h = report.histogram("serve.job_duration_ns").expect("histogram present");
        assert_eq!(h.count, 4);
        assert!(h.p50 >= 100 && h.p50 <= 225, "p50 near the low values, got {}", h.p50);
        assert_eq!(h.max, 4_000);
        assert!(!h.buckets.is_empty());
        assert_eq!(report.windows.len(), 2, "10s and 60s windows");
        assert_eq!(report.windows[0].queue_depth_hwm, 3);
        let jobs_rate =
            report.windows[0].rates.iter().find(|(n, _)| n == "serve.jobs").unwrap().1;
        assert!(jobs_rate > 0.0, "5 jobs over a tiny window is a huge rate");

        let value = parse(&report.to_json()).expect("report JSON parses");
        assert!(value.get("since_unix_ms").unwrap().as_u64().unwrap() > 0);
        let hists = value.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists[0].get("histogram").unwrap().as_str(), Some("serve.job_duration_ns"));
        assert_eq!(hists[0].get("count").unwrap(), &Value::Int(4));
        assert!(!hists[0].get("buckets").unwrap().as_arr().unwrap().is_empty());
        let windows = value.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows[0].get("seconds").unwrap(), &Value::Int(10));
        assert!(windows[0].get("rates").unwrap().get("serve.jobs").is_some());
    }

    #[test]
    fn untouched_histograms_and_missing_rings_stay_out_of_the_json() {
        let rec = Recorder::new();
        rec.histogram("never.recorded");
        rec.time(TrackId::DRIVER, "compress", || {});
        let text = rec.report().to_json();
        assert!(!text.contains("histograms"), "empty histogram omitted");
        assert!(!text.contains("windows"), "no ring attached");
    }

    #[test]
    fn display_renders_summary_table() {
        let rec = Recorder::new();
        rec.time(TrackId::DRIVER, "compress", || {});
        rec.counter("compress.blocks").add(4);
        let pool = rec.pool("pack", 2);
        pool.on_submit(0);
        let text = rec.report().to_string();
        assert!(text.contains("telemetry:"));
        assert!(text.contains("compress"));
        assert!(text.contains("compress.blocks"));
        assert!(text.contains("pack: 2 workers"));
        assert!(text.contains("driver: 1 spans"));
    }
}
