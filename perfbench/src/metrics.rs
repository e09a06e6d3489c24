//! Operation samples, output checks, and the result line.

use std::fmt::Write as _;

/// The three operations every workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Compress,
    Decompress,
    Extract,
}

/// One operation as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: Op,
    /// The request class: the spec + backend pair on compress, the op
    /// name otherwise. Serve-mixed has two compress classes.
    pub class: &'static str,
    /// Which input of its class the operation ran on.
    pub input: usize,
    /// Wall time from call to answer, from a monotonic clock.
    pub secs: f64,
    /// Raw trace bytes the operation consumed (compress) or produced.
    pub raw_bytes: usize,
    /// Container bytes a compress produced; 0 for other ops.
    pub packed_bytes: usize,
}

/// Counts every output check; a failed check is printed with its
/// workload and operation and never stops the run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(
        &mut self,
        workload: &str,
        op: &str,
        input: &str,
        outcome: Result<(), String>,
    ) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            println!("FAIL workload={workload} op={op} input={input}: {msg}");
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// `Ok` when `got` equals `want`, else where they first differ.
pub fn same(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at =
        got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
    Err(format!("output differs at byte {at} ({} bytes, expected {})", got.len(), want.len()))
}

/// The `p` quantile (0..=1) with linear interpolation between order
/// statistics; NaN for no samples.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Named metrics with units, printed as text lines and then as the
/// final JSON result line.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Prints one `name value unit` line per metric, then the JSON result
    /// line. A non-finite value makes the result incorrect.
    pub fn print(&self, tally: &Tally) {
        let mut finite = true;
        let mut json = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            println!("{name:<40} {value:>14.6} {unit}");
            finite &= value.is_finite();
            let shown = if value.is_finite() { value.to_string() } else { "null".into() };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(json, "{sep}\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}");
        }
        let correct = tally.failed == 0 && tally.attempted > 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            tally.attempted.max(1),
            tally.failed
        );
    }
}

/// Each distinct input of `op` once: `(raw bytes, container bytes, median
/// seconds over its repeats)`.
fn per_input(samples: &[Sample], op: Op) -> Vec<(usize, usize, f64)> {
    let mut keys: Vec<(&str, usize)> =
        samples.iter().filter(|s| s.op == op).map(|s| (s.class, s.input)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let runs: Vec<&Sample> =
                samples.iter().filter(|s| s.op == op && (s.class, s.input) == key).collect();
            let secs: Vec<f64> = runs.iter().map(|s| s.secs).collect();
            (runs[0].raw_bytes, runs[0].packed_bytes, quantile(&secs, 0.5))
        })
        .collect()
}

/// The end-to-end metrics that come straight from the timed samples.
/// Throughput divides the raw bytes of every distinct input by the sum
/// of their median operation times, so neither a burst of machine noise
/// nor the number of repeats an input got moves it.
pub fn end_to_end(out: &mut Metrics, samples: &[Sample], wall_secs: f64) {
    let mb_s = |op: Op| {
        let inputs = per_input(samples, op);
        let bytes: usize = inputs.iter().map(|i| i.0).sum();
        let secs: f64 = inputs.iter().map(|i| i.2).sum();
        bytes as f64 / MIB / secs
    };
    let compressed = per_input(samples, Op::Compress);
    let raw: usize = compressed.iter().map(|i| i.0).sum();
    let packed: usize = compressed.iter().map(|i| i.1).sum();
    let ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    // Per source, so the metric does not jump when two sources trade
    // places around the pooled median.
    let extracts = per_input(samples, Op::Extract);
    let extract_ms = extracts.iter().map(|i| i.2 * 1e3).sum::<f64>() / extracts.len() as f64;
    out.push("compress_mb_s", mb_s(Op::Compress), "MiB/s");
    out.push("decompress_mb_s", mb_s(Op::Decompress), "MiB/s");
    out.push("ratio", raw as f64 / packed as f64, "x");
    out.push("requests_per_s", samples.len() as f64 / wall_secs, "1/s");
    out.push("latency_p50_ms", quantile(&ms, 0.5), "ms");
    out.push("latency_p90_ms", quantile(&ms, 0.9), "ms");
    out.push("extract_p50_ms", extract_ms, "ms");
    println!(
        "samples: {} operations in {wall_secs:.3} s; {} lie beyond p90",
        ms.len(),
        ms.len() - (0.9 * ms.len() as f64).ceil() as usize,
    );
    let mut classes: Vec<&str> = samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let ms: Vec<f64> =
            samples.iter().filter(|s| s.class == class).map(|s| s.secs * 1e3).collect();
        println!(
            "  {class:<12} n={:<5} p50={:.3} ms p90={:.3} ms",
            ms.len(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9)
        );
    }
}
