//! Criterion benchmark for the spec auto-tuner: wall time of a full
//! `tune` run — sampling, the per-field beam search, and the full-trace
//! guard — on the gzip store-address trace, at 1 and per-CPU worker
//! threads. Candidate evaluations fan out onto the engine's worker
//! pool, so the thread sweep shows how far the search parallelizes;
//! the emitted spec is identical at every count. Under `cargo bench`
//! the trace is 400 k records; under `cargo test` (criterion's test
//! mode) a small trace keeps the smoke run fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tcgen_engine::EngineOptions;
use tcgen_tracegen::{generate_trace, program, TraceKind};
use tcgen_tuner::{tune, TunerOptions};

fn record_count() -> usize {
    if std::env::args().any(|a| a == "--bench") {
        400_000
    } else {
        8_000
    }
}

fn tuner_options(threads: usize) -> TunerOptions {
    TunerOptions {
        sample_records: 32_768,
        budget_evals: 48,
        seed: 1,
        engine: EngineOptions { threads, ..EngineOptions::tcgen() },
        ..Default::default()
    }
}

fn bench_tune(c: &mut Criterion) {
    let records = record_count();
    let spec = tcgen_spec::parse(tcgen_spec::presets::TCGEN_A).unwrap();
    let raw =
        generate_trace(&program("gzip").unwrap(), TraceKind::StoreAddress, records).to_bytes();

    let per_cpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1, per_cpu];
    counts.dedup();

    let mut group = c.benchmark_group("tune/gzip-store");
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.sample_size(10);
    for &threads in &counts {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let options = tuner_options(threads);
                b.iter(|| tune(&spec, &raw, &options).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tune);
criterion_main!(benches);
