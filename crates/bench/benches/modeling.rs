//! Criterion benchmark for the columnar modeling stage in isolation:
//! predictor modeling (`raw_streams`) and replay (`replay_streams`)
//! throughput in records per second on the paper's VPC3 specification
//! (`specs/vpc3.tcgen`).
//!
//! Unlike the `pipeline` benchmark this one excludes the blockzip
//! post-compressor entirely, so it measures exactly the serial stage
//! that runs on the calling thread while the pool packs blocks. A
//! second group sweeps the data field's width across 8/16/32/64 bits to expose the throughput of the
//! width-specialized table elements. Under `cargo bench` the trace is
//! 2 M records; under `cargo test` (criterion's test mode) a small
//! trace keeps the smoke run fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tcgen_engine::{codec, EngineOptions};
use tcgen_tracegen::{generate_trace, suite, TraceKind};

const VPC3_SPEC: &str = include_str!("../../../specs/vpc3.tcgen");

fn record_count() -> usize {
    if std::env::args().any(|a| a == "--bench") {
        2_000_000
    } else {
        20_000
    }
}

/// A two-field spec whose data field is `bits` wide: the bank behind it
/// runs on the narrowest table element covering that width, so this
/// group measures the monomorphized kernels' per-width throughput.
fn width_spec(bits: u32) -> String {
    format!(
        "TCgen Trace Specification;\n\
         32-Bit Field 1 = {{L1 = 1, L2 = 65536: FCM1[1]}};\n\
         {bits}-Bit Field 2 = {{L1 = 256, L2 = 65536: DFCM2[2], FCM1[2], LV[2]}};\n\
         PC = Field 1;"
    )
}

/// Deterministic stride/repeat/noise mixture matching the spec's layout.
fn width_trace(spec: &tcgen_spec::TraceSpec, records: usize) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..records as u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for (fi, field) in spec.fields.iter().enumerate() {
            let value = match (i + fi as u64) % 4 {
                0 => x >> 23,
                1 | 2 => i.wrapping_mul(12),
                _ => 0x5a5a_5a5a_5a5a_5a5a,
            };
            let mask = if field.bits == 64 { u64::MAX } else { (1u64 << field.bits) - 1 };
            raw.extend_from_slice(&(value & mask).to_le_bytes()[..field.bytes() as usize]);
        }
    }
    raw
}

/// Single-threaded modeling throughput per table-element width: the u8
/// and u16 banks touch an eighth/quarter of the table bytes the u64
/// bank does, which shows up directly as records per second.
fn bench_widths(c: &mut Criterion) {
    let records = record_count();
    let opts = EngineOptions::tcgen();
    let mut group = c.benchmark_group("modeling/width");
    group.throughput(Throughput::Elements(records as u64));
    group.sample_size(10);
    for bits in [8u32, 16, 32, 64] {
        let spec = tcgen_spec::parse(&width_spec(bits)).expect("spec parses");
        let raw = width_trace(&spec, records);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &raw, |b, raw| {
            b.iter(|| codec::raw_streams(&spec, &opts, raw).expect("model"))
        });
    }
    group.finish();
}

fn bench_modeling(c: &mut Criterion) {
    let spec = tcgen_spec::parse(VPC3_SPEC).expect("spec parses");
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("program exists");
    let records = record_count();
    let raw = generate_trace(&program, TraceKind::StoreAddress, records).to_bytes();
    let opts = EngineOptions::tcgen();

    let mut group = c.benchmark_group("modeling");
    group.throughput(Throughput::Elements(records as u64));
    group.sample_size(10);
    group.bench_function("model", |b| {
        b.iter(|| codec::raw_streams(&spec, &opts, &raw).expect("model"))
    });
    let streams = codec::raw_streams(&spec, &opts, &raw).expect("model");
    group.bench_function("replay", |b| {
        b.iter(|| codec::replay_streams(&spec, &opts, streams.clone()).expect("replay"))
    });
    group.finish();
}

criterion_group!(benches, bench_modeling, bench_widths);
criterion_main!(benches);
