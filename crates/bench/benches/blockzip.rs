//! Criterion benchmarks for the blockzip substrate: end-to-end
//! compression/decompression, the individual pipeline stages, and the
//! paper-scale segments whose cost is mostly per-block set-up.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tcgen_engine::{codec, EngineOptions};
use tcgen_tracegen::{generate_trace, suite, TraceKind};

fn stream_like_data(n: usize) -> Vec<u8> {
    // Mimics a predictor-code stream: long runs of a few hot codes with
    // occasional misses.
    let mut x = 0xfeed_beef_u64;
    (0..n)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x >> 60 > 1 {
                (i / 97 % 3) as u8
            } else {
                (x >> 32) as u8
            }
        })
        .collect()
}

fn bench_end_to_end(c: &mut Criterion) {
    let data = stream_like_data(900_000);
    let packed = blockzip::compress(&data).expect("compress");
    let mut group = c.benchmark_group("blockzip");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("compress", |b| {
        b.iter(|| blockzip::compress(&data).expect("compress"))
    });
    group.bench_function("decompress", |b| {
        b.iter(|| blockzip::decompress(&packed).expect("decompress"))
    });
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let data = stream_like_data(300_000);
    let mut group = c.benchmark_group("blockzip-stages");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("suffix-array", |b| b.iter(|| blockzip::sais::suffix_array(&data)));
    let transformed = blockzip::bwt::forward(&data);
    group.bench_function("bwt-inverse", |b| b.iter(|| blockzip::bwt::inverse(&transformed)));
    group.bench_function("mtf-encode", |b| b.iter(|| blockzip::mtf::encode(&transformed.data)));
    let ranks = blockzip::mtf::encode(&transformed.data);
    group.bench_function("rle-encode", |b| b.iter(|| blockzip::rle::encode(&ranks)));
    group.finish();
}

/// The four model streams of one 2,000-record TCGEN_A trace (gzip store
/// addresses), about 10 KB in all, packed and unpacked with the `max`
/// backend as one block apiece through a reused scratch, as a small
/// engine call does. Set-up per block, not bytes, sets this cost.
fn bench_small_blocks(c: &mut Criterion) {
    let spec = tcgen_spec::parse(tcgen_spec::presets::TCGEN_A).expect("preset parses");
    let program = suite().into_iter().find(|p| p.name == "gzip").expect("gzip is in Table 1");
    let raw = generate_trace(&program, TraceKind::StoreAddress, 2_000).to_bytes();
    let streams = codec::raw_streams(&spec, &EngineOptions::tcgen(), &raw).expect("model");
    let level = blockzip::Level::BEST;
    let mut scratch = blockzip::Scratch::default();
    let packed: Vec<Vec<u8>> = streams
        .iter()
        .map(|s| blockzip::compress_with_scratch(s, level, &mut scratch).expect("pack"))
        .collect();
    let mut group = c.benchmark_group("blockzip-small");
    group.throughput(Throughput::Bytes(streams.iter().map(|s| s.len() as u64).sum()));
    group.bench_function("pack", |b| {
        b.iter(|| {
            for s in &streams {
                blockzip::compress_with_scratch(s, level, &mut scratch).expect("pack");
            }
        })
    });
    group.bench_function("unpack", |b| {
        b.iter(|| {
            for p in &packed {
                blockzip::decompress_with_scratch(p, usize::MAX, &mut scratch).expect("unpack");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_stages, bench_small_blocks);
criterion_main!(benches);
