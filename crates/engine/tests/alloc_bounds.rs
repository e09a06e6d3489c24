//! Forged frame lengths against every decode entry point, under a
//! counting global allocator: each entry point must reject the container
//! as truncated or corrupt without any single allocation request coming
//! anywhere near the forged 4 GiB. This binary holds exactly one test, so
//! no other test's allocations share the recorded maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use tcgen_engine::{
    decompress_stream, extract_range, inspect, Engine, EngineOptions, Error, StreamError,
};
use tcgen_spec::parse;

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only records sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest single allocation any decode may request.
const CAP: usize = 64 << 20;

/// Small tables keep the predictor banks far below the cap.
const SPEC: &str = "TCgen Trace Specification;\n\
    32-Bit Header;\n\
    32-Bit Field 1 = {L1 = 1, L2 = 64: LV[2], FCM1[2]};\n\
    64-Bit Field 2 = {L1 = 64, L2 = 256: LV[2], ST[2], DFCM2[2]};\n\
    PC = Field 1;\n";

fn demo_trace(records: usize) -> Vec<u8> {
    let mut raw = vec![9, 8, 7, 6];
    for i in 0..records as u64 {
        raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
        raw.extend_from_slice(&(0x2000 + i * 8 + (i % 5)).to_le_bytes());
    }
    raw
}

#[test]
fn forged_lengths_fail_every_decode_entry_point_without_large_allocations() {
    let spec = parse(SPEC).expect("fixture spec parses");
    let raw = demo_trace(1_200); // 12 blocks of 100, a checkpoint every 3
    let compressor = EngineOptions {
        block_records: 100,
        checkpoint_blocks: 3,
        threads: 1,
        ..EngineOptions::tcgen()
    };
    let packed = Engine::new(spec.clone(), compressor).compress(&raw).expect("compress");
    let info = inspect(&mut Cursor::new(&packed)).expect("inspect");
    // Prelude, passthrough header, block marker and record count: block
    // 0's first segment length follows.
    let segment_len_at = 12 + spec.header_bytes() as usize + 5;
    // The checkpoint frame opening span 1: its marker, then its length.
    let span = &info.spans[1];
    let checkpoint_len_at =
        span.checkpoint_offset.expect("span 1 opens at a checkpoint") as usize + 1;
    let forgeries = [
        ("segment", segment_len_at, 0..10),
        ("checkpoint", checkpoint_len_at, span.start_record..span.start_record + 10),
    ];
    for (what, at, range) in forgeries {
        let mut forged = packed.clone();
        forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        for threads in [1usize, 4] {
            let options = EngineOptions { threads, ..compressor };
            LARGEST.store(0, Ordering::Relaxed);
            let engine = Engine::new(spec.clone(), options);
            let results = [
                (
                    "decompress",
                    engine.decompress(&forged).map(drop).map_err(StreamError::Codec),
                ),
                (
                    "decompress_stream",
                    decompress_stream(&spec, &options, &mut forged.as_slice(), &mut Vec::new()),
                ),
                (
                    "extract_range",
                    extract_range(
                        &spec,
                        &options,
                        &mut Cursor::new(&forged),
                        range.clone(),
                        None,
                    )
                    .map(drop),
                ),
            ];
            for (entry, result) in &results {
                assert!(
                    matches!(
                        result,
                        Err(StreamError::Codec(Error::Truncated | Error::Corrupt(_)))
                    ),
                    "{what} length, {entry}, threads {threads}: {result:?}"
                );
            }
            let largest = LARGEST.load(Ordering::Relaxed);
            assert!(
                largest <= CAP,
                "{what} length, threads {threads}: a decode requested {largest} bytes at once"
            );
        }
    }
}
