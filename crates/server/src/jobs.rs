//! Executing one decoded [`JobRequest`] against the engine.
//!
//! This is the seam between the wire protocol and the engine crate:
//! everything here takes owned input bytes and returns owned output
//! bytes (or a message), so the daemon can run it on any thread and
//! stream whatever comes back. Engine work runs under
//! [`tcgen_engine::with_job_priority`] so the request's priority byte
//! reaches the shared worker pool's scheduler.

use std::io::Cursor;

use tcgen_engine::{with_job_priority, ContainerInfo, Recorder};

use crate::cache::{EngineCache, EngineKey};
use crate::proto::{JobKind, JobRequest};

/// Runs `req` over `input` to completion. Every failure — bad spec,
/// corrupt container, engine bug — comes back as a message for an
/// `RSP_ERR` frame; only the diagnostic [`JobKind::DebugPanic`] panics
/// (the daemon's `catch_unwind` is its test target).
pub fn run_job(
    req: &JobRequest,
    input: &[u8],
    cache: &EngineCache,
    recorder: Option<&Recorder>,
) -> Result<Vec<u8>, String> {
    match req.kind {
        JobKind::DebugSleep => {
            std::thread::sleep(std::time::Duration::from_millis(req.range_start));
            Ok(input.to_vec())
        }
        JobKind::DebugPanic => panic!("debug-panic job requested"),
        JobKind::Inspect => {
            let info =
                tcgen_engine::inspect(&mut Cursor::new(input)).map_err(|e| e.to_string())?;
            Ok(inspect_json(&info).into_bytes())
        }
        JobKind::Compress | JobKind::Decompress | JobKind::Extract => {
            let key = EngineKey {
                spec: req.spec.clone(),
                profile: req.profile,
                threads: req.threads,
                block_records: req.block_records,
                checkpoint_blocks: req.checkpoint_blocks,
            };
            let (engine, hit) = cache.get(&key, recorder)?;
            if let Some(rec) = recorder {
                rec.counter(if hit { "serve.cache_hit" } else { "serve.cache_miss" }).add(1);
            }
            with_job_priority(req.priority, || match req.kind {
                JobKind::Compress => engine.compress(input).map_err(|e| e.to_string()),
                JobKind::Decompress => engine.decompress(input).map_err(|e| e.to_string()),
                JobKind::Extract => tcgen_engine::extract_range(
                    engine.spec(),
                    engine.options(),
                    &mut Cursor::new(input),
                    req.range_start..req.range_end,
                    engine.telemetry(),
                )
                .map_err(|e| e.to_string()),
                _ => unreachable!("outer match filters the engine kinds"),
            })
        }
    }
}

/// Renders a [`ContainerInfo`] as the same JSON document `tcgen inspect
/// --json` prints, so service and CLI answers are interchangeable.
pub fn inspect_json(info: &ContainerInfo) -> String {
    let mut spans = String::new();
    for (i, s) in info.spans.iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let ckpt = s.checkpoint_offset.map_or("null".to_string(), |off| off.to_string());
        spans.push_str(&format!(
            "\n    {{\"first_block\": {}, \"end_block\": {}, \"start_record\": {}, \
             \"end_record\": {}, \"checkpoint_offset\": {ckpt}}}",
            s.first_block, s.end_block, s.start_record, s.end_record
        ));
    }
    let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    format!(
        "{{\n  \"version\": {},\n  \"flags\": {},\n  \"spec_hash\": {},\n  \
         \"header_len\": {},\n  \"profile\": {},\n  \"checkpointed\": {},\n  \
         \"file_len\": {},\n  \"n_blocks\": {},\n  \"total_records\": {},\n  \
         \"spans\": [{spans}{}]\n}}",
        info.version,
        info.flags,
        info.spec_hash,
        info.header_len,
        opt(info.backend.map(|b| format!("\"{}\"", b.profile()))),
        info.checkpointed,
        info.file_len,
        opt(info.n_blocks.map(|n| n.to_string())),
        opt(info.total_records.map(|n| n.to_string())),
        if info.spans.is_empty() { "" } else { "\n  " },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str =
        "TCgen Trace Specification;\n32-Bit Field 1 = {L1 = 1, L2 = 64: FCM1[2]};\nPC = Field 1;";

    fn trace(records: u64) -> Vec<u8> {
        let mut raw = Vec::new();
        for i in 0..records {
            raw.extend_from_slice(&(0x4000_0000u32 + (i as u32 % 13) * 4).to_le_bytes());
        }
        raw
    }

    #[test]
    fn compress_decompress_roundtrips_through_the_job_layer() {
        let cache = EngineCache::new(4);
        let raw = trace(500);
        let mut req = JobRequest::new(JobKind::Compress, SPEC);
        req.threads = 1;
        let packed = run_job(&req, &raw, &cache, None).unwrap();
        req.kind = JobKind::Decompress;
        let back = run_job(&req, &packed, &cache, None).unwrap();
        assert_eq!(back, raw);
    }

    #[test]
    fn inspect_and_extract_serve_checkpointed_containers() {
        let cache = EngineCache::new(4);
        let raw = trace(600);
        let mut req = JobRequest::new(JobKind::Compress, SPEC);
        req.threads = 1;
        req.block_records = 100;
        req.checkpoint_blocks = 2;
        let packed = run_job(&req, &raw, &cache, None).unwrap();

        let info =
            run_job(&JobRequest::new(JobKind::Inspect, ""), &packed, &cache, None).unwrap();
        let info = String::from_utf8(info).unwrap();
        assert!(info.contains("\"checkpointed\": true"), "{info}");
        assert!(info.contains("\"total_records\": 600"), "{info}");

        req.kind = JobKind::Extract;
        req.range_start = 250;
        req.range_end = 350;
        let slice = run_job(&req, &packed, &cache, None).unwrap();
        assert_eq!(slice, raw[250 * 4..350 * 4].to_vec());
    }

    #[test]
    fn engine_failures_become_messages() {
        let cache = EngineCache::new(4);
        let mut req = JobRequest::new(JobKind::Decompress, SPEC);
        req.threads = 1;
        let err = run_job(&req, b"not a container", &cache, None).unwrap_err();
        assert!(!err.is_empty());
        req.kind = JobKind::Compress;
        req.spec = "garbage".into();
        assert!(run_job(&req, &[], &cache, None).is_err());
    }
}
