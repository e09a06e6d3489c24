//! # tcgen-engine
//!
//! The spec-driven trace-compression engine: the executable semantics of
//! the code TCgen generates. A trace matching a [`tcgen_spec::TraceSpec`]
//! is converted into per-field predictor-code and miss-value streams
//! (paper §1) which are post-compressed with [`blockzip`]; decompression
//! replays the predictors to reconstruct the trace bit-for-bit.
//!
//! Every application-specific optimization of §5.2/§5.3 is implemented
//! and individually toggleable through [`EngineOptions`], which is how
//! the Table 2 ablation and the VPC3 baseline are reproduced.
//!
//! ```
//! use tcgen_engine::{Engine, EngineOptions};
//!
//! let spec = tcgen_spec::parse(tcgen_spec::presets::TCGEN_A)?;
//! let engine = Engine::new(spec, EngineOptions::tcgen());
//!
//! // A tiny trace: 4-byte header + (32-bit PC, 64-bit data) records.
//! let mut trace = vec![1, 2, 3, 4];
//! for i in 0..100u64 {
//!     trace.extend_from_slice(&(0x40_0000u32).to_le_bytes());
//!     trace.extend_from_slice(&(0x1000 + i * 8).to_le_bytes());
//! }
//! let packed = engine.compress(&trace)?;
//! assert_eq!(engine.decompress(&packed)?, trace);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;
pub(crate) mod columnar;
pub(crate) mod container;
pub mod evaluate;
pub mod options;
pub(crate) mod pool;
pub mod postcodec;
pub mod seek;
pub mod streams;
pub mod usage;

pub use codec::{
    compress_stream, compress_stream_with_telemetry, decompress_stream,
    decompress_stream_with_telemetry,
};
pub use columnar::drop_idle_tables;
pub use evaluate::{score_candidates, score_candidates_with_telemetry, CandidateScore};
pub use options::EngineOptions;
pub use pool::with_job_priority;
pub use postcodec::{Backend, PostCodec};
pub use seek::{extract_range, inspect, ContainerInfo, SpanInfo, SEEK_BYTES_READ};
pub use tcgen_predictors::{OccTable, TableOccupancy};
/// The telemetry subsystem, re-exported so engine users need not depend
/// on `tcgen-telemetry` directly.
pub use tcgen_telemetry as telemetry;
pub use tcgen_telemetry::Recorder;
pub use usage::{FieldUsage, UsageReport};

use tcgen_spec::TraceSpec;

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The container does not start with the TCGZ magic.
    BadMagic,
    /// The container ended early.
    Truncated,
    /// The container was produced for a different trace specification.
    SpecMismatch {
        /// Hash of the decompressor's specification.
        expected: u32,
        /// Hash stored in the container.
        found: u32,
    },
    /// The input trace is not `header + k * record_bytes` long.
    PartialRecord {
        /// Input length in bytes.
        len: usize,
        /// Expected header length.
        header_len: usize,
        /// Expected record length.
        record_len: usize,
    },
    /// A post-compressed segment failed to decode.
    Post(blockzip::Error),
    /// Any other structural corruption.
    Corrupt(String),
    /// An engine bug, not an input problem: a worker panicked or an
    /// invariant broke. Long-running services report this per job
    /// instead of crashing the process.
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadMagic => write!(f, "not a TCGZ container"),
            Error::Truncated => write!(f, "unexpected end of container"),
            Error::SpecMismatch { expected, found } => write!(
                f,
                "trace specification mismatch: container {found:#010x}, \
                 decompressor {expected:#010x}"
            ),
            Error::PartialRecord { len, header_len, record_len } => write!(
                f,
                "trace length {len} is not {header_len} header bytes plus a \
                 whole number of {record_len}-byte records"
            ),
            Error::Post(e) => write!(f, "post-compression stage: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Post(e) => Some(e),
            _ => None,
        }
    }
}

impl From<blockzip::Error> for Error {
    fn from(e: blockzip::Error) -> Self {
        Error::Post(e)
    }
}

/// An I/O failure or a codec failure during streaming or seeking.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The trace or container was malformed.
    Codec(Error),
}

impl StreamError {
    /// A [`Error::Corrupt`] codec error.
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StreamError::Codec(Error::Corrupt(msg.into()))
    }

    /// The codec error of an operation whose reads and writes cannot fail
    /// (byte slices in, vectors out).
    pub(crate) fn into_codec(self) -> Error {
        match self {
            StreamError::Codec(e) => e,
            StreamError::Io(e) => Error::Internal(format!("i/o on an in-memory buffer: {e}")),
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o: {e}"),
            StreamError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<Error> for StreamError {
    fn from(e: Error) -> Self {
        StreamError::Codec(e)
    }
}

/// A trace compressor/decompressor for one specification.
///
/// The engine is stateless across calls: each [`Engine::compress`] or
/// [`Engine::decompress`] starts from zeroed predictor tables, so one
/// engine can serve many traces, from any number of threads. The tables
/// belong to the calling thread, not the engine: a thread keeps the set
/// its last call used and resets it in place — clearing only the lines
/// that call wrote — for its next call with the same specification and
/// predictor options, instead of allocating a new one. A thread holds at
/// most one idle set and frees it when it exits, or at
/// [`drop_idle_tables`].
#[derive(Debug, Clone)]
pub struct Engine {
    spec: TraceSpec,
    options: EngineOptions,
    /// FNV-1a hash of the canonical spec text, computed once here so
    /// compress/decompress calls don't re-canonicalize the spec.
    spec_hash: u32,
    /// When attached, compress/decompress runs record spans, counters,
    /// and pool stats into this recorder. Observation-only: containers
    /// are byte-identical with or without it.
    telemetry: Option<Recorder>,
}

impl Engine {
    /// Creates an engine for `spec` under `options`. `spec` must have
    /// passed [`tcgen_spec::validate()`] (as [`tcgen_spec::parse()`] ensures).
    pub fn new(spec: TraceSpec, options: EngineOptions) -> Self {
        let spec_hash = codec::spec_hash(&spec);
        Self { spec, options, spec_hash, telemetry: None }
    }

    /// Attaches a telemetry recorder; subsequent compress/decompress
    /// calls trace into it. Telemetry never changes output bytes.
    #[must_use]
    pub fn with_telemetry(mut self, recorder: Recorder) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&Recorder> {
        self.telemetry.as_ref()
    }

    /// The engine's trace specification.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }

    /// The engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Compresses a raw trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PartialRecord`] if `raw` is not a whole number of
    /// records after the header.
    pub fn compress(&self, raw: &[u8]) -> Result<Vec<u8>, Error> {
        codec::compress_slice(self, raw, None)
    }

    /// Compresses a raw trace and reports predictor usage (the feedback
    /// TCgen prints after each compression).
    ///
    /// # Errors
    ///
    /// As for [`Engine::compress`].
    pub fn compress_with_usage(&self, raw: &[u8]) -> Result<(Vec<u8>, UsageReport), Error> {
        let mut report = UsageReport::new(&self.spec);
        let packed = codec::compress_slice(self, raw, Some(&mut report))?;
        Ok((packed, report))
    }

    /// Decompresses a TCGZ container produced for the same specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpecMismatch`] for containers of other formats
    /// and [`Error::Corrupt`]/[`Error::Truncated`] on damage.
    pub fn decompress(&self, packed: &[u8]) -> Result<Vec<u8>, Error> {
        codec::decompress_slice(self, packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcgen_spec::{parse, presets};

    fn vpc_trace(records: &[(u32, u64)]) -> Vec<u8> {
        let mut raw = vec![0xaa, 0xbb, 0xcc, 0xdd];
        for &(pc, data) in records {
            raw.extend_from_slice(&pc.to_le_bytes());
            raw.extend_from_slice(&data.to_le_bytes());
        }
        raw
    }

    fn tcgen_a() -> Engine {
        Engine::new(parse(presets::TCGEN_A).unwrap(), EngineOptions::tcgen())
    }

    #[test]
    fn empty_trace_roundtrip() {
        let engine = tcgen_a();
        let raw = vpc_trace(&[]);
        let packed = engine.compress(&raw).unwrap();
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn strided_trace_roundtrip_and_compresses() {
        let engine = tcgen_a();
        let records: Vec<(u32, u64)> = (0..20_000u32)
            .map(|i| (0x40_0000 + (i % 7) * 4, 0x1_0000 + u64::from(i) * 8))
            .collect();
        let raw = vpc_trace(&records);
        let packed = engine.compress(&raw).unwrap();
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
        assert!(
            packed.len() * 20 < raw.len(),
            "strided trace should compress >20x, got {} -> {}",
            raw.len(),
            packed.len()
        );
    }

    #[test]
    fn random_trace_roundtrip() {
        let engine = tcgen_a();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let records: Vec<(u32, u64)> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x as u32) & 0xffff_fffc, x.rotate_left(17))
            })
            .collect();
        let raw = vpc_trace(&records);
        let packed = engine.compress(&raw).unwrap();
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn multi_block_roundtrip() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions { block_records: 100, ..EngineOptions::tcgen() };
        let engine = Engine::new(spec, options);
        let records: Vec<(u32, u64)> =
            (0..1_000).map(|i| (0x40_0000 + (i % 13) * 4, u64::from(i % 97) * 24)).collect();
        let raw = vpc_trace(&records);
        let packed = engine.compress(&raw).unwrap();
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn all_option_presets_roundtrip() {
        let records: Vec<(u32, u64)> =
            (0..3_000).map(|i| (0x40_0000 + (i % 5) * 4, u64::from(i) * 4 + 3)).collect();
        let raw = vpc_trace(&records);
        for options in [
            EngineOptions::tcgen(),
            EngineOptions::vpc3(),
            EngineOptions::no_smart_update(),
            EngineOptions::no_type_minimization(),
            EngineOptions::no_shared_tables(),
            EngineOptions::no_fast_hash(),
            EngineOptions::all_deoptimized(),
        ] {
            let engine = Engine::new(parse(presets::TCGEN_A).unwrap(), options);
            let packed = engine.compress(&raw).unwrap();
            assert_eq!(engine.decompress(&packed).unwrap(), raw, "{options:?}");
        }
    }

    #[test]
    fn cross_options_decompression_works() {
        // Speed-only options may differ between compressor and
        // decompressor; semantic options travel in the container.
        let records: Vec<(u32, u64)> =
            (0..2_000u32).map(|i| (0x40_0000, u64::from(i % 19) * 8)).collect();
        let raw = vpc_trace(&records);
        let compressor = Engine::new(parse(presets::TCGEN_A).unwrap(), EngineOptions::vpc3());
        let decompressor =
            Engine::new(parse(presets::TCGEN_A).unwrap(), EngineOptions::tcgen());
        let packed = compressor.compress(&raw).unwrap();
        assert_eq!(decompressor.decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn smart_update_improves_compression_on_noisy_repeats() {
        // Alternating noise/repeat pattern: smart update keeps distinct
        // values in the lines, always-update clobbers them.
        let mut x = 99u64;
        let records: Vec<(u32, u64)> = (0..30_000)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let data = if i % 2 == 0 { 0xabc0 } else { x >> 20 << 4 };
                (0x40_0000 + (i % 3) * 4, data)
            })
            .collect();
        let raw = vpc_trace(&records);
        let smart = tcgen_a().compress(&raw).unwrap();
        let always =
            Engine::new(parse(presets::TCGEN_A).unwrap(), EngineOptions::no_smart_update())
                .compress(&raw)
                .unwrap();
        assert!(
            smart.len() <= always.len(),
            "smart update should not hurt: smart {} vs always {}",
            smart.len(),
            always.len()
        );
    }

    #[test]
    fn partial_record_rejected() {
        let engine = tcgen_a();
        let mut raw = vpc_trace(&[(1, 2)]);
        raw.pop();
        assert!(matches!(engine.compress(&raw), Err(Error::PartialRecord { .. })));
        assert!(matches!(engine.compress(&[1, 2]), Err(Error::PartialRecord { .. })));
    }

    #[test]
    fn spec_mismatch_detected() {
        let engine_a = tcgen_a();
        let engine_b = Engine::new(parse(presets::TCGEN_B).unwrap(), EngineOptions::tcgen());
        let raw = vpc_trace(&[(0x40_0000, 7); 10]);
        let packed = engine_a.compress(&raw).unwrap();
        assert!(matches!(engine_b.decompress(&packed), Err(Error::SpecMismatch { .. })));
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let engine = tcgen_a();
        let raw = vpc_trace(&[(0x40_0000, 7); 50]);
        let packed = engine.compress(&raw).unwrap();
        assert!(matches!(engine.decompress(b"NOPE"), Err(Error::BadMagic)));
        for cut in [4usize, 8, 12, packed.len() - 1] {
            assert!(engine.decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn usage_report_accounts_for_every_record() {
        let engine = tcgen_a();
        let records: Vec<(u32, u64)> =
            (0..500u32).map(|i| (0x40_0000, u64::from(i) * 8)).collect();
        let raw = vpc_trace(&records);
        let (_, report) = engine.compress_with_usage(&raw).unwrap();
        assert_eq!(report.fields[0].total(), 500);
        assert_eq!(report.fields[1].total(), 500);
        // A constant PC is perfectly predictable after warmup.
        assert!(report.fields[0].hit_rate() > 0.95, "{}", report.fields[0].hit_rate());
        // A pure stride is DFCM territory.
        assert!(report.fields[1].hit_rate() > 0.9, "{}", report.fields[1].hit_rate());
    }

    #[test]
    fn general_purpose_byte_mode_roundtrips_arbitrary_files() {
        // §4: a single 8-bit field with L1 = 1 compresses any file.
        let spec = parse(
            "TCgen Trace Specification;\n8-Bit Field 1 = {: FCM2[2], LV[2]};\nPC = Field 1;",
        )
        .unwrap();
        let engine = Engine::new(spec, EngineOptions::tcgen());
        let data = b"any old file contents, repeated a bit. ".repeat(100);
        let packed = engine.compress(&data).unwrap();
        assert_eq!(engine.decompress(&packed).unwrap(), data);
    }
}
