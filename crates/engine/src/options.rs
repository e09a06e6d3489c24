//! Engine configuration, including the ablation presets of Table 2 and
//! the VPC3 baseline configuration.

use tcgen_predictors::{PredictorOptions, UpdatePolicy};

use crate::postcodec::Backend;
use crate::Error;

/// Full configuration of the compression engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Predictor behaviour (update policy, hashing, sharing).
    pub predictor: PredictorOptions,
    /// Write unpredictable values and table elements with the smallest
    /// sufficient type (TCgen's type minimization). When disabled, every
    /// miss value is written as 8 bytes regardless of field width.
    pub minimize_types: bool,
    /// Records per block; streams are post-compressed per block. `0`
    /// means the whole trace forms a single block.
    pub block_records: usize,
    /// Worker threads, the engine's only worker knob: they pack and
    /// inflate block segments, and score the tuner's candidates. `0`
    /// means one thread per available CPU, `1` does everything on the
    /// calling thread. Modeling and replay always run on the calling
    /// thread. The compressed container is byte-identical for every
    /// thread count, so this is a speed-only option and not part of the
    /// flags.
    pub threads: usize,
    /// Ignored: modeling and replay run on the calling thread, and
    /// [`Self::threads`] is the only worker knob.
    #[deprecated(note = "ignored; `threads` is the only worker knob")]
    pub model_threads: usize,
    /// Post-compressor block-size level.
    pub level: blockzip::Level,
    /// Post-compression backend (the CLI's `--profile`). Semantics-
    /// affecting in the sense that it selects the segment format, so it
    /// travels in the container flags; any configuration can decompress
    /// any container because decode dispatches on the recorded id.
    pub backend: Backend,
    /// Start a new span every this many blocks and append a seekable
    /// footer (the CLI's `--checkpoint-blocks`). Every span starts from
    /// fresh predictor state, so it decodes on its own. `0` — the
    /// default — writes the byte-identical container without spans. Any
    /// positive value sets the span flag bit; decompression reads the
    /// markers and the footer, not this knob, so the interval only
    /// matters on the compress side.
    pub checkpoint_blocks: usize,
}

impl EngineOptions {
    /// TCgen with all optimizations enabled (the paper's default, the
    /// "full optimizations" row of Table 2).
    #[allow(deprecated)]
    pub fn tcgen() -> Self {
        Self {
            predictor: PredictorOptions::default(),
            minimize_types: true,
            block_records: 1 << 20,
            threads: 0,
            model_threads: 0,
            level: blockzip::Level::BEST,
            backend: Backend::Max,
            checkpoint_blocks: 0,
        }
    }

    /// The VPC3 baseline: always-update policy and a fixed (non-adaptive)
    /// hash shift — the algorithm TCgen's §5.3 enhancements improve upon.
    pub fn vpc3() -> Self {
        Self {
            predictor: PredictorOptions {
                policy: UpdatePolicy::Always,
                adaptive_shift: false,
                ..PredictorOptions::default()
            },
            ..Self::tcgen()
        }
    }

    /// Table 2 row "no smart update": predictors are always updated.
    pub fn no_smart_update() -> Self {
        Self {
            predictor: PredictorOptions {
                policy: UpdatePolicy::Always,
                ..PredictorOptions::default()
            },
            ..Self::tcgen()
        }
    }

    /// Table 2 row "no type minimization": miss values are written as
    /// full 8-byte words and predictor tables store full `u64` elements.
    pub fn no_type_minimization() -> Self {
        Self {
            predictor: PredictorOptions {
                minimal_elements: false,
                ..PredictorOptions::default()
            },
            minimize_types: false,
            ..Self::tcgen()
        }
    }

    /// Table 2 row "no shared tables": every predictor owns private
    /// tables (same predictions, more memory traffic).
    pub fn no_shared_tables() -> Self {
        Self {
            predictor: PredictorOptions { shared_tables: false, ..PredictorOptions::default() },
            ..Self::tcgen()
        }
    }

    /// Table 2 row "no fast hash function": hashes are recomputed from
    /// scratch on every access (identical results, slower).
    pub fn no_fast_hash() -> Self {
        Self {
            predictor: PredictorOptions { fast_hash: false, ..PredictorOptions::default() },
            ..Self::tcgen()
        }
    }

    /// Table 2 row "all of the above": the four de-optimizations at once.
    pub fn all_deoptimized() -> Self {
        Self {
            predictor: PredictorOptions {
                policy: UpdatePolicy::Always,
                fast_hash: false,
                shared_tables: false,
                adaptive_shift: true,
                minimal_elements: false,
            },
            minimize_types: false,
            ..Self::tcgen()
        }
    }

    /// The block size with `0` normalized to "whole trace".
    pub fn effective_block_records(&self) -> usize {
        if self.block_records == 0 {
            usize::MAX
        } else {
            self.block_records
        }
    }

    /// The worker count with `0` normalized to the available parallelism
    /// (falling back to 1 when it cannot be determined).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Flag bits this build understands: bits 0–2 are the semantic
    /// predictor options, bits 3–4 the post-compression backend id, bit 6
    /// the spans. Bit 5 is retired and bit 7 reserved; both must be zero.
    const KNOWN_FLAGS: u8 = 0b0101_1111;

    /// Bit 5, retired: the container carries predictor-state snapshot
    /// checkpoints, a layout this build no longer reads.
    const FLAG_SNAPSHOTS: u8 = 0b0010_0000;

    /// Backend id 1, retired: the sort-free `balanced` backend (blockzip
    /// without the BWT), whose segments this build no longer reads.
    const BACKEND_BALANCED: u8 = 1;

    /// Bit 6: the container is cut into spans that each start from fresh
    /// predictor state, and a seekable footer follows the end marker.
    pub(crate) const FLAG_SPANS: u8 = 0b0100_0000;

    /// Encodes the semantics-affecting options into a container flag
    /// byte: bit 0 smart update, bit 1 adaptive shift, bit 2 type
    /// minimization, bits 3–4 the post-compression backend id, bit 6 the
    /// spans. Speed-only options (fast hash, sharing, threads) are
    /// excluded: any decompressor configuration reproduces the same
    /// trace.
    pub fn flags(&self) -> u8 {
        let mut f = 0u8;
        if self.predictor.policy == UpdatePolicy::Smart {
            f |= 1;
        }
        if self.predictor.adaptive_shift {
            f |= 2;
        }
        if self.minimize_types {
            f |= 4;
        }
        if self.checkpoint_blocks > 0 {
            f |= Self::FLAG_SPANS;
        }
        f | (self.backend.id() << 3)
    }

    /// Reconstructs semantics-affecting options from a container flag
    /// byte, keeping this configuration's speed-only settings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the byte marks a retired layout
    /// (snapshot checkpoints, the `balanced` backend, each refused by
    /// name), or uses reserved bits or a backend id this build does not
    /// understand — a forward-compat guard, so a newer container fails
    /// loudly instead of being misdecoded.
    pub fn with_flags(mut self, flags: u8) -> Result<Self, Error> {
        Self::reject_retired(flags)?;
        if flags & !Self::KNOWN_FLAGS != 0 {
            return Err(Error::Corrupt(format!(
                "container flags {flags:#04x} use reserved bits this build does not understand"
            )));
        }
        let backend_id = (flags >> 3) & 0b11;
        self.backend = Backend::from_id(backend_id).ok_or_else(|| {
            Error::Corrupt(format!("unknown post-compression backend id {backend_id}"))
        })?;
        self.predictor.policy =
            if flags & 1 != 0 { UpdatePolicy::Smart } else { UpdatePolicy::Always };
        self.predictor.adaptive_shift = flags & 2 != 0;
        self.minimize_types = flags & 4 != 0;
        // The interval is a compress-side knob; decode only needs the
        // bit. Normalize so flags() of the rebuilt options round-trips.
        self.checkpoint_blocks =
            if flags & Self::FLAG_SPANS != 0 { self.checkpoint_blocks.max(1) } else { 0 };
        Ok(self)
    }

    /// Fails, naming the layout, on the retired layouts a flags byte can
    /// mark: bit 5, the snapshot checkpoints, and backend id 1, the
    /// `balanced` backend.
    pub(crate) fn reject_retired(flags: u8) -> Result<(), Error> {
        let retired = if flags & Self::FLAG_SNAPSHOTS != 0 {
            "mark retired snapshot checkpoints (bit 5)"
        } else if (flags >> 3) & 0b11 == Self::BACKEND_BALANCED {
            "use the retired balanced backend (id 1)"
        } else {
            return Ok(());
        };
        Err(Error::Corrupt(format!(
            "container flags {flags:#04x} {retired}; \
             decompress it with an older build and recompress it"
        )))
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::tcgen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip_semantic_options() {
        for backend in Backend::ALL {
            for opts in [
                EngineOptions::tcgen(),
                EngineOptions::vpc3(),
                EngineOptions::no_smart_update(),
                EngineOptions::no_type_minimization(),
                EngineOptions::all_deoptimized(),
            ] {
                let opts = EngineOptions { backend, ..opts };
                let rebuilt = EngineOptions::tcgen().with_flags(opts.flags()).unwrap();
                assert_eq!(rebuilt.predictor.policy, opts.predictor.policy);
                assert_eq!(rebuilt.predictor.adaptive_shift, opts.predictor.adaptive_shift);
                assert_eq!(rebuilt.minimize_types, opts.minimize_types);
                assert_eq!(rebuilt.backend, backend);
            }
        }
    }

    #[test]
    fn legacy_flag_bytes_decode_to_the_max_backend() {
        // Containers written before backends existed carry flags 0..=7;
        // those must keep decoding as full blockzip, bit-for-bit.
        assert_eq!(EngineOptions::tcgen().flags(), 0b111);
        for flags in 0u8..=7 {
            let opts = EngineOptions::tcgen().with_flags(flags).unwrap();
            assert_eq!(opts.backend, Backend::Max, "flags {flags:#04x}");
        }
    }

    #[test]
    fn reserved_flag_bits_and_backend_ids_rejected() {
        for flags in [0b1000_0111u8, 0b1000_0000, 0b1100_0000, 0xff] {
            let err = EngineOptions::tcgen().with_flags(flags).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "flags {flags:#04x}");
        }
        // Backend id 3 sits inside the known bits but names no backend.
        let err = EngineOptions::tcgen().with_flags(0b0001_1111).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
        // Id 1, the retired balanced backend, is refused by name.
        match EngineOptions::tcgen().with_flags(0b0000_1111) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains("retired balanced backend"), "{msg}")
            }
            other => panic!("backend id 1 accepted: {other:?}"),
        }
    }

    #[test]
    fn checkpoint_interval_travels_as_one_flag_bit() {
        let base = EngineOptions::tcgen();
        for interval in [1usize, 4, 1 << 20] {
            let opts = EngineOptions { checkpoint_blocks: interval, ..base };
            assert_eq!(opts.flags(), base.flags() | 0b0100_0000);
            let rebuilt = base.with_flags(opts.flags()).unwrap();
            assert!(rebuilt.checkpoint_blocks > 0);
            assert_eq!(rebuilt.flags(), opts.flags());
        }
        // The bit decodes cleanly off as well.
        let rebuilt =
            EngineOptions { checkpoint_blocks: 7, ..base }.with_flags(base.flags()).unwrap();
        assert_eq!(rebuilt.checkpoint_blocks, 0);
        assert_eq!(rebuilt.flags(), base.flags());
    }

    #[test]
    fn speed_only_rows_keep_tcgen_semantics() {
        assert_eq!(EngineOptions::no_shared_tables().flags(), EngineOptions::tcgen().flags());
        assert_eq!(EngineOptions::no_fast_hash().flags(), EngineOptions::tcgen().flags());
    }

    #[test]
    fn vpc3_differs_from_tcgen() {
        assert_ne!(EngineOptions::vpc3().flags(), EngineOptions::tcgen().flags());
    }

    #[test]
    fn zero_values_normalize() {
        let opts = EngineOptions { block_records: 0, threads: 0, ..EngineOptions::tcgen() };
        assert_eq!(opts.effective_block_records(), usize::MAX);
        assert!(opts.effective_threads() >= 1);
        let opts = EngineOptions { block_records: 7, threads: 3, ..EngineOptions::tcgen() };
        assert_eq!(opts.effective_block_records(), 7);
        assert_eq!(opts.effective_threads(), 3);
    }

    #[test]
    fn threads_and_block_size_stay_out_of_flags() {
        let base = EngineOptions::tcgen();
        let tuned = EngineOptions { threads: 8, block_records: 123, ..base };
        assert_eq!(tuned.flags(), base.flags());
    }
}
