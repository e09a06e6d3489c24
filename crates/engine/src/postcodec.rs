//! The post-compression stage: every predictor-code and miss-value
//! segment passes through a [`PostCodec`], and which backend ran is
//! recorded per container in the flags byte, so decompression dispatches
//! on the container rather than on local configuration.
//!
//! Two backends ship, surfaced on the CLI as `--profile fast|max`:
//!
//! * [`Backend::Max`] — the full blockzip pipeline (BWT → MTF → RLE →
//!   Huffman). The default, and the id-zero encoding, so containers
//!   written before backends existed decode unchanged.
//! * [`Backend::Fast`] — an order-0 adaptive binary range coder with
//!   stored-block fallback ([`blockzip::range`]).
//!
//! Id 1 belonged to the retired `balanced` backend (blockzip without the
//! BWT); every path that reads container flags refuses it by name.

use tcgen_telemetry::Recorder;

use blockzip::{Level, Scratch};

/// Identifies a post-compression backend; stored in container flag bits
/// 3–4 (see [`crate::EngineOptions::flags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Full blockzip: best ratio, slowest (id 0, the default).
    #[default]
    Max,
    /// Order-0 adaptive range coder with store fallback (id 2).
    Fast,
}

impl Backend {
    /// Every backend, in id order.
    pub const ALL: [Backend; 2] = [Backend::Max, Backend::Fast];

    /// The two-bit id recorded in the container flags byte.
    pub const fn id(self) -> u8 {
        match self {
            Backend::Max => 0,
            Backend::Fast => 2,
        }
    }

    /// Resolves a flags-byte id; `None` for the retired id 1 and the
    /// reserved id 3.
    pub const fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(Backend::Max),
            2 => Some(Backend::Fast),
            _ => None,
        }
    }

    /// The CLI profile name.
    pub const fn profile(self) -> &'static str {
        match self {
            Backend::Max => "max",
            Backend::Fast => "fast",
        }
    }

    /// Resolves a CLI profile name.
    pub fn from_profile(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.profile() == name)
    }

    /// Telemetry span name for packing one segment with this backend.
    pub(crate) const fn pack_span(self) -> &'static str {
        match self {
            Backend::Max => "pack.segment.max",
            Backend::Fast => "pack.segment.fast",
        }
    }

    /// Telemetry span name for unpacking one segment with this backend.
    pub(crate) const fn unpack_span(self) -> &'static str {
        match self {
            Backend::Max => "unpack.segment.max",
            Backend::Fast => "unpack.segment.fast",
        }
    }

    /// Builds a codec instance. Each worker thread owns one, so the
    /// backing scratch buffers are reused across that worker's segments.
    pub fn codec(self, level: Level) -> PostCodec {
        PostCodec { backend: self, level, scratch: Scratch::default() }
    }
}

/// One post-compression backend instance: compresses and decompresses
/// stream segments. It owns its scratch state, so a single instance
/// serves one thread's segments back to back.
#[derive(Debug)]
pub struct PostCodec {
    backend: Backend,
    level: Level,
    scratch: Scratch,
}

impl PostCodec {
    /// The backend this codec runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Attaches stage-timing probes feeding `blockzip.*` counters.
    /// Observation-only: output bytes are unchanged.
    pub fn attach_probes(&mut self, recorder: &Recorder) {
        self.scratch.attach_probes(recorder);
    }

    /// Compresses one segment payload.
    ///
    /// # Errors
    ///
    /// Returns [`blockzip::Error::TooLarge`] if a framing field would
    /// overflow.
    pub fn compress(&mut self, payload: &[u8]) -> Result<Vec<u8>, blockzip::Error> {
        match self.backend {
            Backend::Max => {
                blockzip::compress_with_scratch(payload, self.level, &mut self.scratch)
            }
            Backend::Fast => {
                blockzip::range::compress_with_scratch(payload, self.level, &mut self.scratch)
            }
        }
    }

    /// Decompresses one segment, failing if the output would exceed
    /// `max_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`blockzip::Error`] on any framing, entropy, or CRC
    /// failure.
    pub fn decompress(
        &mut self,
        segment: &[u8],
        max_len: usize,
    ) -> Result<Vec<u8>, blockzip::Error> {
        match self.backend {
            Backend::Max => {
                blockzip::decompress_with_scratch(segment, max_len, &mut self.scratch)
            }
            Backend::Fast => {
                blockzip::range::decompress_with_scratch(segment, max_len, &mut self.scratch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_reserved_id_is_rejected() {
        for backend in Backend::ALL {
            assert_eq!(Backend::from_id(backend.id()), Some(backend));
            assert_eq!(Backend::from_profile(backend.profile()), Some(backend));
        }
        // Id 1 and "balanced" named the retired sort-free backend.
        assert_eq!(Backend::from_id(1), None);
        assert_eq!(Backend::from_id(3), None);
        assert_eq!(Backend::from_profile("balanced"), None);
        assert_eq!(Backend::from_profile("fastest"), None);
        assert_eq!(Backend::Max.id(), 0, "id 0 must stay the legacy blockzip encoding");
    }

    #[test]
    fn every_backend_roundtrips_segments() {
        let payloads: [&[u8]; 3] =
            [b"", b"code stream 000000000001111", [7u8; 50_000].as_slice()];
        for backend in Backend::ALL {
            let mut codec = backend.codec(Level::BEST);
            assert_eq!(codec.backend(), backend);
            for payload in payloads {
                let packed = codec.compress(payload).unwrap();
                let unpacked = codec.decompress(&packed, payload.len()).unwrap();
                assert_eq!(unpacked, payload, "{backend:?}");
            }
        }
    }

    #[test]
    fn backends_reject_each_others_containers() {
        let payload = b"cross-backend segments must fail cleanly".repeat(10);
        for write in Backend::ALL {
            let packed = write.codec(Level::BEST).compress(&payload).unwrap();
            for read in Backend::ALL {
                if read == write {
                    continue;
                }
                let err = read.codec(Level::BEST).decompress(&packed, payload.len());
                assert!(matches!(err, Err(blockzip::Error::BadMagic)), "{write:?}->{read:?}");
            }
        }
    }
}
