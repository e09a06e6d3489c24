//! # blockzip
//!
//! A from-scratch, lossless, general-purpose block-sorting compressor in
//! the BZIP2 family: Burrows–Wheeler transform (built on a linear-time
//! SA-IS suffix array), move-to-front coding, zero-run-length coding, and
//! canonical Huffman entropy coding with BZIP2-style multi-table group
//! selectors, framed in CRC-protected blocks.
//!
//! In the TCgen reproduction this crate plays the role BZIP2 1.0.2 plays
//! in the paper: it is both the standalone general-purpose baseline and
//! the post-compression stage every trace compressor feeds its streams
//! through.
//!
//! One lighter sibling pipeline shares the block framing: [`range`] is
//! an order-0 adaptive binary range coder with a stored-block fallback.
//! It trades ratio for throughput and backs the engine's `fast` profile.
//!
//! ## Quick start
//!
//! ```
//! let original = b"tobeornottobe".repeat(100);
//! let packed = blockzip::compress(&original)?;
//! let unpacked = blockzip::decompress(&packed)?;
//! assert_eq!(unpacked, original);
//! # Ok::<(), blockzip::Error>(())
//! ```

pub mod bitio;
pub mod block;
pub mod bwt;
pub mod crc;
pub mod groups;
pub mod huffman;
pub mod mtf;
pub mod range;
pub mod rle;
pub mod sais;

pub use block::{
    compress, compress_with, compress_with_scratch, decompress, decompress_with_limit,
    decompress_with_scratch, Level, Scratch,
};

/// Errors produced while decompressing a blockzip container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input does not start with the blockzip magic bytes.
    BadMagic,
    /// The input ended before the framing said it should.
    Truncated,
    /// Structural or entropy-stream corruption, with a description.
    Corrupt(String),
    /// The decompressed block failed its CRC-32 check.
    CrcMismatch {
        /// Checksum recorded at compression time.
        expected: u32,
        /// Checksum of the block actually decoded.
        actual: u32,
    },
    /// A block's raw or payload length does not fit the 32-bit framing
    /// fields, so the block cannot be written without corrupting it.
    TooLarge {
        /// The length that overflowed the field.
        len: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadMagic => write!(f, "not a blockzip container"),
            Error::Truncated => write!(f, "unexpected end of input"),
            Error::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            Error::CrcMismatch { expected, actual } => {
                write!(f, "crc mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
            Error::TooLarge { len } => {
                write!(f, "block of {len} bytes exceeds the 32-bit framing limit")
            }
        }
    }
}

impl std::error::Error for Error {}
