//! Framed binary snapshot wire format for the losstomo service edge.
//!
//! A **batch** is one contiguous byte buffer packing many snapshot
//! **frames**, each carrying a run of consecutive log-rate rows for one
//! tenant. All multi-byte fields are little-endian, and every
//! structure size is a multiple of 8 bytes so row payloads stay
//! 8-byte-aligned relative to the start of the buffer:
//!
//! ```text
//! batch  := batch_header frame*
//! frame  := frame_header payload crc_trailer?
//!
//! batch_header (16 B):  magic "LTSB" | version u8 | flags u8
//!                       | reserved u16 | frame_count u32 | total_len u32
//! frame_header (32 B):  magic "LTSF" | version u8 | flags u8
//!                       | reserved u16 | tenant u32 | row_count u32
//!                       | path_count u32 | reserved u32 | base_seq u64
//! payload:              row_count × path_count little-endian f64
//! crc_trailer (8 B):    crc32 u32 | zero pad u32     (frame flag 0x01)
//! ```
//!
//! Row `r` of a frame carries the snapshot with sequence number
//! `base_seq + r`. The payload bytes are exactly the `f64` bit
//! patterns of `Snapshot::log_rates()`, which is what makes estimates
//! computed from wire ingest bit-identical to direct enqueue.
//!
//! Decoding is **zero-copy**: [`WireBatch::parse`] validates every
//! header once, then [`SnapshotView`]s alias the input buffer — on a
//! little-endian machine with an 8-aligned payload the row is a plain
//! `&[f64]` cast (via `losstomo_linalg::simd::cast_bytes_to_f64`),
//! and [`FrameView::row_bytes`] hands out O(1) reference-counted
//! [`Bytes`] windows that can cross a queue without copying the
//! payload. The parser returns a typed [`WireError`] for every
//! malformed input — truncation, wrong magic, unknown version or
//! flags, oversized declared dimensions, CRC mismatch, trailing
//! garbage — and never panics (see the proptest suite).
//!
//! [`Bytes`]: bytes::Bytes

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod encode;
pub mod parse;

pub use encode::{BatchEncoder, WireEncodeOptions};
pub use parse::{FrameView, SnapshotView, WireBatch};

use std::fmt;

/// Wire protocol version understood by this crate.
pub const WIRE_VERSION: u8 = 1;

/// Magic prefix of a batch header.
pub const BATCH_MAGIC: [u8; 4] = *b"LTSB";

/// Magic prefix of a frame header.
pub const FRAME_MAGIC: [u8; 4] = *b"LTSF";

/// Batch header size in bytes.
pub const BATCH_HEADER_LEN: usize = 16;

/// Frame header size in bytes.
pub const FRAME_HEADER_LEN: usize = 32;

/// CRC trailer size in bytes (checksum + alignment pad).
pub const CRC_TRAILER_LEN: usize = 8;

/// Frame flag bit: a CRC trailer follows the payload.
pub const FRAME_FLAG_CRC: u8 = 0x01;

/// Upper bound on `row_count` in one frame; larger declarations are
/// rejected as [`WireError::Oversized`] before any allocation.
pub const MAX_ROWS_PER_FRAME: u32 = 1 << 20;

/// Upper bound on `path_count` in one frame; larger declarations are
/// rejected as [`WireError::Oversized`] before any allocation.
pub const MAX_PATHS_PER_ROW: u32 = 1 << 20;

/// Typed decode/encode failure. Every malformed input maps to one of
/// these — the parser never panics and never yields partial rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ends before the structure it declares.
    Truncated {
        /// Which structure was being read.
        context: &'static str,
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Magic prefix is not `LTSB`/`LTSF`.
    BadMagic {
        /// Which structure was being read.
        context: &'static str,
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// Version byte is newer than [`WIRE_VERSION`].
    UnsupportedVersion {
        /// Which structure was being read.
        context: &'static str,
        /// The version byte found.
        found: u8,
    },
    /// Flag bits this version does not define are set.
    UnknownFlags {
        /// Which structure was being read.
        context: &'static str,
        /// The flag byte found.
        flags: u8,
    },
    /// A reserved field is non-zero (corruption canary).
    ReservedNonZero {
        /// Which structure was being read.
        context: &'static str,
    },
    /// Declared dimensions exceed [`MAX_ROWS_PER_FRAME`] /
    /// [`MAX_PATHS_PER_ROW`].
    Oversized {
        /// Declared row count.
        rows: u32,
        /// Declared path count.
        paths: u32,
    },
    /// A frame declares zero rows or zero paths.
    EmptyFrame,
    /// Batch header `total_len` disagrees with the buffer length.
    LengthMismatch {
        /// Length the header declares.
        declared: u64,
        /// Length of the buffer handed to the parser.
        actual: u64,
    },
    /// Stored CRC32 does not match the frame contents.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over header + payload.
        computed: u32,
    },
    /// Bytes remain after the last declared frame.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated {context}: need {needed} bytes, have {available}"
            ),
            WireError::BadMagic { context, found } => {
                write!(f, "bad {context} magic {found:02x?}")
            }
            WireError::UnsupportedVersion { context, found } => write!(
                f,
                "unsupported {context} version {found} (this build speaks {WIRE_VERSION})"
            ),
            WireError::UnknownFlags { context, flags } => {
                write!(f, "unknown {context} flags {flags:#04x}")
            }
            WireError::ReservedNonZero { context } => {
                write!(f, "non-zero reserved field in {context}")
            }
            WireError::Oversized { rows, paths } => write!(
                f,
                "frame declares {rows}×{paths} rows (limits {MAX_ROWS_PER_FRAME}×{MAX_PATHS_PER_ROW})"
            ),
            WireError::EmptyFrame => write!(f, "frame declares zero rows or zero paths"),
            WireError::LengthMismatch { declared, actual } => write!(
                f,
                "batch declares {declared} bytes but buffer holds {actual}"
            ),
            WireError::CrcMismatch { stored, computed } => write!(
                f,
                "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after last frame")
            }
        }
    }
}

impl std::error::Error for WireError {}
