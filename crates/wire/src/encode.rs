//! Batch encoder: append frames row by row, patch the deferred header
//! fields (row/frame counts, total length, CRC) on completion.

use crate::crc::crc32;
use crate::{
    BATCH_HEADER_LEN, BATCH_MAGIC, CRC_TRAILER_LEN, FRAME_FLAG_CRC, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_PATHS_PER_ROW, MAX_ROWS_PER_FRAME, WIRE_VERSION,
};
use bytes::{BufMut, Bytes, BytesMut};

/// Encoder policy for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireEncodeOptions {
    /// Append a CRC32 trailer to every frame (flag [`FRAME_FLAG_CRC`]).
    pub crc: bool,
}

/// Builds one wire batch. Frames are appended either whole
/// ([`BatchEncoder::push_frame`]) or streamed row by row
/// ([`BatchEncoder::begin_frame`] / [`BatchEncoder::push_row`] /
/// [`BatchEncoder::end_frame`]); [`BatchEncoder::finish`] patches the
/// batch header and freezes the buffer.
///
/// Misuse (mismatched row length, unterminated frame, zero-path frame)
/// is a programmer error and panics — malformed *input* is the
/// parser's concern, not the encoder's.
#[derive(Debug)]
pub struct BatchEncoder {
    buf: BytesMut,
    opts: WireEncodeOptions,
    frames: u32,
    /// Byte offset of the open frame's header, if one is open.
    open_frame: Option<usize>,
    open_paths: u32,
    open_rows: u32,
}

impl BatchEncoder {
    /// Creates an encoder and writes the batch header placeholder.
    pub fn new(opts: WireEncodeOptions) -> BatchEncoder {
        BatchEncoder::with_capacity(opts, 0)
    }

    /// Creates an encoder with `capacity` bytes reserved.
    pub fn with_capacity(opts: WireEncodeOptions, capacity: usize) -> BatchEncoder {
        let mut buf = BytesMut::with_capacity(capacity.max(BATCH_HEADER_LEN));
        buf.put_slice(&BATCH_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(0); // batch flags: none defined in version 1
        buf.put_u16_le(0); // reserved
        buf.put_u32_le(0); // frame_count, patched in finish()
        buf.put_u32_le(0); // total_len, patched in finish()
        BatchEncoder {
            buf,
            opts,
            frames: 0,
            open_frame: None,
            open_paths: 0,
            open_rows: 0,
        }
    }

    /// Bytes written so far (including unpatched headers).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` until the first frame is begun.
    pub fn is_empty(&self) -> bool {
        self.frames == 0 && self.open_frame.is_none()
    }

    /// Opens a frame for `tenant` whose first row has sequence number
    /// `base_seq`.
    ///
    /// # Panics
    /// Panics if a frame is already open, `path_count` is zero, or
    /// `path_count` exceeds [`MAX_PATHS_PER_ROW`].
    pub fn begin_frame(&mut self, tenant: u32, base_seq: u64, path_count: u32) {
        assert!(self.open_frame.is_none(), "frame already open");
        assert!(
            path_count > 0 && path_count <= MAX_PATHS_PER_ROW,
            "path_count {path_count} out of range"
        );
        self.open_frame = Some(self.buf.len());
        self.open_paths = path_count;
        self.open_rows = 0;
        self.buf.put_slice(&FRAME_MAGIC);
        self.buf.put_u8(WIRE_VERSION);
        self.buf
            .put_u8(if self.opts.crc { FRAME_FLAG_CRC } else { 0 });
        self.buf.put_u16_le(0); // reserved
        self.buf.put_u32_le(tenant);
        self.buf.put_u32_le(0); // row_count, patched in end_frame()
        self.buf.put_u32_le(path_count);
        self.buf.put_u32_le(0); // reserved
        self.buf.put_u64_le(base_seq);
    }

    /// Appends one row (`path_count` log-rates) to the open frame.
    ///
    /// # Panics
    /// Panics if no frame is open, the row length disagrees with the
    /// frame's `path_count`, or the frame already holds
    /// [`MAX_ROWS_PER_FRAME`] rows.
    pub fn push_row(&mut self, row: &[f64]) {
        assert!(self.open_frame.is_some(), "no open frame");
        assert_eq!(
            row.len(),
            self.open_paths as usize,
            "row length disagrees with frame path_count"
        );
        assert!(self.open_rows < MAX_ROWS_PER_FRAME, "frame row limit");
        for &v in row {
            self.buf.put_f64_le(v);
        }
        self.open_rows += 1;
    }

    /// Closes the open frame: patches its row count and, when the CRC
    /// option is on, appends the checksum trailer.
    ///
    /// # Panics
    /// Panics if no frame is open or the frame holds zero rows.
    pub fn end_frame(&mut self) {
        let start = self.open_frame.take().expect("no open frame");
        assert!(self.open_rows > 0, "frame holds zero rows");
        let row_count_at = start + 12;
        self.buf.as_mut_slice()[row_count_at..row_count_at + 4]
            .copy_from_slice(&self.open_rows.to_le_bytes());
        if self.opts.crc {
            let sum = crc32(&self.buf.as_slice()[start..]);
            self.buf.put_u32_le(sum);
            self.buf.put_u32_le(0); // alignment pad
        }
        self.frames += 1;
        self.open_rows = 0;
        self.open_paths = 0;
    }

    /// Appends a whole frame from materialized rows.
    ///
    /// # Panics
    /// Panics on the same misuse as the streaming methods, including
    /// an empty `rows` or ragged row lengths.
    pub fn push_frame<R: AsRef<[f64]>>(&mut self, tenant: u32, base_seq: u64, rows: &[R]) {
        let first = rows.first().expect("frame needs at least one row");
        self.begin_frame(
            tenant,
            base_seq,
            u32::try_from(first.as_ref().len()).expect("path count fits u32"),
        );
        for row in rows {
            self.push_row(row.as_ref());
        }
        self.end_frame();
    }

    /// Patches the batch header (frame count, total length) and
    /// freezes the buffer into an immutable [`Bytes`].
    ///
    /// # Panics
    /// Panics if a frame is still open or the batch exceeds `u32`
    /// addressable bytes.
    pub fn finish(mut self) -> Bytes {
        assert!(self.open_frame.is_none(), "unterminated frame");
        let total = u32::try_from(self.buf.len()).expect("batch exceeds u32 bytes");
        self.buf.as_mut_slice()[8..12].copy_from_slice(&self.frames.to_le_bytes());
        self.buf.as_mut_slice()[12..16].copy_from_slice(&total.to_le_bytes());
        self.buf.freeze()
    }

    /// Size in bytes a frame of `rows × paths` occupies on the wire
    /// under `opts` — for pre-sizing encoder buffers.
    pub fn frame_wire_size(opts: WireEncodeOptions, rows: usize, paths: usize) -> usize {
        FRAME_HEADER_LEN + rows * paths * 8 + if opts.crc { CRC_TRAILER_LEN } else { 0 }
    }
}
