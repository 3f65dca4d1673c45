//! Zero-copy batch parser: one validation pass over the buffer, then
//! row views that alias it.

use crate::crc::crc32;
use crate::{
    WireError, BATCH_HEADER_LEN, BATCH_MAGIC, CRC_TRAILER_LEN, FRAME_FLAG_CRC, FRAME_HEADER_LEN,
    FRAME_MAGIC, MAX_PATHS_PER_ROW, MAX_ROWS_PER_FRAME, WIRE_VERSION,
};
use bytes::Bytes;
use losstomo_linalg::simd::cast_bytes_to_f64;

/// Validated offsets of one frame inside the batch buffer.
#[derive(Debug, Clone)]
struct FrameMeta {
    tenant: u32,
    base_seq: u64,
    rows: u32,
    paths: u32,
    /// Absolute byte offset of the payload in the batch buffer.
    payload_start: usize,
}

/// A parsed batch: the owned input buffer plus validated frame
/// offsets. All header, bound, and CRC checks happen once in
/// [`WireBatch::parse`]; the accessors after that are infallible and
/// alias the buffer.
#[derive(Debug)]
pub struct WireBatch {
    buf: Bytes,
    frames: Vec<FrameMeta>,
}

fn need(b: &[u8], off: usize, n: usize, context: &'static str) -> Result<(), WireError> {
    let available = b.len().saturating_sub(off);
    if available < n {
        Err(WireError::Truncated {
            context,
            needed: n,
            available,
        })
    } else {
        Ok(())
    }
}

// Fixed-width little-endian reads; callers have bounds-checked via
// `need`, and `expect` documents that contract without unsafe.
fn rd_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(b[off..off + 2].try_into().expect("bounds checked"))
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("bounds checked"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("bounds checked"))
}

impl WireBatch {
    /// Parses and fully validates a batch. Returns a typed
    /// [`WireError`] for any malformed input; never panics, and never
    /// exposes a row from a batch that failed validation.
    pub fn parse(buf: Bytes) -> Result<WireBatch, WireError> {
        let b = buf.as_slice();
        need(b, 0, BATCH_HEADER_LEN, "batch header")?;
        if b[0..4] != BATCH_MAGIC {
            return Err(WireError::BadMagic {
                context: "batch",
                found: [b[0], b[1], b[2], b[3]],
            });
        }
        if b[4] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                context: "batch",
                found: b[4],
            });
        }
        if b[5] != 0 {
            return Err(WireError::UnknownFlags {
                context: "batch",
                flags: b[5],
            });
        }
        if rd_u16(b, 6) != 0 {
            return Err(WireError::ReservedNonZero {
                context: "batch header",
            });
        }
        let frame_count = rd_u32(b, 8);
        let total_len = rd_u32(b, 12) as usize;
        if total_len < BATCH_HEADER_LEN {
            return Err(WireError::LengthMismatch {
                declared: total_len as u64,
                actual: b.len() as u64,
            });
        }
        if b.len() < total_len {
            return Err(WireError::Truncated {
                context: "batch body",
                needed: total_len,
                available: b.len(),
            });
        }
        if b.len() > total_len {
            return Err(WireError::TrailingBytes {
                extra: b.len() - total_len,
            });
        }

        // Capacity is clamped so a corrupt frame_count cannot drive a
        // huge allocation before the bytes run out.
        let mut frames = Vec::with_capacity((frame_count as usize).min(1024));
        let mut off = BATCH_HEADER_LEN;
        for _ in 0..frame_count {
            let frame_start = off;
            need(b, off, FRAME_HEADER_LEN, "frame header")?;
            if b[off..off + 4] != FRAME_MAGIC {
                return Err(WireError::BadMagic {
                    context: "frame",
                    found: [b[off], b[off + 1], b[off + 2], b[off + 3]],
                });
            }
            if b[off + 4] != WIRE_VERSION {
                return Err(WireError::UnsupportedVersion {
                    context: "frame",
                    found: b[off + 4],
                });
            }
            let flags = b[off + 5];
            if flags & !FRAME_FLAG_CRC != 0 {
                return Err(WireError::UnknownFlags {
                    context: "frame",
                    flags,
                });
            }
            if rd_u16(b, off + 6) != 0 || rd_u32(b, off + 20) != 0 {
                return Err(WireError::ReservedNonZero {
                    context: "frame header",
                });
            }
            let tenant = rd_u32(b, off + 8);
            let rows = rd_u32(b, off + 12);
            let paths = rd_u32(b, off + 16);
            let base_seq = rd_u64(b, off + 24);
            if rows == 0 || paths == 0 {
                return Err(WireError::EmptyFrame);
            }
            if rows > MAX_ROWS_PER_FRAME || paths > MAX_PATHS_PER_ROW {
                return Err(WireError::Oversized { rows, paths });
            }
            // rows, paths ≤ 2^20 so the product ×8 fits comfortably
            // in u64; compare in u64 before narrowing.
            let payload_len = u64::from(rows) * u64::from(paths) * 8;
            let payload_start = off + FRAME_HEADER_LEN;
            let available = (b.len() - payload_start) as u64;
            if available < payload_len {
                return Err(WireError::Truncated {
                    context: "frame payload",
                    needed: payload_len as usize,
                    available: available as usize,
                });
            }
            off = payload_start + payload_len as usize;
            if flags & FRAME_FLAG_CRC != 0 {
                need(b, off, CRC_TRAILER_LEN, "crc trailer")?;
                let stored = rd_u32(b, off);
                if rd_u32(b, off + 4) != 0 {
                    return Err(WireError::ReservedNonZero {
                        context: "crc trailer",
                    });
                }
                let computed = crc32(&b[frame_start..off]);
                if stored != computed {
                    return Err(WireError::CrcMismatch { stored, computed });
                }
                off += CRC_TRAILER_LEN;
            }
            frames.push(FrameMeta {
                tenant,
                base_seq,
                rows,
                paths,
                payload_start,
            });
        }
        if off != b.len() {
            return Err(WireError::TrailingBytes {
                extra: b.len() - off,
            });
        }
        Ok(WireBatch { buf, frames })
    }

    /// Number of frames in the batch.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total snapshot rows across all frames.
    pub fn total_rows(&self) -> usize {
        self.frames.iter().map(|f| f.rows as usize).sum()
    }

    /// View of frame `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ frame_count()` (index, not wire, error).
    pub fn frame(&self, i: usize) -> FrameView<'_> {
        FrameView {
            buf: &self.buf,
            meta: &self.frames[i],
        }
    }

    /// Iterates over all frames.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = FrameView<'_>> {
        self.frames.iter().map(|meta| FrameView {
            buf: &self.buf,
            meta,
        })
    }

    /// The underlying buffer (e.g. for size accounting).
    pub fn buffer(&self) -> &Bytes {
        &self.buf
    }
}

/// Borrowed view of one validated frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    buf: &'a Bytes,
    meta: &'a FrameMeta,
}

impl<'a> FrameView<'a> {
    /// Wire tenant id (the fleet's dense tenant index).
    pub fn tenant(&self) -> u32 {
        self.meta.tenant
    }

    /// Sequence number of row 0; row `r` carries `base_seq + r`.
    pub fn base_seq(&self) -> u64 {
        self.meta.base_seq
    }

    /// Sequence number of row `r`.
    pub fn seq(&self, r: usize) -> u64 {
        self.meta.base_seq.wrapping_add(r as u64)
    }

    /// Number of snapshot rows.
    pub fn row_count(&self) -> usize {
        self.meta.rows as usize
    }

    /// Log-rates per row.
    pub fn path_count(&self) -> usize {
        self.meta.paths as usize
    }

    fn payload_len(&self) -> usize {
        self.row_count() * self.path_count() * 8
    }

    /// The raw payload bytes (all rows, contiguous).
    pub fn payload(&self) -> &'a [u8] {
        let start = self.meta.payload_start;
        &self.buf.as_slice()[start..start + self.payload_len()]
    }

    /// The whole payload as `&[f64]` when the buffer allocation landed
    /// 8-aligned (the common case); `None` forces the copying
    /// fallback.
    pub fn aligned(&self) -> Option<&'a [f64]> {
        cast_bytes_to_f64(self.payload())
    }

    /// Zero-copy view of row `r`.
    ///
    /// # Panics
    /// Panics when `r ≥ row_count()`.
    pub fn row(&self, r: usize) -> SnapshotView<'a> {
        assert!(r < self.row_count(), "row index out of range");
        let paths = self.path_count();
        let repr = match self.aligned() {
            Some(all) => RowRepr::Aligned(&all[r * paths..(r + 1) * paths]),
            None => {
                let bytes = self.payload();
                RowRepr::Raw(&bytes[r * paths * 8..(r + 1) * paths * 8])
            }
        };
        SnapshotView { repr }
    }

    /// Iterates over all rows as zero-copy views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = SnapshotView<'a>> {
        let view = *self;
        (0..self.row_count()).map(move |r| view.row(r))
    }

    /// Row `r` as an O(1) reference-counted window of the batch
    /// buffer — the handle that crosses a tenant queue without copying
    /// the payload.
    ///
    /// # Panics
    /// Panics when `r ≥ row_count()`.
    pub fn row_bytes(&self, r: usize) -> Bytes {
        assert!(r < self.row_count(), "row index out of range");
        let row_len = self.path_count() * 8;
        let start = self.meta.payload_start + r * row_len;
        self.buf.slice(start..start + row_len)
    }
}

#[derive(Debug, Clone, Copy)]
enum RowRepr<'a> {
    /// Direct `f64` alias of the input buffer.
    Aligned(&'a [f64]),
    /// Little-endian bytes (misaligned allocation or big-endian host).
    Raw(&'a [u8]),
}

/// Borrowed view of one snapshot row (the log-rate vector of one
/// snapshot). On the fast path this aliases the batch buffer as
/// `&[f64]`; the raw-bytes representation decodes lazily.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    repr: RowRepr<'a>,
}

impl<'a> SnapshotView<'a> {
    /// Number of log-rates in the row.
    pub fn path_count(&self) -> usize {
        match self.repr {
            RowRepr::Aligned(s) => s.len(),
            RowRepr::Raw(b) => b.len() / 8,
        }
    }

    /// Log-rate `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ path_count()`.
    pub fn get(&self, i: usize) -> f64 {
        match self.repr {
            RowRepr::Aligned(s) => s[i],
            RowRepr::Raw(b) => {
                f64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().expect("bounds checked"))
            }
        }
    }

    /// Clears `out` and fills it with the row's values — the copying
    /// fallback path, reusing the caller's scratch allocation.
    pub fn copy_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self.repr {
            RowRepr::Aligned(s) => out.extend_from_slice(s),
            RowRepr::Raw(b) => out.extend(
                b.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))),
            ),
        }
    }

    /// The row as a fresh vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_into(&mut out);
        out
    }

    /// Index of the first non-finite value, if any — the decode-time
    /// finiteness validation run before a row is enqueued.
    pub fn first_non_finite(&self) -> Option<usize> {
        match self.repr {
            RowRepr::Aligned(s) => s.iter().position(|v| !v.is_finite()),
            RowRepr::Raw(b) => b.chunks_exact(8).position(|c| {
                !f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")).is_finite()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{BatchEncoder, WireEncodeOptions};

    fn sample_rows(rows: usize, paths: usize) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                (0..paths)
                    .map(|p| -((r * paths + p) as f64 + 0.5).ln())
                    .collect()
            })
            .collect()
    }

    fn encode(opts: WireEncodeOptions, frames: &[(u32, u64, Vec<Vec<f64>>)]) -> Bytes {
        let mut enc = BatchEncoder::new(opts);
        for (tenant, seq, rows) in frames {
            enc.push_frame(*tenant, *seq, rows);
        }
        enc.finish()
    }

    #[test]
    fn roundtrip_two_frames_bit_identical() {
        for crc in [false, true] {
            let a = sample_rows(3, 5);
            let b = sample_rows(2, 7);
            let buf = encode(
                WireEncodeOptions { crc },
                &[(0, 100, a.clone()), (9, 7, b.clone())],
            );
            let batch = WireBatch::parse(buf).expect("valid batch");
            assert_eq!(batch.frame_count(), 2);
            assert_eq!(batch.total_rows(), 5);
            let fa = batch.frame(0);
            assert_eq!((fa.tenant(), fa.base_seq()), (0, 100));
            assert_eq!((fa.row_count(), fa.path_count()), (3, 5));
            for (r, row) in fa.rows().enumerate() {
                assert_eq!(fa.seq(r), 100 + r as u64);
                for (p, want) in a[r].iter().enumerate() {
                    assert_eq!(row.get(p).to_bits(), want.to_bits());
                }
                assert_eq!(row.first_non_finite(), None);
            }
            let fb = batch.frame(1);
            assert_eq!((fb.tenant(), fb.base_seq()), (9, 7));
            let got = fb.row(1).to_vec();
            let want_bits: Vec<u64> = b[1].iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits);
        }
    }

    #[test]
    fn row_bytes_is_refcounted_window() {
        let rows = sample_rows(4, 3);
        let buf = encode(WireEncodeOptions::default(), &[(1, 0, rows.clone())]);
        let batch = WireBatch::parse(buf).expect("valid batch");
        let frame = batch.frame(0);
        let handle = frame.row_bytes(2);
        assert_eq!(handle.len(), 3 * 8);
        // The handle decodes to the same bits after the batch view is
        // gone — it owns a reference to the shared allocation.
        let decoded: Vec<u64> = handle
            .as_slice()
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let want: Vec<u64> = rows[2].iter().map(|v| v.to_bits()).collect();
        assert_eq!(decoded, want);
    }

    #[test]
    fn non_finite_rows_are_flagged_with_index() {
        let mut rows = sample_rows(2, 4);
        rows[1][2] = f64::NAN;
        let buf = encode(WireEncodeOptions::default(), &[(0, 0, rows)]);
        let batch = WireBatch::parse(buf).expect("NaN is valid on the wire");
        assert_eq!(batch.frame(0).row(0).first_non_finite(), None);
        assert_eq!(batch.frame(0).row(1).first_non_finite(), Some(2));
    }

    #[test]
    fn typed_errors_for_malformed_inputs() {
        let good = encode(
            WireEncodeOptions { crc: true },
            &[(0, 0, sample_rows(2, 3))],
        )
        .to_vec();

        // Truncations at every prefix length are typed, never panics.
        for cut in 0..good.len() {
            let err = WireBatch::parse(Bytes::from(good[..cut].to_vec()))
                .expect_err("truncated batch must fail");
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::LengthMismatch { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }

        // Wrong batch magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::BadMagic {
                context: "batch",
                ..
            })
        ));

        // Wrong frame magic.
        let mut bad = good.clone();
        bad[BATCH_HEADER_LEN] = b'X';
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::BadMagic {
                context: "frame",
                ..
            })
        ));

        // Future version.
        let mut bad = good.clone();
        bad[4] = WIRE_VERSION + 1;
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::UnsupportedVersion { .. })
        ));

        // Unknown frame flag.
        let mut bad = good.clone();
        bad[BATCH_HEADER_LEN + 5] |= 0x80;
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::UnknownFlags { .. })
        ));

        // Oversized declared rows.
        let mut bad = good.clone();
        let rows_at = BATCH_HEADER_LEN + 12;
        bad[rows_at..rows_at + 4].copy_from_slice(&(MAX_ROWS_PER_FRAME + 1).to_le_bytes());
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::Oversized { .. })
        ));

        // Corrupted payload byte fails the CRC.
        let mut bad = good.clone();
        let payload_at = BATCH_HEADER_LEN + FRAME_HEADER_LEN;
        bad[payload_at] ^= 0x40;
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::CrcMismatch { .. })
        ));

        // Trailing garbage after the declared batch.
        let mut bad = good.clone();
        bad.push(0xAA);
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::TrailingBytes { extra: 1 })
        ));

        // Zero-row frame.
        let mut bad = good;
        bad[rows_at..rows_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            WireBatch::parse(Bytes::from(bad)),
            Err(WireError::EmptyFrame)
        ));
    }
}
