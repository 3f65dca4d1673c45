//! Property-based contracts of the binary snapshot wire format.
//!
//! Three families:
//!
//! * **Roundtrip** — encode → parse hands back every frame header
//!   field and every row payload **bit-identical**, CRC on or off
//!   (this is the wire half of the fleet's "wire ingest ≡ direct
//!   enqueue" guarantee).
//! * **Malformed input** — truncations, single-byte corruptions of a
//!   CRC-protected batch, wrong magic, and oversized declared
//!   dimensions all map to a typed [`WireError`]; the parser never
//!   panics and never yields partial rows.
//! * **Fuzz** — arbitrary byte soup parses to `Ok` or a typed error,
//!   and every accessor of whatever parses stays in bounds.

use losstomo_wire::{
    BatchEncoder, WireBatch, WireEncodeOptions, WireError, BATCH_HEADER_LEN, FRAME_HEADER_LEN,
    MAX_PATHS_PER_ROW, MAX_ROWS_PER_FRAME, WIRE_VERSION,
};
use proptest::prelude::*;

/// One logical frame: tenant, base sequence, and rows of arbitrary
/// `f64` **bit patterns** (NaNs and infinities included — the wire
/// format is bit-transparent; finiteness policy belongs to ingest).
type Frame = (u32, u64, Vec<Vec<u64>>);

fn frames_strategy() -> impl Strategy<Value = Vec<Frame>> {
    proptest::collection::vec(
        (any::<u32>(), any::<u64>(), 1usize..5, 1usize..7).prop_flat_map(
            |(tenant, base_seq, rows, paths)| {
                proptest::collection::vec(
                    proptest::collection::vec(any::<u64>(), paths..=paths),
                    rows..=rows,
                )
                .prop_map(move |rows| (tenant, base_seq, rows))
            },
        ),
        1..4,
    )
}

/// Encodes `frames` with the real encoder.
fn encode(frames: &[Frame], crc: bool) -> bytes::Bytes {
    let mut enc = BatchEncoder::new(WireEncodeOptions { crc });
    for (tenant, base_seq, rows) in frames {
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&b| f64::from_bits(b)).collect())
            .collect();
        enc.push_frame(*tenant, *base_seq, &rows);
    }
    enc.finish()
}

proptest! {
    /// Encode → parse is bit-identical: headers, sequence numbers, and
    /// raw row bytes all survive, with and without CRC trailers.
    #[test]
    fn roundtrip_is_bit_identical(frames in frames_strategy(), crc in any::<bool>()) {
        let buf = encode(&frames, crc);
        let batch = WireBatch::parse(buf).expect("encoder output parses");
        prop_assert_eq!(batch.frame_count(), frames.len());
        for (fi, (tenant, base_seq, rows)) in frames.iter().enumerate() {
            let frame = batch.frame(fi);
            prop_assert_eq!(frame.tenant(), *tenant);
            prop_assert_eq!(frame.base_seq(), *base_seq);
            prop_assert_eq!(frame.row_count(), rows.len());
            prop_assert_eq!(frame.path_count(), rows[0].len());
            for (r, row) in rows.iter().enumerate() {
                prop_assert_eq!(frame.seq(r), base_seq.wrapping_add(r as u64));
                // Byte-level identity of the zero-copy row window.
                let expect: Vec<u8> =
                    row.iter().flat_map(|&b| b.to_le_bytes()).collect();
                let window = frame.row_bytes(r);
                prop_assert_eq!(window.as_slice(), &expect[..]);
                // Value-level identity of the decoded view.
                let view = frame.row(r);
                for (i, &bits) in row.iter().enumerate() {
                    prop_assert_eq!(view.get(i).to_bits(), bits);
                }
            }
        }
    }

    /// Every strict prefix of a valid batch is rejected with a typed
    /// error — the declared lengths make truncation unambiguous.
    #[test]
    fn truncation_always_detected(frames in frames_strategy(), crc in any::<bool>(),
                                  cut in 0.0f64..1.0) {
        let buf = encode(&frames, crc);
        let keep = ((buf.len() as f64 * cut) as usize).min(buf.len() - 1);
        prop_assert!(WireBatch::parse(buf.slice(0..keep)).is_err());
    }

    /// With CRC trailers on, **any** single corrupted byte is caught:
    /// header fields are validated, payload and trailer bytes are
    /// checksummed. (CRC-32 detects all single-byte errors.)
    #[test]
    fn crc_catches_every_single_byte_corruption(
        frames in frames_strategy(),
        pos in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let buf = encode(&frames, true);
        let mut bytes = buf.to_vec();
        let i = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        bytes[i] ^= xor;
        prop_assert!(WireBatch::parse(bytes::Bytes::from(bytes)).is_err());
    }

    /// Without CRC the parser still never panics on payload
    /// corruption — flipped header bytes yield typed errors, flipped
    /// payload bytes decode to (different) rows.
    #[test]
    fn corruption_without_crc_never_panics(
        frames in frames_strategy(),
        pos in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let buf = encode(&frames, false);
        let mut bytes = buf.to_vec();
        let i = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        bytes[i] ^= xor;
        if let Ok(batch) = WireBatch::parse(bytes::Bytes::from(bytes)) {
            for frame in batch.frames() {
                for row in frame.rows() {
                    let _ = row.first_non_finite();
                }
            }
        }
    }

    /// Arbitrary byte soup: `parse` returns `Ok` or a typed error,
    /// never panics, and anything that parses is fully walkable.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(batch) = WireBatch::parse(bytes::Bytes::from(bytes)) {
            let mut rows = 0usize;
            for frame in batch.frames() {
                for r in 0..frame.row_count() {
                    let _ = frame.row_bytes(r);
                    let _ = frame.row(r).to_vec();
                    rows += 1;
                }
            }
            prop_assert_eq!(rows, batch.total_rows());
        }
    }
}

/// Hand-built header declaring `2^20 + 1` rows: rejected as
/// [`WireError::Oversized`] before any allocation happens.
#[test]
fn oversized_declared_dimensions_rejected() {
    for (rows, paths) in [
        (MAX_ROWS_PER_FRAME + 1, 1u32),
        (1, MAX_PATHS_PER_ROW + 1),
        (u32::MAX, u32::MAX),
    ] {
        let mut b = Vec::new();
        b.extend_from_slice(b"LTSB");
        b.push(WIRE_VERSION);
        b.extend_from_slice(&[0, 0, 0]); // flags + reserved
        b.extend_from_slice(&1u32.to_le_bytes()); // frame_count
        let total = (BATCH_HEADER_LEN + FRAME_HEADER_LEN) as u32;
        b.extend_from_slice(&total.to_le_bytes());
        b.extend_from_slice(b"LTSF");
        b.push(WIRE_VERSION);
        b.extend_from_slice(&[0, 0, 0]); // flags + reserved
        b.extend_from_slice(&7u32.to_le_bytes()); // tenant
        b.extend_from_slice(&rows.to_le_bytes());
        b.extend_from_slice(&paths.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes()); // reserved
        b.extend_from_slice(&9u64.to_le_bytes()); // base_seq
        assert!(matches!(
            WireBatch::parse(bytes::Bytes::from(b)),
            Err(WireError::Oversized { .. })
        ));
    }
}

/// Wrong magic in either header maps to [`WireError::BadMagic`] with
/// the offending bytes echoed back.
#[test]
fn wrong_magic_rejected() {
    let buf = encode(&[(0, 0, vec![vec![0u64; 2]])], false);
    let mut batch = buf.to_vec();
    batch[0] = b'X';
    assert!(matches!(
        WireBatch::parse(bytes::Bytes::from(batch)),
        Err(WireError::BadMagic {
            context: "batch",
            ..
        })
    ));
    let mut frame = buf.to_vec();
    frame[BATCH_HEADER_LEN] = b'X';
    assert!(matches!(
        WireBatch::parse(bytes::Bytes::from(frame)),
        Err(WireError::BadMagic {
            context: "frame",
            ..
        })
    ));
}
