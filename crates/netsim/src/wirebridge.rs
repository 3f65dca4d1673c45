//! Bridge from the simulator's snapshot streams to the service-edge
//! wire format (`losstomo-wire`).
//!
//! The simulator produces owned
//! [`Snapshot`](crate::snapshot::Snapshot)s; the service edge speaks
//! framed batches of raw log-rate rows. This module is the glue for
//! loadgen and tests: it pulls rounds from a [`SnapshotFanIn`], tracks
//! the per-tenant sequence numbers the fleet will assign on ingest,
//! holds each tenant's rows as a [`CollectedFrame`], and encodes the
//! frames as one binary wire batch.

use crate::fanin::SnapshotFanIn;
use bytes::Bytes;
use losstomo_wire::{BatchEncoder, WireEncodeOptions};
use rand::Rng;

/// One tenant's collected rows: the content of one wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedFrame {
    /// Wire tenant id (the fleet's dense tenant index).
    pub tenant: u32,
    /// Sequence number of `rows[0]`; row `r` carries `base_seq + r`.
    pub base_seq: u64,
    /// Log-rate rows, one per snapshot.
    pub rows: Vec<Vec<f64>>,
}

/// Collects fan-in rounds into frames and tracks the monotone
/// per-tenant sequence numbers across batches.
#[derive(Debug)]
pub struct SnapshotBridge {
    next_seq: Vec<u64>,
    scratch: Vec<f64>,
}

impl SnapshotBridge {
    /// A bridge for `tenants` streams, all starting at sequence 0.
    pub fn new(tenants: usize) -> SnapshotBridge {
        SnapshotBridge {
            next_seq: vec![0; tenants],
            scratch: Vec::new(),
        }
    }

    /// Sequence number the next collected snapshot of `tenant` will
    /// carry.
    pub fn next_seq(&self, tenant: usize) -> u64 {
        self.next_seq[tenant]
    }

    /// Pulls `rounds` snapshots per tenant from the fan-in and groups
    /// them into one frame per tenant (in tenant order), advancing the
    /// per-tenant sequence counters. Feed the frames to
    /// [`batch_to_wire`] to encode them.
    pub fn collect_rounds<R: Rng>(
        &mut self,
        mux: &mut SnapshotFanIn<'_, R>,
        rounds: usize,
    ) -> Vec<CollectedFrame> {
        let tenants = self.next_seq.len();
        assert_eq!(mux.tenants(), tenants, "bridge/fan-in tenant mismatch");
        let mut frames: Vec<CollectedFrame> = (0..tenants)
            .map(|t| CollectedFrame {
                tenant: u32::try_from(t).expect("tenant fits u32"),
                base_seq: self.next_seq[t],
                rows: Vec::with_capacity(rounds),
            })
            .collect();
        for _ in 0..rounds {
            for _ in 0..tenants {
                let (t, snap) = mux.next().expect("snapshot streams are unbounded");
                snap.log_rates_into(&mut self.scratch);
                frames[t].rows.push(self.scratch.clone());
            }
        }
        for (t, seq) in self.next_seq.iter_mut().enumerate() {
            *seq += frames[t].rows.len() as u64;
        }
        frames
    }
}

/// Encodes collected frames as one binary wire batch. Row `f64` bit
/// patterns pass through unchanged, which is what keeps wire ingest
/// bit-identical to direct enqueue of the same snapshots.
pub fn batch_to_wire(frames: &[CollectedFrame], opts: WireEncodeOptions) -> Bytes {
    let payload: usize = frames
        .iter()
        .map(|f| {
            BatchEncoder::frame_wire_size(opts, f.rows.len(), f.rows.first().map_or(0, Vec::len))
        })
        .sum();
    let mut enc = BatchEncoder::with_capacity(opts, 16 + payload);
    for frame in frames {
        enc.push_frame(frame.tenant, frame.base_seq, &frame.rows);
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_stream, ProbeConfig};
    use crate::fanin::fan_in;
    use crate::scenario::{CongestionDynamics, CongestionScenario};
    use losstomo_topology::fixtures;
    use losstomo_wire::WireBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mux(n_tenants: usize) -> SnapshotFanIn<'static, StdRng> {
        let red = Box::leak(Box::new(fixtures::reduced(&fixtures::figure1())));
        let cfg = ProbeConfig {
            probes_per_snapshot: 50,
            ..ProbeConfig::default()
        };
        let streams: Vec<_> = (0..n_tenants)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(7 + t as u64);
                let sc = CongestionScenario::draw(
                    red.num_links(),
                    0.3,
                    CongestionDynamics::Redraw,
                    &mut rng,
                );
                simulate_stream(red, sc, &cfg, rng)
            })
            .collect();
        fan_in(streams)
    }

    #[test]
    fn collected_rows_roundtrip_bit_identical_through_wire() {
        let mut m = mux(3);
        let mut bridge = SnapshotBridge::new(3);
        let collected = bridge.collect_rounds(&mut m, 4);
        assert_eq!(collected.len(), 3);
        assert_eq!(bridge.next_seq(0), 4);

        let wire = batch_to_wire(&collected, WireEncodeOptions { crc: true });
        let parsed = WireBatch::parse(wire).expect("bridge output is valid");
        assert_eq!(parsed.frame_count(), 3);
        for (frame, want) in parsed.frames().zip(&collected) {
            assert_eq!(frame.tenant(), want.tenant);
            assert_eq!(frame.base_seq(), want.base_seq);
            assert_eq!(frame.row_count(), want.rows.len());
            for (row, want_row) in frame.rows().zip(&want.rows) {
                for (p, w) in want_row.iter().enumerate() {
                    assert_eq!(row.get(p).to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn sequences_continue_across_batches() {
        let mut m = mux(2);
        let mut bridge = SnapshotBridge::new(2);
        let first = bridge.collect_rounds(&mut m, 3);
        let second = bridge.collect_rounds(&mut m, 2);
        assert_eq!(first[1].base_seq, 0);
        assert_eq!(second[1].base_seq, 3);
        assert_eq!(bridge.next_seq(1), 5);
    }
}
