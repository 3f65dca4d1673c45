//! # Service edge — wire ingest, demux, and fleet query
//!
//! The boundary where framed byte batches (`losstomo-wire`) become
//! tenant queue items. Every wire row is **zero-copy**: it is enqueued
//! as a reference-counted window of the receive buffer, and the
//! ingesting worker reads it in place as `&[f64]`.
//!
//! * [`Fleet::ingest_wire_batch`] — route a parsed [`WireBatch`] on
//!   the caller's thread, draining the fleet when a queue fills.
//! * [`Fleet::spawn_demux`] — a connection thread that parses batches
//!   off a byte source, routes frames to the tenant queues, and
//!   surfaces per-frame acknowledgements (accepted counts, typed
//!   row rejections, backpressure) to the caller.
//! * [`Fleet::query`] — the observability surface: per-tenant
//!   congested sets, ingest/error counters, queue depths, last wire
//!   sequence, and churn staleness, as one serializable report.
//!
//! ## Validation happens at the edge
//!
//! Frame- and row-level problems are rejected **before** anything
//! enters a tenant queue: unknown tenant ids, quarantined tenants,
//! path-count mismatches (frame-level — [`RowRejection::row`] is
//! `None`), and non-finite row values (row-level — `Some(row)`). Both
//! callers run one frame router behind the fleet's one admission gate,
//! the one [`Fleet::enqueue`] and [`Fleet::ingest_batch`] run too, and
//! the gate is read live: quarantine, revival and topology churn take
//! effect on the demux thread as soon as the fleet makes them. A
//! malformed batch never panics: [`WireBatch::parse`] returns typed
//! [`WireError`](losstomo_wire::WireError)s, and everything that
//! parses but cannot be routed comes back in the report/ack with its
//! frame and row index. A row admitted before a topology update that
//! is still queued when it lands is refused by the drain as a
//! [`FleetEventKind::EstimatorError`](crate::FleetEventKind) event,
//! exactly like the owned-snapshot path.

use crate::{admit, Fleet, FleetError, FleetEvent, Inlet, Payload, QueueItem, TenantId};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use losstomo_wire::{FrameView, WireBatch};
use serde::Serialize;
use std::thread;
use std::time::Duration;

/// How [`Fleet::ingest_wire_batch`] materializes rows into the tenant
/// queues. Zero-copy is the only wire row; the type and the parameter
/// that takes it remain only because the repository benchmark
/// (`perfbench`) passes [`WireIngestMode::ZeroCopy`], and go with the
/// next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireIngestMode {
    /// Enqueue each row as a reference-counted window of the batch
    /// buffer ([`bytes::Bytes`]); the ingesting worker reads it in
    /// place as `&[f64]`. No per-row allocation or copy at the edge.
    ZeroCopy,
}

/// One rejected wire row (or frame), with enough position to point
/// back into the batch that carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRejection {
    /// Index of the frame within the batch.
    pub frame: usize,
    /// Index of the row within the frame; `None` for frame-level
    /// rejections (unknown/quarantined tenant, path-count mismatch),
    /// where every row of the frame was refused at once.
    pub row: Option<usize>,
    /// The tenant id the frame was addressed to (as carried on the
    /// wire — it may not correspond to a registered tenant).
    pub tenant: u32,
    /// Why it was rejected.
    pub error: FleetError,
}

/// Accounting of one wire batch ingest. Every row of the batch is
/// either counted in `accepted` or covered by `rejections` (a
/// frame-level rejection covers all rows of its frame) — nothing is
/// silently dropped.
#[derive(Debug, Default)]
pub struct WireIngestReport {
    /// Rows that entered a tenant queue (and were drained).
    pub accepted: usize,
    /// Frame- and row-level rejections, in batch order.
    pub rejections: Vec<RowRejection>,
    /// Events produced by the intermediate and final drains.
    pub events: Vec<FleetEvent>,
    /// How many intermediate drains backpressure forced.
    pub backpressure_drains: usize,
}

/// Per-tenant slice of a [`FleetQueryReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TenantQuery {
    /// Dense tenant index (== [`TenantId::index`]).
    pub tenant: usize,
    /// Registration name.
    pub name: String,
    /// Current congested-link set (ascending link ids).
    pub congested: Vec<usize>,
    /// Snapshots ingested so far.
    pub ingested: u64,
    /// Successful estimator refreshes so far.
    pub refreshes: u64,
    /// Ingests that failed with an estimator error.
    pub errors: u64,
    /// Snapshots waiting in the queue right now.
    pub queued: usize,
    /// Whether the tenant is quarantined.
    pub quarantined: bool,
    /// Highest wire sequence number ingested (`None` until the first
    /// wire row) — compare against the feed's send counter for
    /// end-to-end lag.
    pub last_wire_seq: Option<u64>,
    /// Snapshots until the covariance window flushes pre-churn history
    /// (`Some(0)` = churn-free; `None` = never).
    pub snapshots_until_flush: Option<u64>,
}

/// Snapshot of the whole fleet's state, from [`Fleet::query`].
/// Serializable (the vendored `serde_json` renders it) so it can be
/// shipped to an operator endpoint as-is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetQueryReport {
    /// Per-tenant state, in tenant-id order.
    pub tenants: Vec<TenantQuery>,
    /// Worker threads the next drain will use.
    pub workers: usize,
    /// Active SIMD engine name.
    pub simd_engine: String,
    /// Sum of `ingested` across tenants.
    pub total_ingested: u64,
    /// Sum of `queued` across tenants.
    pub total_queued: usize,
    /// Number of quarantined tenants.
    pub quarantined_tenants: usize,
}

/// Configuration of a demux thread ([`Fleet::spawn_demux`]).
#[derive(Debug, Clone, Copy)]
pub struct DemuxConfig {
    /// How many times to retry a full tenant queue before rejecting
    /// the row with [`FleetError::QueueFull`]. The demux thread cannot
    /// drain the fleet itself (that needs `&mut Fleet`), so retries
    /// plus the consumer's polling loop are its only flow control.
    pub retry_attempts: usize,
    /// Sleep between retries.
    pub retry_backoff: Duration,
}

impl Default for DemuxConfig {
    fn default() -> Self {
        DemuxConfig {
            retry_attempts: 100,
            retry_backoff: Duration::from_micros(200),
        }
    }
}

/// One acknowledgement from the demux thread, in input order.
#[derive(Debug)]
pub enum DemuxAck {
    /// A batch failed to parse; nothing from it was enqueued.
    MalformedBatch {
        /// Zero-based index of the batch in the input stream.
        batch: u64,
        /// The typed parse error, stringified.
        error: String,
    },
    /// One frame was routed (fully, partially, or not at all — see the
    /// counts).
    Frame {
        /// Zero-based index of the batch in the input stream.
        batch: u64,
        /// Index of the frame within its batch.
        frame: usize,
        /// Tenant id carried on the wire.
        tenant: u32,
        /// Rows that entered the tenant queue.
        accepted: usize,
        /// Typed rejections (frame-level `row: None`, or per row).
        rejections: Vec<RowRejection>,
    },
}

/// Lifetime totals of a demux thread, returned by
/// [`DemuxHandle::finish`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DemuxStats {
    /// Batches received from the input channel.
    pub batches: u64,
    /// Batches that failed to parse.
    pub malformed_batches: u64,
    /// Frames routed (from well-formed batches).
    pub frames: u64,
    /// Rows that entered a tenant queue.
    pub rows_accepted: u64,
    /// Rows refused (frame-level rejections count every covered row).
    pub rows_rejected: u64,
}

/// Handle on a running demux thread.
///
/// Producers push raw batch buffers with [`DemuxHandle::send`] (the
/// sender is cloneable via [`DemuxHandle::sender`] for multiple
/// connections); the consumer polls [`DemuxHandle::try_ack`] for
/// per-frame outcomes while draining the fleet, and
/// [`DemuxHandle::finish`] shuts down (all senders dropped → the
/// thread exits after the queue empties).
#[derive(Debug)]
pub struct DemuxHandle {
    input: Sender<Bytes>,
    acks: Receiver<DemuxAck>,
    thread: thread::JoinHandle<DemuxStats>,
}

impl DemuxHandle {
    /// A cloneable sender for pushing batch buffers from another
    /// thread/connection.
    pub fn sender(&self) -> Sender<Bytes> {
        self.input.clone()
    }

    /// Pushes one batch buffer. Returns `false` if the demux thread
    /// already exited.
    pub fn send(&self, batch: Bytes) -> bool {
        self.input.send(batch).is_ok()
    }

    /// Non-blocking poll of the acknowledgement stream.
    pub fn try_ack(&self) -> Option<DemuxAck> {
        self.acks.try_recv().ok()
    }

    /// Drops the handle's sender, waits for the thread to drain its
    /// queue and exit, and returns its lifetime stats plus every
    /// not-yet-consumed acknowledgement. Clones obtained from
    /// [`DemuxHandle::sender`] must be dropped by their owners first
    /// or this blocks until they are.
    pub fn finish(self) -> (DemuxStats, Vec<DemuxAck>) {
        drop(self.input);
        let stats = self.thread.join().expect("demux thread panicked");
        let mut acks = Vec::new();
        while let Ok(ack) = self.acks.try_recv() {
            acks.push(ack);
        }
        (stats, acks)
    }
}

impl Fleet {
    /// Ingests one parsed wire batch: admits each frame and checks each
    /// row at the edge, enqueues the rows zero-copy, drains on
    /// backpressure, and drains once at the end. See the
    /// [module docs](self) for the validation contract. Rows reach the
    /// estimator bit-identical to [`Fleet::enqueue`] of the snapshots
    /// they were encoded from. `_mode` has one value (see
    /// [`WireIngestMode`]).
    pub fn ingest_wire_batch(
        &mut self,
        batch: &WireBatch,
        _mode: WireIngestMode,
    ) -> WireIngestReport {
        let mut report = WireIngestReport::default();
        for fi in 0..batch.frame_count() {
            let frame = batch.frame(fi);
            let id = TenantId(frame.tenant() as usize);
            let admission = admit(&self.inlets, id, frame.path_count());
            report.accepted += route_frame(fi, &frame, admission, &mut report.rejections, |item| {
                self.enqueue_item_with_drain(
                    id,
                    item,
                    &mut report.events,
                    &mut report.backpressure_drains,
                )
            });
        }
        self.poll_events_into(&mut report.events);
        report
    }

    /// The fleet's observability snapshot: per-tenant congested sets,
    /// counters, queue depths, wire staleness, plus fleet-wide totals.
    /// Cheap (no drain, no lock beyond `&self`) and serializable.
    pub fn query(&self) -> FleetQueryReport {
        let tenants: Vec<TenantQuery> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantQuery {
                tenant: i,
                name: t.name.clone(),
                congested: t.estimator.congested_links().to_vec(),
                ingested: t.ingested,
                refreshes: t.estimator.refresh_count(),
                errors: t.errors,
                queued: t.rx.len(),
                quarantined: t.gate.quarantined(),
                last_wire_seq: t.last_wire_seq,
                snapshots_until_flush: t.estimator.staleness().snapshots_until_flush,
            })
            .collect();
        FleetQueryReport {
            workers: self.workers(),
            simd_engine: format!("{:?}", self.simd_engine()),
            total_ingested: tenants.iter().map(|t| t.ingested).sum(),
            total_queued: tenants.iter().map(|t| t.queued).sum(),
            quarantined_tenants: tenants.iter().filter(|t| t.quarantined).count(),
            tenants,
        }
    }

    /// Spawns a demux thread: it receives raw batch buffers from the
    /// returned handle's channel, parses them, and routes rows
    /// **zero-copy** to the tenant queues through the same admission
    /// gate and frame router as [`Fleet::ingest_wire_batch`],
    /// acknowledging every batch/frame on the handle's ack channel.
    ///
    /// The thread holds clones of every tenant's queue sender and
    /// admission gate, as registered *now*. The gates are read live: a
    /// quarantined tenant's frames are refused at once with
    /// [`FleetError::Quarantined`] (and accepted again after
    /// [`Fleet::revive_tenant`]), and path counts are checked against
    /// the topology as [`Fleet::update_topology`] last left it. The
    /// sender list is fixed at spawn, so register all tenants before
    /// spawning: frames for tenants added later are rejected with
    /// [`FleetError::UnknownTenant`].
    ///
    /// When a tenant queue is full the thread retries per
    /// [`DemuxConfig`]; meanwhile the consumer must keep calling
    /// [`Fleet::poll_events_into`] to make room. Rows still refused
    /// after the retries come back as [`FleetError::QueueFull`]
    /// rejections — backpressure is surfaced, never a deadlock.
    pub fn spawn_demux(&self, cfg: DemuxConfig) -> DemuxHandle {
        let inlets = self.inlets.clone();
        let (in_tx, in_rx) = unbounded::<Bytes>();
        let (ack_tx, ack_rx) = unbounded::<DemuxAck>();
        let thread = thread::Builder::new()
            .name("losstomo-demux".into())
            .spawn(move || demux_loop(&in_rx, &ack_tx, &inlets, cfg))
            .expect("spawn demux thread");
        DemuxHandle {
            input: in_tx,
            acks: ack_rx,
            thread,
        }
    }
}

/// The one frame router, shared by [`Fleet::ingest_wire_batch`] and the
/// demux thread. Given frame `fi`'s admission outcome (the routing
/// epoch to stamp its rows with), it refuses the whole frame, or checks
/// each row and hands the finite ones to `enqueue` — the caller's
/// enqueue step, which drains or sleeps when the queue is full.
/// Every refusal is recorded in `rejections`; returns how many rows
/// entered a queue.
fn route_frame(
    fi: usize,
    frame: &FrameView<'_>,
    admission: Result<u64, FleetError>,
    rejections: &mut Vec<RowRejection>,
    mut enqueue: impl FnMut(QueueItem) -> Result<(), FleetError>,
) -> usize {
    let tenant = frame.tenant();
    let epoch = match admission {
        Ok(epoch) => epoch,
        Err(error) => {
            rejections.push(RowRejection {
                frame: fi,
                row: None,
                tenant,
                error,
            });
            return 0;
        }
    };
    let mut accepted = 0;
    for r in 0..frame.row_count() {
        let outcome = match frame.row(r).first_non_finite() {
            Some(path) => Err(FleetError::MalformedSnapshot {
                tenant: TenantId(tenant as usize),
                reason: format!("non-finite log rate at path {path}"),
            }),
            None => enqueue(QueueItem {
                epoch,
                payload: Payload::Wire {
                    data: frame.row_bytes(r),
                    seq: frame.seq(r),
                },
            }),
        };
        match outcome {
            Ok(()) => accepted += 1,
            Err(error) => rejections.push(RowRejection {
                frame: fi,
                row: Some(r),
                tenant,
                error,
            }),
        }
    }
    accepted
}

/// The demux thread's enqueue step: it cannot drain the fleet (that
/// needs `&mut Fleet`), so a full queue is retried per `cfg`, sleeping
/// between attempts. A tenant quarantined meanwhile is refused at once.
fn send_with_retry(
    inlet: &Inlet,
    id: TenantId,
    mut item: QueueItem,
    cfg: DemuxConfig,
) -> Result<(), FleetError> {
    for attempt in 0..=cfg.retry_attempts {
        match inlet.try_send(id, item)? {
            None => return Ok(()),
            Some(back) => item = back,
        }
        if attempt < cfg.retry_attempts {
            thread::sleep(cfg.retry_backoff);
        }
    }
    Err(FleetError::QueueFull(id))
}

/// Body of the demux thread: parse → admit → route, one batch at a
/// time, until every input sender is dropped.
fn demux_loop(
    input: &Receiver<Bytes>,
    acks: &Sender<DemuxAck>,
    inlets: &[Inlet],
    cfg: DemuxConfig,
) -> DemuxStats {
    let mut stats = DemuxStats::default();
    while let Ok(buf) = input.recv() {
        let batch_idx = stats.batches;
        stats.batches += 1;
        let batch = match WireBatch::parse(buf) {
            Ok(batch) => batch,
            Err(e) => {
                stats.malformed_batches += 1;
                let _ = acks.send(DemuxAck::MalformedBatch {
                    batch: batch_idx,
                    error: e.to_string(),
                });
                continue;
            }
        };
        for fi in 0..batch.frame_count() {
            let frame = batch.frame(fi);
            let id = TenantId(frame.tenant() as usize);
            let mut rejections = Vec::new();
            // `route_frame` enqueues only for an admitted frame, whose
            // tenant `admit` found in `inlets`.
            let accepted = route_frame(
                fi,
                &frame,
                admit(inlets, id, frame.path_count()),
                &mut rejections,
                |item| send_with_retry(&inlets[id.0], id, item, cfg),
            );
            stats.frames += 1;
            stats.rows_accepted += accepted as u64;
            stats.rows_rejected += (frame.row_count() - accepted) as u64;
            let _ = acks.send(DemuxAck::Frame {
                batch: batch_idx,
                frame: fi,
                tenant: frame.tenant(),
                accepted,
                rejections,
            });
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetEventKind};
    use losstomo_core::streaming::{OnlineConfig, OnlineEstimator};
    use losstomo_netsim::wirebridge::{batch_to_wire, CollectedFrame, SnapshotBridge};
    use losstomo_netsim::{
        fan_in, simulate_run, simulate_stream, CongestionDynamics, CongestionScenario,
        MeasurementSet, ProbeConfig, Snapshot, SnapshotFanIn,
    };
    use losstomo_topology::{fixtures, ReducedTopology};
    use losstomo_wire::{BatchEncoder, WireEncodeOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
    }

    fn probe_cfg() -> ProbeConfig {
        ProbeConfig {
            probes_per_snapshot: 120,
            ..ProbeConfig::default()
        }
    }

    fn simulate(red: &ReducedTopology, m: usize, seed: u64) -> MeasurementSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario = CongestionScenario::draw(
            red.num_links(),
            0.3,
            CongestionDynamics::Markov {
                stay_congested: 0.8,
            },
            &mut rng,
        );
        simulate_run(red, &mut scenario, &probe_cfg(), m, &mut rng)
    }

    fn mux(red: &'static ReducedTopology, tenants: usize) -> SnapshotFanIn<'static, StdRng> {
        let streams: Vec<_> = (0..tenants)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                let sc = CongestionScenario::draw(
                    red.num_links(),
                    0.3,
                    CongestionDynamics::Redraw,
                    &mut rng,
                );
                simulate_stream(red, sc, &probe_cfg(), rng)
            })
            .collect();
        fan_in(streams)
    }

    fn fleet_of(red: &ReducedTopology, tenants: usize, capacity: usize) -> Fleet {
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: capacity,
            workers: Some(2),
        });
        for t in 0..tenants {
            fleet.add_tenant(format!("net-{t}"), red, OnlineConfig::default());
        }
        fleet
    }

    /// The equivalence gate: zero-copy wire ingest lands every tenant
    /// on the same estimator state as direct snapshot enqueue.
    #[test]
    fn wire_ingest_matches_direct_enqueue_bit_for_bit() {
        let red: &'static ReducedTopology = Box::leak(Box::new(fig1()));
        let tenants = 3;
        let rounds = 30;
        let mut m = mux(red, tenants);
        // Pull the snapshot stream once; feed identical rows to both
        // ingest paths.
        let snaps: Vec<(usize, Snapshot)> = (&mut m).take(tenants * rounds).collect();
        let mut frames: Vec<CollectedFrame> = (0..tenants)
            .map(|t| CollectedFrame {
                tenant: t as u32,
                base_seq: 0,
                rows: Vec::new(),
            })
            .collect();
        for (t, s) in &snaps {
            frames[*t].rows.push(s.log_rates());
        }
        let wire = batch_to_wire(&frames, WireEncodeOptions { crc: true });
        let batch = WireBatch::parse(wire).expect("bridge output parses");

        let mut direct = fleet_of(red, tenants, 8);
        for (t, s) in &snaps {
            let id = TenantId(*t);
            match direct.enqueue(id, s.clone()) {
                Ok(()) => {}
                Err(FleetError::QueueFull(_)) => {
                    direct.poll_events();
                    direct.enqueue(id, s.clone()).unwrap();
                }
                Err(e) => panic!("direct enqueue failed: {e}"),
            }
        }
        direct.poll_events();

        let mut fleet = fleet_of(red, tenants, 8);
        let report = fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        assert_eq!(report.accepted, tenants * rounds);
        assert!(report.rejections.is_empty());
        for t in 0..tenants {
            let id = TenantId(t);
            assert_eq!(
                fleet.estimator(id).variances().unwrap().v,
                direct.estimator(id).variances().unwrap().v,
                "wire ingest diverged from direct enqueue for tenant {t}"
            );
            assert_eq!(
                fleet.estimator(id).congested_links(),
                direct.estimator(id).congested_links()
            );
            assert_eq!(
                fleet.stats(id).ingested,
                rounds as u64,
                "wire seq bookkeeping"
            );
            assert_eq!(
                fleet.query().tenants[t].last_wire_seq,
                Some(rounds as u64 - 1)
            );
        }
    }

    #[test]
    fn wire_rows_survive_backpressure_with_tiny_queues() {
        let red: &'static ReducedTopology = Box::leak(Box::new(fig1()));
        let mut m = mux(red, 2);
        let mut bridge = SnapshotBridge::new(2);
        let collected = bridge.collect_rounds(&mut m, 20);
        let batch =
            WireBatch::parse(batch_to_wire(&collected, WireEncodeOptions::default())).unwrap();
        // Capacity 2 forces many intermediate drains.
        let mut fleet = fleet_of(red, 2, 2);
        let report = fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        assert_eq!(report.accepted, 40);
        assert!(report.rejections.is_empty());
        assert!(report.backpressure_drains > 0, "tiny queues must drain");
        assert_eq!(fleet.stats(TenantId(0)).ingested, 20);
        assert_eq!(fleet.stats(TenantId(1)).ingested, 20);
    }

    #[test]
    fn wire_frames_for_bad_tenants_and_rows_are_rejected_typed() {
        let red: &'static ReducedTopology = Box::leak(Box::new(fig1()));
        let paths = red.num_paths();
        let mut enc = BatchEncoder::new(WireEncodeOptions::default());
        // Frame 0: unknown tenant.
        enc.begin_frame(9, 0, paths as u32);
        enc.push_row(&vec![-0.1; paths]);
        enc.end_frame();
        // Frame 1: wrong path count for tenant 0.
        enc.begin_frame(0, 0, (paths + 1) as u32);
        enc.push_row(&vec![-0.1; paths + 1]);
        enc.end_frame();
        // Frame 2: good tenant, row 1 carries a NaN.
        enc.begin_frame(0, 0, paths as u32);
        enc.push_row(&vec![-0.1; paths]);
        let mut bad = vec![-0.2; paths];
        bad[2] = f64::NAN;
        enc.push_row(&bad);
        enc.push_row(&vec![-0.3; paths]);
        enc.end_frame();
        let batch = WireBatch::parse(enc.finish()).unwrap();

        let mut fleet = fleet_of(red, 1, 8);
        let report = fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        assert_eq!(report.accepted, 2, "the two finite rows of frame 2");
        assert_eq!(report.rejections.len(), 3);
        assert!(matches!(
            &report.rejections[0],
            RowRejection {
                frame: 0,
                row: None,
                tenant: 9,
                error: FleetError::UnknownTenant(_)
            }
        ));
        assert!(matches!(
            &report.rejections[1],
            RowRejection {
                frame: 1,
                row: None,
                error: FleetError::MalformedSnapshot { .. },
                ..
            }
        ));
        assert!(matches!(
            &report.rejections[2],
            RowRejection {
                frame: 2,
                row: Some(1),
                error: FleetError::MalformedSnapshot { .. },
                ..
            }
        ));
        // The NaN row never reached the estimator: two clean ingests.
        assert_eq!(fleet.stats(TenantId(0)).ingested, 2);
        assert_eq!(fleet.stats(TenantId(0)).errors, 0);
    }

    #[test]
    fn query_reports_tenant_state_and_serializes() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            workers: Some(2),
            ..FleetConfig::default()
        });
        let a = fleet.add_tenant("alpha", &red, OnlineConfig::default());
        let _b = fleet.add_tenant("beta", &red, OnlineConfig::default());
        let ms = simulate(&red, 25, 7);
        let report = fleet.ingest_batch(ms.snapshots.iter().cloned().map(|s| (a, s)));
        assert!(report.rejections.is_empty());
        let q = fleet.query();
        assert_eq!(q.tenants.len(), 2);
        assert_eq!(q.tenants[0].name, "alpha");
        assert_eq!(q.tenants[0].ingested, 25);
        assert_eq!(q.tenants[0].refreshes, fleet.estimator(a).refresh_count());
        assert_eq!(
            q.tenants[0].congested,
            fleet.estimator(a).congested_links().to_vec()
        );
        assert_eq!(q.tenants[0].snapshots_until_flush, Some(0), "no churn yet");
        assert_eq!(q.tenants[1].ingested, 0);
        assert_eq!(q.tenants[1].last_wire_seq, None);
        assert_eq!(q.total_ingested, 25);
        assert_eq!(q.quarantined_tenants, 0);
        assert_eq!(q.workers, 2);
        // The report must render through the JSON codec for operator
        // endpoints.
        let json = serde_json::to_string(&q).expect("query serializes");
        assert!(json.contains("\"alpha\""));
        assert!(json.contains("\"total_ingested\":25"));
    }

    #[test]
    fn demux_routes_batches_end_to_end() {
        let red: &'static ReducedTopology = Box::leak(Box::new(fig1()));
        let tenants = 2;
        let mut m = mux(red, tenants);
        let mut bridge = SnapshotBridge::new(tenants);
        let mut fleet = fleet_of(red, tenants, 64);
        let demux = fleet.spawn_demux(DemuxConfig::default());
        let sender = demux.sender();
        let n_batches = 4;
        let rounds = 5;
        for _ in 0..n_batches {
            let collected = bridge.collect_rounds(&mut m, rounds);
            sender
                .send(batch_to_wire(&collected, WireEncodeOptions { crc: true }))
                .unwrap();
        }
        // One malformed buffer in the stream must be acked, not panic
        // the thread.
        sender.send(Bytes::from(vec![0u8; 11])).unwrap();
        drop(sender);
        let (stats, acks) = demux.finish();
        assert_eq!(stats.batches, n_batches as u64 + 1);
        assert_eq!(stats.malformed_batches, 1);
        assert_eq!(stats.frames, (n_batches * tenants) as u64);
        assert_eq!(stats.rows_accepted, (n_batches * tenants * rounds) as u64);
        assert_eq!(stats.rows_rejected, 0);
        assert_eq!(
            acks.iter()
                .filter(|a| matches!(a, DemuxAck::MalformedBatch { .. }))
                .count(),
            1
        );
        let mut events = Vec::new();
        fleet.poll_events_into(&mut events);
        for t in 0..tenants {
            let id = TenantId(t);
            assert_eq!(fleet.stats(id).ingested, (n_batches * rounds) as u64);
            assert!(!fleet.stats(id).quarantined);
        }
        // Event stream is (tenant, seq)-ordered and carries real
        // congestion transitions.
        assert!(events
            .iter()
            .all(|e| matches!(e.kind, FleetEventKind::CongestionChanged { .. })));
    }

    #[test]
    fn demux_surfaces_queue_full_instead_of_deadlocking() {
        let red: &'static ReducedTopology = Box::leak(Box::new(fig1()));
        let mut m = mux(red, 1);
        let mut bridge = SnapshotBridge::new(1);
        // Nobody drains: capacity 2 and zero retries means rows 3+ of
        // the batch must come back as QueueFull rejections.
        let fleet = {
            let mut f = Fleet::new(FleetConfig {
                queue_capacity: 2,
                workers: Some(1),
            });
            f.add_tenant("t", red, OnlineConfig::default());
            f
        };
        let demux = fleet.spawn_demux(DemuxConfig {
            retry_attempts: 0,
            retry_backoff: Duration::from_micros(1),
        });
        let collected = bridge.collect_rounds(&mut m, 6);
        demux.send(batch_to_wire(&collected, WireEncodeOptions::default()));
        let (stats, acks) = demux.finish();
        assert_eq!(stats.rows_accepted, 2);
        assert_eq!(stats.rows_rejected, 4);
        let frame_acks: Vec<_> = acks
            .iter()
            .filter_map(|a| match a {
                DemuxAck::Frame {
                    accepted,
                    rejections,
                    ..
                } => Some((accepted, rejections)),
                _ => None,
            })
            .collect();
        assert_eq!(frame_acks.len(), 1);
        assert_eq!(*frame_acks[0].0, 2);
        assert_eq!(frame_acks[0].1.len(), 4);
        assert!(frame_acks[0]
            .1
            .iter()
            .all(|r| matches!(r.error, FleetError::QueueFull(_))));
    }

    /// Wire rows encoded for the pre-churn shape are refused at the
    /// gate with a typed error, never ingested against the wrong shape.
    #[test]
    fn stale_wire_rows_after_churn_fail_typed_not_silent() {
        use losstomo_core::streaming::WindowMode;
        use losstomo_topology::TopologyDelta;
        let red = fixtures::reduced(&fixtures::figure2());
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 16,
            workers: Some(1),
        });
        let t = fleet.add_tenant(
            "t",
            &red,
            OnlineConfig {
                window: WindowMode::Sliding(8),
                ..OnlineConfig::default()
            },
        );
        let paths = red.num_paths();
        // Encode rows for the pre-churn shape…
        let mut enc = BatchEncoder::new(WireEncodeOptions::default());
        enc.begin_frame(0, 0, paths as u32);
        enc.push_row(&vec![-0.1; paths]);
        enc.end_frame();
        let batch = WireBatch::parse(enc.finish()).unwrap();
        // …then grow the topology by one path before they are ingested.
        let nc = red.num_links();
        let delta = TopologyDelta::new().add_path(vec![0, nc - 1]);
        fleet.update_topology(t, &delta).unwrap();
        let report = fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        // The edge rejects at the frame gate, which reads the live,
        // already churned topology.
        assert_eq!(report.accepted, 0);
        assert!(matches!(
            &report.rejections[0].error,
            FleetError::MalformedSnapshot { .. }
        ));
        assert_eq!(fleet.stats(t).errors, 0, "nothing reached the estimator");
    }

    /// Blocks until the demux thread acknowledges its next batch or
    /// frame: the ack is sent after the frame's rows were routed.
    fn next_ack(demux: &DemuxHandle) -> DemuxAck {
        loop {
            if let Some(ack) = demux.try_ack() {
                return ack;
            }
            thread::yield_now();
        }
    }

    /// A one-frame batch of `rows` copies of `row` for `tenant`.
    fn frame_of(tenant: u32, row: &[f64], rows: usize) -> Bytes {
        let mut enc = BatchEncoder::new(WireEncodeOptions::default());
        enc.begin_frame(tenant, 0, row.len() as u32);
        for _ in 0..rows {
            enc.push_row(row);
        }
        enc.end_frame();
        enc.finish()
    }

    /// The demux checks path counts against the live topology: after a
    /// path-adding churn a frame of the new shape is accepted and
    /// ingested, and one of the old shape is refused with the reason
    /// `ingest_wire_batch` gives.
    #[test]
    fn demux_admits_against_the_live_topology_after_churn() {
        use losstomo_topology::TopologyDelta;
        let red = fixtures::reduced(&fixtures::figure2());
        let mut fleet = fleet_of(&red, 1, 16);
        let t = TenantId(0);
        let demux = fleet.spawn_demux(DemuxConfig::default());
        let nc = red.num_links();
        fleet
            .update_topology(t, &TopologyDelta::new().add_path(vec![0, nc - 1]))
            .unwrap();
        let paths = red.num_paths();
        let ms = simulate(fleet.estimator(t).topology(), 3, 61);
        for s in &ms.snapshots {
            demux.send(frame_of(0, &s.log_rates(), 1));
        }
        let old_shape = frame_of(0, &vec![-0.1; paths], 1);
        demux.send(old_shape.clone());
        let (stats, acks) = demux.finish();
        assert_eq!(stats.rows_accepted, 3, "{acks:?}");
        assert_eq!(stats.rows_rejected, 1);
        let refused: Vec<&RowRejection> = acks
            .iter()
            .filter_map(|a| match a {
                DemuxAck::Frame { rejections, .. } => Some(rejections),
                DemuxAck::MalformedBatch { .. } => None,
            })
            .flatten()
            .collect();
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].row, None);
        let direct = fleet.ingest_wire_batch(
            &WireBatch::parse(old_shape).unwrap(),
            WireIngestMode::ZeroCopy,
        );
        assert_eq!(refused[0].error, direct.rejections[0].error);
        assert!(matches!(
            &refused[0].error,
            FleetError::MalformedSnapshot { reason, .. }
                if reason == &format!("snapshot covers {paths} paths, topology has {}", paths + 1)
        ));
        fleet.poll_events();
        assert_eq!(fleet.stats(t).ingested, 3);
        assert_eq!(fleet.stats(t).errors, 0);
    }

    /// A quarantined tenant's frames are refused by the demux at once,
    /// without queueing a row, while another tenant's frame in the same
    /// batch goes in; after revival the tenant's frames are accepted
    /// again by the same demux thread.
    #[test]
    fn demux_refuses_a_quarantined_tenant_until_it_is_revived() {
        let red = fig1();
        let mut fleet = fleet_of(&red, 2, 64);
        let (bad, good) = (TenantId(0), TenantId(1));
        let ms = simulate(&red, 4, 71);
        fleet.tenants[bad.0].panic_at = Some(1);
        fleet.enqueue(bad, ms.snapshots[0].clone()).unwrap();
        fleet.poll_events();
        assert!(fleet.stats(bad).quarantined);
        assert_eq!(fleet.stats(bad).queued, 0);

        let demux = fleet.spawn_demux(DemuxConfig::default());
        let row = ms.snapshots[1].log_rates();
        let mut enc = BatchEncoder::new(WireEncodeOptions::default());
        enc.begin_frame(0, 0, row.len() as u32);
        for _ in 0..70 {
            enc.push_row(&row);
        }
        enc.end_frame();
        enc.begin_frame(1, 0, row.len() as u32);
        enc.push_row(&row);
        enc.end_frame();
        demux.send(enc.finish());
        match next_ack(&demux) {
            DemuxAck::Frame {
                accepted,
                rejections,
                ..
            } => {
                assert_eq!(accepted, 0);
                assert_eq!(rejections.len(), 1, "one frame-level refusal");
                assert_eq!(rejections[0].row, None);
                assert_eq!(rejections[0].error, FleetError::Quarantined(bad));
            }
            other => panic!("expected a frame ack, got {other:?}"),
        }
        assert!(matches!(
            next_ack(&demux),
            DemuxAck::Frame { accepted: 1, ref rejections, .. } if rejections.is_empty()
        ));
        assert_eq!(fleet.stats(bad).queued, 0, "no row queued for it");
        assert_eq!(fleet.stats(good).queued, 1);

        fleet.revive_tenant(bad).unwrap();
        demux.send(frame_of(0, &ms.snapshots[2].log_rates(), 2));
        assert!(matches!(
            next_ack(&demux),
            DemuxAck::Frame { accepted: 2, ref rejections, .. } if rejections.is_empty()
        ));
        let (stats, _) = demux.finish();
        assert_eq!(stats.rows_accepted, 3);
        assert_eq!(stats.rows_rejected, 70);
        fleet.poll_events();
        assert_eq!(fleet.stats(bad).ingested, 1 + 2);
        assert_eq!(fleet.stats(good).ingested, 1);
    }

    #[test]
    fn poll_events_into_reuses_caller_buffer_and_appends() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            workers: Some(2),
            ..FleetConfig::default()
        });
        let a = fleet.add_tenant("a", &red, OnlineConfig::default());
        let b = fleet.add_tenant("b", &red, OnlineConfig::default());
        let ms = simulate(&red, 30, 17);
        let mut events = Vec::new();
        let mut total = 0usize;
        for chunk in ms.snapshots.chunks(10) {
            for s in chunk {
                fleet.enqueue(a, s.clone()).unwrap();
                fleet.enqueue(b, s.clone()).unwrap();
            }
            let before = events.len();
            let appended = fleet.poll_events_into(&mut events);
            assert_eq!(events.len(), before + appended, "append-only contract");
            // The appended range is (tenant, seq)-sorted.
            let tail = &events[before..];
            for w in tail.windows(2) {
                assert!((w[0].tenant, w[0].seq) <= (w[1].tenant, w[1].seq));
            }
            total += appended;
        }
        assert_eq!(events.len(), total);
        assert_eq!(fleet.stats(a).ingested, 30);
        // poll_events (allocating wrapper) is empty on an empty fleet.
        assert!(fleet.poll_events().is_empty());
        // Standalone equivalence still holds through the pooled path.
        let mut solo = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots {
            solo.ingest(s).unwrap();
        }
        assert_eq!(fleet.estimator(a).congested_links(), solo.congested_links());
    }
}
