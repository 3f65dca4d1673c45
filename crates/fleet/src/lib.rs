//! # losstomo-fleet — multi-tenant online loss inference
//!
//! The paper's estimator monitors *one* network; a production monitor
//! watches **many** — one topology and measurement feed per customer
//! network, point of presence, or overlay. This crate is that layer: a
//! [`Fleet`] owns an independent tenant per monitored network (its
//! [`ReducedTopology`] plus a warm
//! [`OnlineEstimator`]), buffers incoming
//! snapshots in **bounded per-tenant queues** (crossbeam channels, so a
//! hot tenant back-pressures instead of eating the process), and drains
//! the queues with a **sharded worker pool** sized by the workspace-wide
//! [`losstomo_linalg::parallel`] policy (`LOSSTOMO_THREADS`-capped).
//!
//! ## Admission
//!
//! Every input — an owned snapshot ([`Fleet::enqueue`],
//! [`Fleet::ingest_batch`]) or a wire row ([`Fleet::ingest_wire_batch`],
//! [`Fleet::spawn_demux`]'s thread) — passes one admission gate before
//! it enters a queue: the tenant is registered and not quarantined, and
//! the row's path count matches its current topology. Each tenant's
//! gate is one shared value that the fleet and its demux threads read
//! live, so quarantine, revival and churn take effect at once on every
//! ingest path. An admitted row carries the tenant's routing epoch, and
//! the drain refuses a row whose epoch [`Fleet::update_topology`] has
//! since moved past: no row is read under a path numbering it was not
//! admitted for. Batch ingest is partial-accept: every input is
//! accepted or rejected by position with a typed reason, so accepted +
//! rejected = sent.
//!
//! ## Determinism contract
//!
//! Every tenant is pinned to exactly one shard, each shard's worker
//! processes its tenants in ascending id order, and a tenant's
//! snapshots are ingested in arrival order — so each tenant's estimator
//! sees precisely the call sequence it would see running alone.
//! Per-tenant estimates, congested sets, and change events are
//! therefore **bit-identical to a standalone
//! [`OnlineEstimator`]** at any worker count
//! (`tests/fleet_equivalence.rs` at the workspace root pins this for a
//! 16-tenant fleet). Events are merged across shards in
//! `(tenant, seq)` order, so the event stream is deterministic too.
//!
//! ## Hot path
//!
//! The per-snapshot cost is the estimator's ingest; its refresh reuses
//! the estimator's workspace across refreshes (see
//! [`losstomo_core::streaming`]), so a steady-state fleet performs no
//! per-snapshot allocations in Phase 1's covariance replay, Gram
//! assembly, or factorisation. The `fleet_scale` benchmark measures
//! the refresh latency and tenant-throughput scaling vs
//! `LOSSTOMO_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge;

pub use edge::{
    DemuxAck, DemuxConfig, DemuxHandle, DemuxStats, FleetQueryReport, RowRejection, TenantQuery,
    WireIngestMode, WireIngestReport,
};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use losstomo_core::streaming::{OnlineConfig, OnlineEstimator};
use losstomo_netsim::Snapshot;
use losstomo_topology::{ReducedTopology, TopologyDelta};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Opaque handle of one registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's dense index (`0..fleet.tenant_count()`, in
    /// registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Capacity of each tenant's snapshot queue; [`Fleet::enqueue`]
    /// reports [`FleetError::QueueFull`] beyond it (backpressure), and
    /// [`Fleet::ingest_batch`] drains and retries instead.
    pub queue_capacity: usize,
    /// Worker threads for [`Fleet::poll_events_into`]. `None`
    /// (default) follows [`losstomo_linalg::parallel::num_threads`] —
    /// available parallelism capped by `LOSSTOMO_THREADS`. Results are
    /// identical at any setting; the knob trades wall-clock for CPU
    /// occupancy.
    pub workers: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_capacity: 64,
            workers: None,
        }
    }
}

/// Errors surfaced by the fleet's queueing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant's bounded snapshot queue is full; drain the fleet (or
    /// widen [`FleetConfig::queue_capacity`]) and retry.
    QueueFull(TenantId),
    /// The tenant id does not belong to this fleet.
    UnknownTenant(TenantId),
    /// The tenant was quarantined after a panicking ingest and no
    /// longer accepts snapshots (see
    /// [`FleetEventKind::TenantQuarantined`]).
    Quarantined(TenantId),
    /// [`Fleet::revive_tenant`] was called on a tenant that is not
    /// quarantined — reviving a healthy tenant would silently discard
    /// its warm estimator state.
    NotQuarantined(TenantId),
    /// [`Fleet::update_topology`] was handed an invalid delta (path or
    /// link out of range, empty path). The tenant's estimator is
    /// untouched.
    RejectedDelta {
        /// The tenant the delta was aimed at.
        tenant: TenantId,
        /// The churn validation error, stringified.
        reason: String,
    },
    /// [`Fleet::enqueue`] rejected a snapshot that cannot be ingested:
    /// wrong path count for the tenant's topology, or zero probes. The
    /// queue and the estimator are untouched.
    MalformedSnapshot {
        /// The tenant the snapshot was aimed at.
        tenant: TenantId,
        /// Why the snapshot was rejected.
        reason: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::QueueFull(t) => write!(f, "snapshot queue of {t} is full"),
            FleetError::UnknownTenant(t) => write!(f, "{t} is not registered in this fleet"),
            FleetError::Quarantined(t) => {
                write!(f, "{t} is quarantined after a panicking ingest")
            }
            FleetError::NotQuarantined(t) => {
                write!(f, "{t} is not quarantined — nothing to revive")
            }
            FleetError::RejectedDelta { tenant, reason } => {
                write!(f, "topology delta rejected for {tenant}: {reason}")
            }
            FleetError::MalformedSnapshot { tenant, reason } => {
                write!(f, "malformed snapshot for {tenant}: {reason}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One drained event of one tenant.
#[derive(Debug, Clone)]
pub struct FleetEvent {
    /// The tenant the event belongs to.
    pub tenant: TenantId,
    /// 1-based per-tenant snapshot sequence number that produced the
    /// event.
    pub seq: u64,
    /// What happened.
    pub kind: FleetEventKind,
}

/// Event payloads.
#[derive(Debug, Clone)]
pub enum FleetEventKind {
    /// The tenant's congested-link set changed with this snapshot.
    CongestionChanged {
        /// Links that entered the congested set (ascending).
        appeared: Vec<usize>,
        /// Links that left the congested set (ascending).
        cleared: Vec<usize>,
        /// The full congested set after this snapshot (ascending).
        congested: Vec<usize>,
    },
    /// The tenant's estimator failed to process this snapshot (a
    /// post-warm-up refresh failure). The tenant keeps running; the
    /// snapshot is dropped.
    EstimatorError {
        /// The estimator's error, stringified.
        message: String,
    },
    /// The tenant's ingest *panicked* (e.g. a malformed snapshot
    /// tripping an invariant). The unwind is caught at the tenant
    /// boundary: this tenant is quarantined — its estimator is never
    /// touched again and new snapshots are refused with
    /// [`FleetError::Quarantined`] — while every other tenant keeps
    /// running.
    TenantQuarantined {
        /// The panic payload, stringified.
        message: String,
    },
    /// The tenant's routing changed mid-stream via
    /// [`Fleet::update_topology`]: the estimator was patched in place
    /// — no drain, no queue loss — and is now serving the new
    /// topology.
    TopologyChurned {
        /// Paths added by the delta.
        added: usize,
        /// Paths removed by the delta.
        removed: usize,
        /// Surviving paths whose route changed.
        rerouted: usize,
        /// Snapshots until the covariance window flushes its pre-churn
        /// history and estimates are again bit-identical to a fresh
        /// estimator (`None` = never, e.g. an unbounded window).
        snapshots_until_flush: Option<u64>,
        /// Whether the immediate post-churn refresh failed while a
        /// model was live, so the tenant serves no estimate until a
        /// later refresh succeeds (the companion
        /// [`FleetEventKind::EstimatorError`] event carries the reason —
        /// the degraded path is never silent).
        rebuilt: bool,
    },
    /// A quarantined tenant was rebuilt from its topology via
    /// [`Fleet::revive_tenant`] and accepts snapshots again. Its
    /// estimator restarts cold; ingest/error counters are retained.
    TenantRevived,
}

/// Per-tenant bookkeeping the fleet exposes for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Snapshots ingested (drained) so far.
    pub ingested: u64,
    /// Successful estimator refreshes so far.
    pub refreshes: u64,
    /// Snapshots currently waiting in the queue.
    pub queued: usize,
    /// Ingests that failed with an estimator error.
    pub errors: u64,
    /// Whether the tenant is quarantined after a panicking ingest.
    pub quarantined: bool,
}

/// One unit of work in a tenant queue, stamped with the routing epoch
/// its tenant was at when the row was admitted.
struct QueueItem {
    /// The tenant's [`Gate`] epoch at admission. The drain refuses the
    /// item once [`Fleet::update_topology`] has moved past it.
    epoch: u64,
    payload: Payload,
}

/// The row a [`QueueItem`] carries. The service edge enqueues wire
/// rows; the library API enqueues owned snapshots. Either way the
/// payload reaching the estimator is the snapshot's log-rate row, bit
/// for bit — which is what keeps wire ingest and direct enqueue
/// interchangeable.
enum Payload {
    /// An owned snapshot ([`Fleet::enqueue`] / [`Fleet::ingest_batch`]).
    Snapshot(Snapshot),
    /// A zero-copy wire row: `path_count × 8` little-endian `f64`
    /// bytes, an O(1) reference-counted window of the receive buffer.
    Wire {
        /// The row bytes (alias of the batch buffer).
        data: Bytes,
        /// Wire sequence number of the snapshot.
        seq: u64,
    },
}

/// One tenant's admission state: whether it is quarantined, its
/// current path count and its routing epoch. The fleet's inlet and the
/// tenant share it through an `Arc`, and [`Fleet::spawn_demux`] hands
/// the inlet to its thread, so every ingest path reads it live. It is
/// written only where the fleet changes what it guards: the drain's
/// quarantine, [`Fleet::revive_tenant`] and [`Fleet::update_topology`].
#[derive(Debug)]
struct Gate {
    quarantined: AtomicBool,
    paths: AtomicUsize,
    /// Successful [`Fleet::update_topology`] calls so far. Stored with
    /// `Release` after `paths`; [`Gate::admit`] loads it with `Acquire`
    /// before `paths`, so a row stamped with epoch `e` was checked
    /// against the path count of epoch `e` or a later one — and a later
    /// one leaves the stamp stale, which the drain refuses.
    epoch: AtomicU64,
}

impl Gate {
    /// Admits a row of `paths` log rates for tenant `id`: refused when
    /// the tenant is quarantined or the count does not match its
    /// current topology, else stamped with the routing epoch returned.
    fn admit(&self, id: TenantId, paths: usize) -> Result<u64, FleetError> {
        if self.quarantined() {
            return Err(FleetError::Quarantined(id));
        }
        let epoch = self.epoch();
        let want = self.paths.load(Ordering::Relaxed);
        if paths != want {
            return Err(FleetError::MalformedSnapshot {
                tenant: id,
                reason: format!("snapshot covers {paths} paths, topology has {want}"),
            });
        }
        Ok(epoch)
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    fn set_quarantined(&self, quarantined: bool) {
        self.quarantined.store(quarantined, Ordering::SeqCst);
    }

    /// Starts the next routing epoch, whose topology has `paths` paths.
    fn reroute(&self, paths: usize) {
        self.paths.store(paths, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// The producer side of one tenant: its queue's sender and its
/// admission gate. [`Fleet::spawn_demux`] clones the fleet's list.
#[derive(Debug, Clone)]
struct Inlet {
    tx: Sender<QueueItem>,
    gate: Arc<Gate>,
}

impl Inlet {
    /// One enqueue attempt for tenant `id`: a quarantined tenant is
    /// refused (no drain reads its queue), and a full queue hands the
    /// item back as `Ok(Some(item))` for the caller to retry.
    fn try_send(&self, id: TenantId, item: QueueItem) -> Result<Option<QueueItem>, FleetError> {
        if self.gate.quarantined() {
            return Err(FleetError::Quarantined(id));
        }
        match self.tx.try_send(item) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(item)) => Ok(Some(item)),
            Err(TrySendError::Disconnected(_)) => Err(FleetError::UnknownTenant(id)),
        }
    }
}

/// The one admission gate in front of the tenant queues, shared by the
/// fleet's own ingest paths and the demux thread: the tenant must be
/// registered in `inlets`, and its [`Gate`] must admit a row of `paths`
/// log rates. Returns the routing epoch to stamp the row with.
/// Rejection is typed and loud — nothing reaches the estimator.
fn admit(inlets: &[Inlet], id: TenantId, paths: usize) -> Result<u64, FleetError> {
    inlets
        .get(id.0)
        .ok_or(FleetError::UnknownTenant(id))?
        .gate
        .admit(id, paths)
}

/// One registered tenant: its estimator plus the receive side of its
/// snapshot queue.
struct Tenant {
    name: String,
    estimator: OnlineEstimator,
    rx: Receiver<QueueItem>,
    /// The tenant's admission state, shared with its inlet. The drain
    /// sets its quarantine flag when an ingest panics: the estimator
    /// may hold broken invariants, so it is never touched again (until
    /// [`Fleet::revive_tenant`] rebuilds it).
    gate: Arc<Gate>,
    ingested: u64,
    errors: u64,
    /// Highest wire sequence number ingested so far (None until the
    /// first wire row) — the staleness signal of [`Fleet::query`].
    last_wire_seq: Option<u64>,
    /// Test hook: panic inside the ingest of the `n`-th snapshot, to
    /// exercise the quarantine containment without relying on a real
    /// estimator invariant (malformed input is now rejected with typed
    /// errors before it can trip one).
    #[cfg(test)]
    panic_at: Option<u64>,
}

impl Tenant {
    /// Drains every queued snapshot through the estimator, appending
    /// one event per congested-set change (or error) to `events`. An
    /// item admitted before the last [`Fleet::update_topology`] is
    /// refused with an error event before it touches the estimator. A
    /// *panicking* ingest is caught here — the tenant boundary — and
    /// quarantines this tenant only, instead of unwinding through the
    /// worker pool and poisoning the whole fleet.
    fn ingest_queued(&mut self, id: TenantId, events: &mut Vec<FleetEvent>) {
        if self.gate.quarantined() {
            return;
        }
        let epoch = self.gate.epoch();
        while let Ok(item) = self.rx.try_recv() {
            self.ingested += 1;
            if let Payload::Wire { seq, .. } = &item.payload {
                self.last_wire_seq = Some(*seq);
            }
            let outcome = if item.epoch == epoch {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    #[cfg(test)]
                    if self.panic_at == Some(self.ingested) {
                        panic!("injected ingest panic at snapshot {}", self.ingested);
                    }
                    match &item.payload {
                        Payload::Snapshot(snapshot) => self.estimator.ingest(snapshot),
                        // Zero-copy end to end: the estimator reads the
                        // row straight out of the receive buffer and
                        // retains it by reference (misaligned buffers
                        // decode once through the estimator's scratch).
                        Payload::Wire { data, .. } => self.estimator.ingest_wire_row(data),
                    }
                    .map_err(|e| e.to_string())
                }))
            } else {
                Ok(Err(format!(
                    "row admitted under routing epoch {} was queued across a topology \
                     update (now epoch {epoch}); refused rather than read under the new \
                     path numbering",
                    item.epoch
                )))
            };
            match outcome {
                Ok(Ok(update)) => {
                    if !update.appeared.is_empty() || !update.cleared.is_empty() {
                        events.push(FleetEvent {
                            tenant: id,
                            seq: self.ingested,
                            kind: FleetEventKind::CongestionChanged {
                                appeared: update.appeared,
                                cleared: update.cleared,
                                congested: update.congested,
                            },
                        });
                    }
                }
                Ok(Err(message)) => {
                    self.errors += 1;
                    events.push(FleetEvent {
                        tenant: id,
                        seq: self.ingested,
                        kind: FleetEventKind::EstimatorError { message },
                    });
                }
                Err(payload) => {
                    self.gate.set_quarantined(true);
                    self.errors += 1;
                    events.push(FleetEvent {
                        tenant: id,
                        seq: self.ingested,
                        kind: FleetEventKind::TenantQuarantined {
                            message: panic_message(payload),
                        },
                    });
                    return;
                }
            }
        }
    }
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "tenant ingest panicked".to_string()
    }
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("ingested", &self.ingested)
            .field("queued", &self.rx.len())
            .finish_non_exhaustive()
    }
}

/// Registry and scheduler for many independently monitored networks.
///
/// ```text
/// feeds ──enqueue──► [bounded queue per tenant] ──drain──► worker pool
///                                                  │   (tenant-sharded)
///                                                  ▼
///                                    per-tenant OnlineEstimator
///                                                  │
///                                  FleetEvents (congested-set diffs)
/// ```
///
/// See the [crate docs](self) for the determinism contract.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    tenants: Vec<Tenant>,
    /// Each tenant's queue sender and gate, indexable with `&self` so
    /// producers can enqueue without exclusive access to the registry.
    inlets: Vec<Inlet>,
    /// Recycled per-shard event buffers for [`Fleet::poll_events_into`]
    /// — a steady-state drain allocates no event vectors.
    event_pool: Vec<Vec<FleetEvent>>,
}

impl Fleet {
    /// Creates an empty fleet.
    pub fn new(cfg: FleetConfig) -> Self {
        Fleet {
            cfg,
            tenants: Vec::new(),
            inlets: Vec::new(),
            event_pool: Vec::new(),
        }
    }

    /// Registers a tenant: its own copy of the reduced topology and a
    /// fresh [`OnlineEstimator`] with `online` settings, plus a bounded
    /// snapshot queue. Returns the tenant's handle.
    pub fn add_tenant(
        &mut self,
        name: impl Into<String>,
        red: &ReducedTopology,
        online: OnlineConfig,
    ) -> TenantId {
        let id = TenantId(self.tenants.len());
        let (tx, rx) = bounded(self.cfg.queue_capacity);
        let gate = Arc::new(Gate {
            quarantined: AtomicBool::new(false),
            paths: AtomicUsize::new(red.num_paths()),
            epoch: AtomicU64::new(0),
        });
        self.tenants.push(Tenant {
            name: name.into(),
            estimator: OnlineEstimator::new(red, online),
            rx,
            gate: Arc::clone(&gate),
            ingested: 0,
            errors: 0,
            last_wire_seq: None,
            #[cfg(test)]
            panic_at: None,
        });
        self.inlets.push(Inlet { tx, gate });
        id
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The worker count [`Fleet::poll_events_into`] will use right now
    /// (resolving the `None` default against the shared thread policy
    /// and the tenant count).
    pub fn workers(&self) -> usize {
        self.cfg
            .workers
            .unwrap_or_else(losstomo_linalg::parallel::num_threads)
            .clamp(1, self.tenants.len().max(1))
    }

    /// The SIMD engine active for this process: `LOSSTOMO_SIMD`,
    /// resolved once against the host (see
    /// [`losstomo_linalg::simd::active`]). Numerical results are
    /// engine-independent under every non-FMA policy (bit-identical
    /// kernels).
    pub fn simd_engine(&self) -> losstomo_linalg::Engine {
        losstomo_linalg::simd::active()
    }

    /// The tenant's registration name.
    pub fn name(&self, id: TenantId) -> &str {
        &self.tenants[id.0].name
    }

    /// Read access to a tenant's estimator (variances, congested set,
    /// kept columns, …).
    pub fn estimator(&self, id: TenantId) -> &OnlineEstimator {
        &self.tenants[id.0].estimator
    }

    /// Queue/ingest counters of one tenant.
    pub fn stats(&self, id: TenantId) -> TenantStats {
        let t = &self.tenants[id.0];
        TenantStats {
            ingested: t.ingested,
            refreshes: t.estimator.refresh_count(),
            queued: t.rx.len(),
            errors: t.errors,
            quarantined: t.gate.quarantined(),
        }
    }

    /// [`admit`] for an owned snapshot, which must also report at least
    /// one probe sent (zero probes would produce NaN rates). Returns
    /// the snapshot's queue item.
    fn admit_snapshot(&self, id: TenantId, snapshot: Snapshot) -> Result<QueueItem, FleetError> {
        let epoch = admit(&self.inlets, id, snapshot.path_received.len())?;
        if snapshot.probes == 0 {
            return Err(FleetError::MalformedSnapshot {
                tenant: id,
                reason: "snapshot reports zero probes sent".to_string(),
            });
        }
        Ok(QueueItem {
            epoch,
            payload: Payload::Snapshot(snapshot),
        })
    }

    /// Enqueues one snapshot for a tenant without blocking. Fails with
    /// [`FleetError::QueueFull`] when the tenant's bounded queue is at
    /// capacity — the backpressure signal; [`Fleet::poll_events`] frees
    /// it — with [`FleetError::Quarantined`] when the tenant was
    /// quarantined by a panicking ingest, and with
    /// [`FleetError::MalformedSnapshot`] when the snapshot cannot match
    /// the tenant's topology (nothing is silently dropped).
    pub fn enqueue(&self, id: TenantId, snapshot: Snapshot) -> Result<(), FleetError> {
        let item = self.admit_snapshot(id, snapshot)?;
        match self.inlets[id.0].try_send(id, item)? {
            None => Ok(()),
            Some(_) => Err(FleetError::QueueFull(id)),
        }
    }

    /// Applies a routing delta to a tenant's **live** estimator — no
    /// drain, no rebuild, the queue keeps its snapshots. Returns the
    /// admin events synchronously (they are not replayed by later
    /// [`Fleet::poll_events`] calls): a
    /// [`FleetEventKind::TopologyChurned`] event always, preceded by a
    /// [`FleetEventKind::EstimatorError`] event when the immediate
    /// post-churn refresh failed while a model was live — the degraded
    /// path is loud, never a panic and never silent.
    ///
    /// An invalid delta returns [`FleetError::RejectedDelta`] and
    /// leaves the tenant untouched. A valid one starts a new routing
    /// epoch: from the return on, every ingest path — the demux threads
    /// included — admits rows against the new path count, and every
    /// row still queued from before is refused by the next drain,
    /// before it touches the estimator, with one
    /// [`FleetEventKind::EstimatorError`] event counted in
    /// [`TenantStats::errors`]. No queued row is read under a path
    /// numbering it was not admitted for, even when the delta leaves
    /// the path count unchanged.
    pub fn update_topology(
        &mut self,
        id: TenantId,
        delta: &TopologyDelta,
    ) -> Result<Vec<FleetEvent>, FleetError> {
        let t = self
            .tenants
            .get_mut(id.0)
            .ok_or(FleetError::UnknownTenant(id))?;
        if t.gate.quarantined() {
            return Err(FleetError::Quarantined(id));
        }
        let report = t
            .estimator
            .apply_delta(delta)
            .map_err(|e| FleetError::RejectedDelta {
                tenant: id,
                reason: e.to_string(),
            })?;
        t.gate.reroute(t.estimator.topology().num_paths());
        let mut events = Vec::new();
        if let Some(reason) = &report.refresh_error {
            t.errors += 1;
            events.push(FleetEvent {
                tenant: id,
                seq: t.ingested,
                kind: FleetEventKind::EstimatorError {
                    message: reason.clone(),
                },
            });
        }
        events.push(FleetEvent {
            tenant: id,
            seq: t.ingested,
            kind: FleetEventKind::TopologyChurned {
                added: report.added_paths,
                removed: report.removed_paths,
                rerouted: report.rerouted_paths,
                snapshots_until_flush: report.staleness.snapshots_until_flush,
                rebuilt: report.refresh_error.is_some(),
            },
        });
        Ok(events)
    }

    /// Rebuilds a quarantined tenant's estimator from its reduced
    /// topology and configuration, clears the quarantine flag, and
    /// returns a [`FleetEventKind::TenantRevived`] event. The rebuilt
    /// estimator is **bit-identical to a fresh one** on the same
    /// topology (it restarts cold — the broken estimator's state is
    /// discarded, which is the point); queued snapshots survive and are
    /// ingested by the next [`Fleet::poll_events`]. Ingest/error
    /// counters are retained for observability.
    ///
    /// Calling this on a healthy tenant returns
    /// [`FleetError::NotQuarantined`] — it would discard warm state.
    pub fn revive_tenant(&mut self, id: TenantId) -> Result<FleetEvent, FleetError> {
        let t = self
            .tenants
            .get_mut(id.0)
            .ok_or(FleetError::UnknownTenant(id))?;
        if !t.gate.quarantined() {
            return Err(FleetError::NotQuarantined(id));
        }
        let red = t.estimator.topology().clone();
        let cfg = *t.estimator.config();
        t.estimator = OnlineEstimator::new(&red, cfg);
        t.gate.set_quarantined(false);
        #[cfg(test)]
        {
            t.panic_at = None;
        }
        Ok(FleetEvent {
            tenant: id,
            seq: t.ingested,
            kind: FleetEventKind::TenantRevived,
        })
    }

    /// Drains every tenant queue through the sharded worker pool,
    /// **appending** the produced events to `events` — the caller owns
    /// (and reuses) the buffer, so a steady-state polling loop performs
    /// no per-drain event allocation. Per-shard scratch buffers are
    /// recycled from an internal pool for the same reason. The appended
    /// range is sorted in `(tenant, seq)` order; whatever was already
    /// in `events` is left untouched. Returns how many events were
    /// appended.
    ///
    /// Tenant `i` is pinned to shard `i mod workers`; each shard's
    /// worker ingests its tenants' snapshots in arrival order, so
    /// per-tenant results are identical at any worker count.
    pub fn poll_events_into(&mut self, events: &mut Vec<FleetEvent>) -> usize {
        let start = events.len();
        let workers = self.workers();
        if workers <= 1 || self.tenants.len() <= 1 {
            for (i, tenant) in self.tenants.iter_mut().enumerate() {
                tenant.ingest_queued(TenantId(i), events);
            }
        } else {
            // Deal the tenants out to their shards (round-robin by id,
            // so the assignment is stable as tenants are added).
            let mut shards: Vec<Vec<(TenantId, &mut Tenant)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, tenant) in self.tenants.iter_mut().enumerate() {
                shards[i % workers].push((TenantId(i), tenant));
            }
            let pool = &mut self.event_pool;
            let mut filled: Vec<Vec<FleetEvent>> = crossbeam::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|mut shard| {
                        let mut buf = pool.pop().unwrap_or_default();
                        buf.clear();
                        scope.spawn(move |_| {
                            for (id, tenant) in shard.iter_mut() {
                                tenant.ingest_queued(*id, &mut buf);
                            }
                            buf
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet worker panicked"))
                    .collect()
            })
            .expect("fleet worker pool panicked");
            for buf in &mut filled {
                events.append(buf);
            }
            self.event_pool.append(&mut filled);
        }
        events[start..].sort_by_key(|e| (e.tenant, e.seq));
        events.len() - start
    }

    /// Drains every tenant queue and returns the produced events in
    /// `(tenant, seq)` order. Thin allocating wrapper over
    /// [`Fleet::poll_events_into`] — polling loops that care about the
    /// allocation should hold their own buffer and call that instead.
    pub fn poll_events(&mut self) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        self.poll_events_into(&mut events);
        events
    }

    /// Batch ingest, **partial-accept**: enqueues every
    /// `(tenant, snapshot)` pair that passes admission, draining the
    /// fleet whenever a queue fills (the bounded queues are the batch's
    /// flow control), then drains whatever remains. A pair that cannot
    /// be enqueued (unknown or quarantined tenant, malformed snapshot,
    /// queue still full after a drain) is recorded with its batch index
    /// and skipped; the rest of the batch still goes in. The report
    /// accounts for every pair — `accepted + rejections.len()` equals
    /// the batch length — and carries every event the batch's drains
    /// produced.
    pub fn ingest_batch(
        &mut self,
        batch: impl IntoIterator<Item = (TenantId, Snapshot)>,
    ) -> BatchReport {
        let mut report = BatchReport::default();
        for (index, (id, snapshot)) in batch.into_iter().enumerate() {
            let outcome = self.admit_snapshot(id, snapshot).and_then(|item| {
                self.enqueue_item_with_drain(
                    id,
                    item,
                    &mut report.events,
                    &mut report.backpressure_drains,
                )
            });
            match outcome {
                Ok(()) => report.accepted += 1,
                Err(error) => report.rejections.push(BatchRejection {
                    index,
                    tenant: id,
                    error,
                }),
            }
        }
        self.poll_events_into(&mut report.events);
        report
    }

    /// Enqueues one admitted item: the enqueue step of the caller's
    /// thread. When the tenant's queue is full it drains the fleet once
    /// into `events`, counts the drain in `drains`, and retries. The
    /// drain leaves every live tenant's queue empty and capacity is
    /// ≥ 1, so the retry finds room — unless this very drain
    /// quarantined the tenant, which the retry refuses.
    fn enqueue_item_with_drain(
        &mut self,
        id: TenantId,
        item: QueueItem,
        events: &mut Vec<FleetEvent>,
        drains: &mut usize,
    ) -> Result<(), FleetError> {
        let Some(item) = self.inlets[id.0].try_send(id, item)? else {
            return Ok(());
        };
        *drains += 1;
        self.poll_events_into(events);
        match self.inlets[id.0].try_send(id, item)? {
            None => Ok(()),
            Some(_) => Err(FleetError::QueueFull(id)),
        }
    }
}

/// One rejected entry of a partial-accept batch — which input it was
/// (`index` into the batch, in iteration order), whom it was for, and
/// the typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRejection {
    /// Zero-based index of the rejected pair within the batch.
    pub index: usize,
    /// The tenant the pair was aimed at.
    pub tenant: TenantId,
    /// Why it was rejected.
    pub error: FleetError,
}

/// Accounting of one [`Fleet::ingest_batch`] call. Every input
/// pair is either counted in `accepted` or listed in `rejections` —
/// nothing is silently dropped.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// Pairs that entered their tenant queue (and were drained).
    pub accepted: usize,
    /// Pairs that were refused, with index and typed reason.
    pub rejections: Vec<BatchRejection>,
    /// Events produced by the intermediate and final drains, in drain
    /// order (within each drain, `(tenant, seq)`-sorted).
    pub events: Vec<FleetEvent>,
    /// How many intermediate drains backpressure forced.
    pub backpressure_drains: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_core::budget::PairBudget;
    use losstomo_netsim::{
        simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
    };
    use losstomo_topology::fixtures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
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
        let cfg = ProbeConfig {
            probes_per_snapshot: 120,
            ..ProbeConfig::default()
        };
        simulate_run(red, &mut scenario, &cfg, m, &mut rng)
    }

    #[test]
    fn enqueue_applies_backpressure_and_drain_frees_it() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 2,
            workers: Some(1),
        });
        let t = fleet.add_tenant("net-0", &red, OnlineConfig::default());
        let ms = simulate(&red, 3, 1);
        fleet.enqueue(t, ms.snapshots[0].clone()).unwrap();
        fleet.enqueue(t, ms.snapshots[1].clone()).unwrap();
        assert_eq!(
            fleet.enqueue(t, ms.snapshots[2].clone()),
            Err(FleetError::QueueFull(t))
        );
        assert_eq!(fleet.stats(t).queued, 2);
        fleet.poll_events();
        assert_eq!(fleet.stats(t).queued, 0);
        assert_eq!(fleet.stats(t).ingested, 2);
        fleet.enqueue(t, ms.snapshots[2].clone()).unwrap();
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let red = fig1();
        let fleet = Fleet::new(FleetConfig::default());
        let ghost = TenantId(7);
        let ms = simulate(&red, 1, 2);
        assert_eq!(
            fleet.enqueue(ghost, ms.snapshots[0].clone()),
            Err(FleetError::UnknownTenant(ghost))
        );
    }

    #[test]
    fn ingest_batch_drains_on_backpressure() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 2,
            workers: Some(2),
        });
        let a = fleet.add_tenant("a", &red, OnlineConfig::default());
        let b = fleet.add_tenant("b", &red, OnlineConfig::default());
        let m = 9;
        let ms_a = simulate(&red, m, 3);
        let ms_b = simulate(&red, m, 4);
        // Interleave; queue capacity 2 forces intermediate drains.
        let batch: Vec<(TenantId, Snapshot)> = ms_a
            .snapshots
            .iter()
            .cloned()
            .map(|s| (a, s))
            .zip(ms_b.snapshots.iter().cloned().map(|s| (b, s)))
            .flat_map(|(x, y)| [x, y])
            .collect();
        assert!(fleet.ingest_batch(batch).rejections.is_empty());
        assert_eq!(fleet.stats(a).ingested, m as u64);
        assert_eq!(fleet.stats(b).ingested, m as u64);
        assert_eq!(fleet.stats(a).queued, 0);
        assert!(fleet.estimator(a).variances().is_some());
    }

    #[test]
    fn events_replay_congested_set_transitions() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig::default());
        let t = fleet.add_tenant("net", &red, OnlineConfig::default());
        let ms = simulate(&red, 25, 5);
        let report = fleet.ingest_batch(ms.snapshots.iter().cloned().map(|s| (t, s)));
        assert!(report.rejections.is_empty());
        let events = report.events;
        // Replaying appeared/cleared from an empty set must land on the
        // estimator's current congested set.
        let mut current: Vec<usize> = Vec::new();
        let mut last_seq = 0;
        for e in &events {
            assert_eq!(e.tenant, t);
            assert!(e.seq > last_seq, "events must be seq-ordered per tenant");
            last_seq = e.seq;
            match &e.kind {
                FleetEventKind::CongestionChanged {
                    appeared,
                    cleared,
                    congested,
                } => {
                    current.retain(|k| !cleared.contains(k));
                    current.extend(appeared.iter().copied());
                    current.sort_unstable();
                    assert_eq!(&current, congested);
                }
                FleetEventKind::EstimatorError { message }
                | FleetEventKind::TenantQuarantined { message } => {
                    panic!("unexpected estimator error: {message}")
                }
                other => panic!("unexpected admin event in drain stream: {other:?}"),
            }
        }
        assert_eq!(current, fleet.estimator(t).congested_links());
    }

    /// A malformed snapshot mid-batch or last is rejected by its index
    /// while the rest of the batch goes in, and no event a backpressure
    /// drain produced is lost: replaying the report's events lands on
    /// the tenant's congested set.
    #[test]
    fn ingest_batch_rejects_by_index_and_keeps_every_event() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 2,
            workers: Some(1),
        });
        let t = fleet.add_tenant("t", &red, OnlineConfig::default());
        let mut batch: Vec<(TenantId, Snapshot)> = simulate(&red, 25, 5)
            .snapshots
            .into_iter()
            .map(|s| (t, s))
            .collect();
        let mut zero = batch[0].1.clone();
        zero.probes = 0;
        batch.insert(12, (t, zero.clone()));
        batch.push((t, zero));
        let n = batch.len();
        let report = fleet.ingest_batch(batch);
        let rejected: Vec<usize> = report.rejections.iter().map(|r| r.index).collect();
        assert_eq!(rejected, vec![12, n - 1]);
        assert!(report
            .rejections
            .iter()
            .all(|r| r.tenant == t && matches!(r.error, FleetError::MalformedSnapshot { .. })));
        assert_eq!(report.accepted + report.rejections.len(), n);
        assert_eq!(fleet.stats(t).ingested, report.accepted as u64);
        assert!(
            report.backpressure_drains > 0,
            "capacity 2 must drain mid-batch"
        );
        let mut current: Vec<usize> = Vec::new();
        for e in &report.events {
            if let FleetEventKind::CongestionChanged {
                appeared, cleared, ..
            } = &e.kind
            {
                current.retain(|k| !cleared.contains(k));
                current.extend(appeared.iter().copied());
                current.sort_unstable();
            }
        }
        assert!(!current.is_empty(), "premise: the stream ends congested");
        assert_eq!(current, fleet.estimator(t).congested_links());
    }

    #[test]
    fn panicking_tenant_is_quarantined_not_fatal() {
        let red1 = fig1();
        // Two tenants on two workers: the panic unwinds inside a shard
        // thread and must still be contained to its tenant.
        let mut fleet = Fleet::new(FleetConfig {
            workers: Some(2),
            ..FleetConfig::default()
        });
        let a = fleet.add_tenant("bad", &red1, OnlineConfig::default());
        let b = fleet.add_tenant("good", &red1, OnlineConfig::default());
        let good = simulate(&red1, 6, 11);
        // Malformed input is rejected with typed errors before it can
        // trip an estimator invariant, so the poison pill is an
        // injected panic inside a's 2nd ingest.
        fleet.tenants[a.0].panic_at = Some(2);
        for s in &good.snapshots {
            fleet.enqueue(b, s.clone()).unwrap();
        }
        fleet.enqueue(a, good.snapshots[0].clone()).unwrap();
        fleet.enqueue(a, good.snapshots[3].clone()).unwrap();
        fleet.enqueue(a, good.snapshots[1].clone()).unwrap();
        let events = fleet.poll_events();
        let quarantines: Vec<&FleetEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::TenantQuarantined { .. }))
            .collect();
        assert_eq!(quarantines.len(), 1, "exactly one quarantine event");
        assert_eq!(quarantines[0].tenant, a);
        assert_eq!(quarantines[0].seq, 2, "poison pill was a's 2nd snapshot");
        if let FleetEventKind::TenantQuarantined { message } = &quarantines[0].kind {
            assert!(
                message.contains("injected ingest panic"),
                "panic payload not forwarded: {message}"
            );
        }
        assert!(fleet.stats(a).quarantined);
        assert_eq!(fleet.stats(a).errors, 1);
        // The snapshot behind the poison pill stays queued, not dropped.
        assert_eq!(fleet.stats(a).queued, 1);
        // The healthy tenant was untouched by its neighbour's panic…
        assert!(!fleet.stats(b).quarantined);
        assert_eq!(fleet.stats(b).ingested, 6);
        // …and keeps running.
        fleet.enqueue(b, good.snapshots[0].clone()).unwrap();
        fleet.poll_events();
        assert_eq!(fleet.stats(b).ingested, 7);
        // The quarantined tenant refuses new snapshots loudly.
        assert_eq!(
            fleet.enqueue(a, good.snapshots[2].clone()),
            Err(FleetError::Quarantined(a))
        );
        assert_eq!(
            fleet
                .ingest_batch([(a, good.snapshots[2].clone())])
                .rejections[0]
                .error,
            FleetError::Quarantined(a)
        );
        // Draining again must not touch a's estimator (nothing new
        // ingested despite the queued leftover).
        fleet.poll_events();
        assert_eq!(fleet.stats(a).ingested, 2);
    }

    #[test]
    fn tenants_keep_their_own_pair_budget() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig::default());
        // Each tenant's OnlineConfig sets its budget: a one-row budget
        // bites (the rank floor keeps what Phase 1 needs)…
        let budgeted = fleet.add_tenant(
            "budgeted",
            &red,
            OnlineConfig {
                pair_budget: PairBudget::Rows(1),
                ..OnlineConfig::default()
            },
        );
        // …and a full-budget tenant next to it keeps every pair.
        let full = fleet.add_tenant(
            "full",
            &red,
            OnlineConfig {
                pair_budget: PairBudget::Full,
                ..OnlineConfig::default()
            },
        );
        let sel = fleet
            .estimator(budgeted)
            .pair_selection()
            .expect("a one-row budget must bite");
        assert!(sel.rows.len() < fleet.estimator(full).augmented().num_rows());
        assert!(fleet.estimator(full).pair_selection().is_none());
        // The budgeted tenant still estimates.
        let ms = simulate(&red, 25, 13);
        let report = fleet.ingest_batch(ms.snapshots.iter().cloned().map(|s| (budgeted, s)));
        assert!(report.rejections.is_empty());
        assert!(fleet.estimator(budgeted).variances().is_some());
    }

    #[test]
    fn ingest_batch_partial_drains_preserve_order_and_drop_nothing() {
        let red = fig1();
        // Capacity 2 forces several intermediate drains inside one
        // batch; two workers exercise the sharded path.
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 2,
            workers: Some(2),
        });
        let a = fleet.add_tenant("a", &red, OnlineConfig::default());
        let b = fleet.add_tenant("b", &red, OnlineConfig::default());
        let m = 13;
        let ms_a = simulate(&red, m, 21);
        let ms_b = simulate(&red, m, 22);
        // Uneven interleave (2:1) so the queues fill at different
        // points in the batch.
        let mut batch: Vec<(TenantId, Snapshot)> = Vec::new();
        let mut b_count = 0usize;
        for (i, s) in ms_a.snapshots.iter().enumerate() {
            batch.push((a, s.clone()));
            if i % 2 == 0 {
                batch.push((b, ms_b.snapshots[b_count].clone()));
                b_count += 1;
            }
        }
        let report = fleet.ingest_batch(batch);
        assert!(report.rejections.is_empty());
        let events = report.events;
        // Per-tenant seq must be strictly increasing across the whole
        // event stream even though it spans multiple partial drains.
        let mut last_seq = [0u64; 2];
        for e in &events {
            assert!(
                e.seq > last_seq[e.tenant.index()],
                "per-tenant event order violated for {}: {} after {}",
                e.tenant,
                e.seq,
                last_seq[e.tenant.index()]
            );
            last_seq[e.tenant.index()] = e.seq;
        }
        // No snapshot was silently dropped.
        assert_eq!(fleet.stats(a).ingested, m as u64);
        assert_eq!(fleet.stats(b).ingested, b_count as u64);
        assert_eq!(fleet.stats(a).queued, 0);
        assert_eq!(fleet.stats(b).queued, 0);
        // Each tenant saw exactly the stream it would see standalone.
        let mut solo = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms_a.snapshots {
            solo.ingest(s).unwrap();
        }
        assert_eq!(fleet.estimator(a).congested_links(), solo.congested_links());
    }

    #[test]
    fn malformed_snapshots_are_rejected_at_the_gate() {
        let red = fig1();
        let red2 = fixtures::reduced(&fixtures::figure2());
        let mut fleet = Fleet::new(FleetConfig::default());
        let t = fleet.add_tenant("t", &red, OnlineConfig::default());
        // Wrong path count (a figure-2 snapshot against a figure-1
        // tenant) bounces with a typed error instead of panicking the
        // ingest later.
        let bad = simulate(&red2, 1, 51).snapshots[0].clone();
        assert!(matches!(
            fleet.enqueue(t, bad.clone()),
            Err(FleetError::MalformedSnapshot { tenant, .. }) if tenant == t
        ));
        assert!(matches!(
            fleet.ingest_batch([(t, bad)]).rejections[0].error,
            FleetError::MalformedSnapshot { .. }
        ));
        // Zero probes would make every rate NaN.
        let mut zero = simulate(&red, 1, 52).snapshots[0].clone();
        zero.probes = 0;
        assert!(matches!(
            fleet.enqueue(t, zero),
            Err(FleetError::MalformedSnapshot { .. })
        ));
        // Nothing reached the estimator; the tenant still works.
        assert_eq!(fleet.stats(t).ingested, 0);
        let ms = simulate(&red, 10, 53);
        let report = fleet.ingest_batch(ms.snapshots.iter().cloned().map(|s| (t, s)));
        assert!(report.rejections.is_empty());
        assert_eq!(fleet.stats(t).ingested, 10);
        assert!(!fleet.stats(t).quarantined);
    }

    #[test]
    fn quarantine_revive_rebuilds_bit_identical_to_fresh() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 32,
            ..FleetConfig::default()
        });
        let t = fleet.add_tenant("t", &red, OnlineConfig::default());
        // Reviving a healthy tenant is refused — it would discard warm
        // state.
        assert_eq!(
            fleet.revive_tenant(t).unwrap_err(),
            FleetError::NotQuarantined(t)
        );
        let ms = simulate(&red, 20, 31);
        // Warm the tenant, then poison its 4th ingest.
        fleet.tenants[t.0].panic_at = Some(4);
        for s in &ms.snapshots[..6] {
            fleet.enqueue(t, s.clone()).unwrap();
        }
        fleet.poll_events();
        assert!(fleet.stats(t).quarantined);
        assert_eq!(fleet.stats(t).ingested, 4, "poison pill consumed");
        assert_eq!(fleet.stats(t).queued, 2, "leftovers survive quarantine");
        // Revive: the estimator rebuilds cold from the tenant's own
        // topology and config; counters are retained.
        let ev = fleet.revive_tenant(t).unwrap();
        assert!(matches!(ev.kind, FleetEventKind::TenantRevived));
        assert_eq!(ev.tenant, t);
        assert!(!fleet.stats(t).quarantined);
        assert_eq!(fleet.stats(t).ingested, 4);
        // The queued leftovers drain first, then the rest of the
        // stream flows normally.
        fleet.poll_events();
        for s in &ms.snapshots[6..] {
            fleet.enqueue(t, s.clone()).unwrap();
        }
        fleet.poll_events();
        assert_eq!(fleet.stats(t).ingested, 20);
        // Gate: the revived tenant is bit-identical to a standalone
        // estimator fed the post-revive stream (snapshots 4.. — the
        // pill itself was consumed by the panic).
        let mut fresh = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots[4..] {
            fresh.ingest(s).unwrap();
        }
        assert_eq!(
            fleet.estimator(t).variances().unwrap().v,
            fresh.variances().unwrap().v
        );
        assert_eq!(
            fleet.estimator(t).congested_links(),
            fresh.congested_links()
        );
        assert_eq!(fleet.estimator(t).kept_columns(), fresh.kept_columns());
    }

    #[test]
    fn update_topology_churns_live_tenant_and_emits_events() {
        use losstomo_core::streaming::WindowMode;
        use losstomo_topology::PathId;
        let red = fixtures::reduced(&fixtures::figure2());
        let cfg = OnlineConfig {
            window: WindowMode::Sliding(8),
            ..OnlineConfig::default()
        };
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 32,
            ..FleetConfig::default()
        });
        let t = fleet.add_tenant("t", &red, cfg);
        let ms = simulate(&red, 20, 41);
        let report = fleet.ingest_batch(ms.snapshots.iter().cloned().map(|s| (t, s)));
        assert!(report.rejections.is_empty());
        let nc = red.num_links();
        let delta = TopologyDelta::new().reroute_path(PathId(0), vec![0, nc - 1]);
        let events = fleet.update_topology(t, &delta).unwrap();
        let churned = events.last().expect("churn event always emitted");
        assert_eq!(churned.tenant, t);
        match &churned.kind {
            FleetEventKind::TopologyChurned {
                added,
                removed,
                rerouted,
                snapshots_until_flush,
                rebuilt,
            } => {
                assert_eq!((*added, *removed, *rerouted), (0, 0, 1));
                assert!(snapshots_until_flush.is_some(), "sliding window flushes");
                // A failed post-churn refresh is only legal with a
                // companion error event.
                if *rebuilt {
                    assert!(events
                        .iter()
                        .any(|e| matches!(e.kind, FleetEventKind::EstimatorError { .. })));
                }
            }
            other => panic!("expected TopologyChurned, got {other:?}"),
        }
        // The tenant serves the new topology without having been
        // drained or rebuilt; post-churn snapshots flow normally and
        // the window eventually flushes.
        let mut red2 = red.clone();
        red2.apply_delta(&delta).unwrap();
        let ms2 = simulate(&red2, 12, 42);
        let report = fleet.ingest_batch(ms2.snapshots.iter().cloned().map(|s| (t, s)));
        assert!(report.rejections.is_empty());
        assert!(fleet.estimator(t).covariance().is_churn_free());
        assert!(fleet.estimator(t).variances().is_some());
        assert!(!fleet.stats(t).quarantined);
        // An invalid delta is rejected loudly and changes nothing.
        let err = fleet
            .update_topology(t, &TopologyDelta::new().remove_path(PathId(99)))
            .unwrap_err();
        assert!(matches!(err, FleetError::RejectedDelta { tenant, .. } if tenant == t));
        assert_eq!(fleet.estimator(t).topology().num_paths(), red2.num_paths());
    }

    /// A row queued before a routing change is refused by the drain,
    /// loudly and before the estimator sees it, even when the delta
    /// leaves the path count as it was: it would otherwise be read
    /// under the new path numbering.
    #[test]
    fn rows_queued_across_a_routing_change_are_refused() {
        use losstomo_topology::PathId;
        let red = fixtures::reduced(&fixtures::figure2());
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 16,
            workers: Some(1),
        });
        let t = fleet.add_tenant("t", &red, OnlineConfig::default());
        let ms = simulate(&red, 11, 81);
        let report = fleet.ingest_batch(ms.snapshots[..10].iter().cloned().map(|s| (t, s)));
        assert!(report.rejections.is_empty());
        fleet.enqueue(t, ms.snapshots[10].clone()).unwrap();
        let nc = red.num_links();
        let delta = TopologyDelta::new()
            .remove_path(PathId(0))
            .add_path(vec![0, nc - 1]);
        fleet.update_topology(t, &delta).unwrap();
        assert_eq!(fleet.estimator(t).topology().num_paths(), red.num_paths());
        assert_eq!(fleet.stats(t).errors, 0);
        let events = fleet.poll_events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(matches!(
            events[0].kind,
            FleetEventKind::EstimatorError { .. }
        ));
        assert_eq!(fleet.stats(t).errors, 1);
        assert_eq!(fleet.estimator(t).covariance().total_ingested(), 10);
    }

    #[test]
    fn workers_resolve_against_tenant_count() {
        let red = fig1();
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: 4,
            workers: Some(8),
        });
        assert_eq!(fleet.workers(), 1, "no tenants → one (idle) worker");
        for i in 0..3 {
            fleet.add_tenant(format!("net-{i}"), &red, OnlineConfig::default());
        }
        assert_eq!(fleet.workers(), 3, "workers are capped by tenants");
        assert_eq!(fleet.name(TenantId(2)), "net-2");
    }
}
