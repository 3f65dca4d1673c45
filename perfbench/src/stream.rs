//! The streaming workloads: pre-encoded wire batches →
//! `Fleet::spawn_demux` → tenant queues → `OnlineEstimator` →
//! `FleetEvent`s.
//!
//! An untraced run drives the demux thread in a closed loop and
//! reports the end-to-end metrics, the timing ones over the laps of
//! the measured pass. A traced run replays the same
//! inputs with `WireBatch::parse` and `Fleet::ingest_wire_batch` called
//! inline, times each call from outside, and splits the time inside
//! the drain with the estimator's own refresh timing plus replays of
//! the accumulate and estimate steps. Both runs must emit the same
//! event stream.

use crate::alloc::{self, AllocCount};
use crate::cli::{Args, Workload};
use crate::inputs::{self, Round, StreamInputs, StreamShape, WINDOW};
use crate::procfs::{process_cpu_s, HostTicks};
use crate::report::{self, Outcome};
use crate::stats::{self, Better, Span, Tally};
use bytes::Bytes;
use losstomo_bench::PreparedTopology;
use losstomo_core::streaming::StreamingCovariance;
use losstomo_core::{AugmentedSystem, OnlineConfig, OnlineEstimator, WindowMode};
use losstomo_fleet::{
    DemuxAck, DemuxConfig, DemuxHandle, Fleet, FleetConfig, FleetEvent, FleetEventKind, TenantId,
    WireIngestMode,
};
use losstomo_topology::gen::GeneratedTopology;
use losstomo_wire::WireBatch;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Refreshes the allocation probe replays after its sizing refresh.
const PROBE_REFRESHES: usize = 2;

/// Seed of the churn workload's routing deltas (fixed: the topology
/// sequence is part of the workload, not of `--seed`).
const CHURN_SEED: u64 = 0xC4_0125;

/// Set-ups per untraced run, each a construction and the warm-up that
/// fills every window; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest laps in a measured pass: the first, which flushes the
/// warm-up rows out of the windows, and at least two timed ones.
const MIN_LAPS: usize = 3;

/// A streaming workload: input shape, estimator settings, load.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Input shape.
    pub shape: StreamShape,
    /// Every tenant's estimator settings.
    pub online: OnlineConfig,
    /// Batches in flight in the closed loop.
    pub outstanding: usize,
    /// Rows per tenant in one lap of the measured pass. A lap repeats
    /// the workload's cycle (churn period, refresh cadence, batch
    /// shape); the timing metrics are the faster quartile over the
    /// laps after the first.
    pub lap_rows: usize,
}

impl StreamSpec {
    /// Laps in the measured pass.
    pub fn laps(&self) -> usize {
        self.shape.pass_rows / self.lap_rows
    }
}

/// The workload's topology and settings, with a measured pass of whole
/// laps sized from `seconds` by the workload's nominal rate (rows per
/// second on a 2-vCPU x86-64 host), so that a pass is a fixed amount
/// of work.
pub fn spec(w: Workload, seconds: u32) -> (PreparedTopology, StreamSpec) {
    let pass_rows = |per_s: f64, tenants: usize, lap_rows: usize| {
        let laps = (f64::from(seconds) * per_s / (tenants * lap_rows) as f64).round() as usize;
        laps.max(MIN_LAPS) * lap_rows
    };
    let spec = match w {
        // One tenant, a refresh on every row, routes swapping every 25
        // rows. A lap is one churn cycle over the 100-snapshot pool, so
        // every lap after the first replays the same work; it holds 100
        // latency samples (exactly 10 beyond p90).
        Workload::Churn => StreamSpec {
            shape: StreamShape {
                tenants: 1,
                rows_per_frame: 1,
                warmup_rows: WINDOW,
                pass_rows: pass_rows(33.0, 1, 100),
                pool: 100,
                churn_every: Some(25),
            },
            online: OnlineConfig {
                window: WindowMode::Sliding(WINDOW),
                refresh_every: 1,
                ..OnlineConfig::default()
            },
            outstanding: 1,
            lap_rows: 100,
        },
        Workload::Batch => unreachable!("tree-batch is not a streaming workload"),
    };
    (inputs::paper_tree(), spec)
}

/// One recorded fleet event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    tenant: usize,
    seq: u64,
    kind: EvKind,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    Congestion(Vec<u32>),
    Error(String),
    Quarantined,
    Churned { rebuilt: bool },
    Revived,
}

fn record(e: &FleetEvent) -> Ev {
    let kind = match &e.kind {
        FleetEventKind::CongestionChanged { congested, .. } => {
            EvKind::Congestion(congested.iter().map(|&k| k as u32).collect())
        }
        FleetEventKind::EstimatorError { message } => EvKind::Error(message.clone()),
        FleetEventKind::TenantQuarantined { .. } => EvKind::Quarantined,
        FleetEventKind::TopologyChurned { rebuilt, .. } => EvKind::Churned { rebuilt: *rebuilt },
        FleetEventKind::TenantRevived => EvKind::Revived,
    };
    Ev {
        tenant: e.tenant.index(),
        seq: e.seq,
        kind,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fleet with its tenants registered.
struct Live {
    fleet: Fleet,
    ids: Vec<TenantId>,
}

impl Live {
    /// Topology reduction plus fleet and tenant construction.
    fn build(topo: &GeneratedTopology, spec: &StreamSpec) -> Live {
        let red = inputs::reduce_topology(topo);
        let mut fleet = Fleet::new(FleetConfig {
            // The drain runs on the polling thread.
            workers: Some(1),
            ..FleetConfig::default()
        });
        let ids = (0..spec.shape.tenants)
            .map(|t| fleet.add_tenant(format!("tenant-{t}"), &red, spec.online))
            .collect();
        Live { fleet, ids }
    }

    fn rows_per_round(&self, round: &Round) -> usize {
        round.rows * self.ids.len()
    }
}

/// Where a lap of the measured pass ended: when the polling thread saw
/// every tenant's ingest count cover the lap, with the process CPU time
/// at that moment.
#[derive(Debug, Clone, Copy)]
struct LapEnd {
    at: Instant,
    cpu_s: f64,
}

/// What the closed loop saw.
#[derive(Debug, Default)]
struct Feed {
    events: Vec<Ev>,
    /// Latency of every row, by the lap it belongs to (a single lap
    /// when the rounds are not split into laps).
    latencies_ms: Vec<Vec<f64>>,
    depth_sum: u64,
    depth_polls: u64,
    depth_max: usize,
    /// Rows whose drain emitted an estimator error or quarantine, by
    /// lap.
    row_errors: Vec<u64>,
    /// Rows after whose ingest the tenant still had no model, by lap.
    no_model: Vec<u64>,
    churn_ms: Vec<f64>,
    fallbacks: u64,
    rows_sent: u64,
    lap_ends: Vec<LapEnd>,
}

impl Feed {
    /// Clears the per-pass records, keeping the event stream.
    fn restart(&mut self, laps: usize) {
        self.latencies_ms = vec![Vec::new(); laps];
        self.row_errors = vec![0; laps];
        self.no_model = vec![0; laps];
        self.depth_sum = 0;
        self.depth_polls = 0;
        self.depth_max = 0;
        self.lap_ends.clear();
    }

    fn latencies(&self) -> usize {
        self.latencies_ms.iter().map(Vec::len).sum()
    }

    fn failed(&self) -> u64 {
        self.row_errors.iter().chain(&self.no_model).sum()
    }
}

/// Applies a routing delta to tenant 0 and records its events.
fn apply_churn(
    live: &mut Live,
    delta: &losstomo_topology::TopologyDelta,
    feed: &mut Feed,
) -> Result<(), String> {
    let events = live
        .fleet
        .update_topology(live.ids[0], delta)
        .map_err(|e| format!("update_topology: {e}"))?;
    for e in &events {
        if matches!(
            e.kind,
            FleetEventKind::TopologyChurned { rebuilt: true, .. }
        ) {
            feed.fallbacks += 1;
        }
        feed.events.push(record(e));
    }
    Ok(())
}

/// The closed loop through the demux thread: keep up to `outstanding`
/// batches in flight, poll the fleet (which drains on this thread),
/// and time each row from handing its batch to the demux until this
/// thread sees its tenant's ingest count cover it. The rounds form
/// laps of `lap_rows` rows per tenant, as many as `feed` was restarted
/// with; each row's records go to its lap, and the end of every lap is
/// marked in `feed.lap_ends`.
fn drive_demux(
    live: &mut Live,
    demux: &DemuxHandle,
    rounds: &[Round],
    outstanding: usize,
    lap_rows: usize,
    feed: &mut Feed,
) -> Result<(), String> {
    let tenants = live.ids.len();
    let mut sent: Vec<u64> = live
        .ids
        .iter()
        .map(|&id| live.fleet.stats(id).ingested)
        .collect();
    // Sequence numbers are 1-based: the first row here is `first + 1`.
    let first = sent.clone();
    let laps = feed.latencies_ms.len();
    let lap_of =
        |t: usize, seq: u64| (seq.saturating_sub(first[t] + 1) as usize / lap_rows).min(laps - 1);
    let mut next_lap = 0;
    let mut pending: Vec<VecDeque<(u64, Instant)>> = vec![VecDeque::new(); tenants];
    // Each tenant's ingest count once the batches in flight are
    // covered, oldest first.
    let mut in_flight: VecDeque<Vec<u64>> = VecDeque::new();
    let mut events = Vec::new();
    let mut next = 0;
    loop {
        while in_flight.len() < outstanding && next < rounds.len() {
            let round = &rounds[next];
            if let Some(delta) = &round.delta {
                if !in_flight.is_empty() {
                    break;
                }
                let t = Instant::now();
                apply_churn(live, delta, feed)?;
                feed.churn_ms.push(ms(t.elapsed()));
            }
            let t_send = Instant::now();
            if !demux.send(round.batch.clone()) {
                return Err("the demux thread exited".into());
            }
            for t in 0..tenants {
                for _ in 0..round.rows {
                    sent[t] += 1;
                    pending[t].push_back((sent[t], t_send));
                }
            }
            feed.rows_sent += live.rows_per_round(round) as u64;
            in_flight.push_back(sent.clone());
            next += 1;
        }
        if in_flight.is_empty() {
            return Ok(());
        }
        let depth: usize = live.ids.iter().map(|&id| live.fleet.stats(id).queued).sum();
        if depth > 0 {
            feed.depth_sum += depth as u64;
            feed.depth_polls += 1;
            feed.depth_max = feed.depth_max.max(depth);
        }
        events.clear();
        live.fleet.poll_events_into(&mut events);
        let now = Instant::now();
        for e in &events {
            let ev = record(e);
            if matches!(ev.kind, EvKind::Error(_) | EvKind::Quarantined) {
                feed.row_errors[lap_of(ev.tenant, ev.seq)] += 1;
            }
            feed.events.push(ev);
        }
        let mut progressed = false;
        let mut ingested = Vec::with_capacity(tenants);
        for (t, &id) in live.ids.iter().enumerate() {
            let st = live.fleet.stats(id);
            if st.quarantined {
                return Err(format!("tenant {t} was quarantined"));
            }
            ingested.push(st.ingested);
            let has_model = live.fleet.estimator(id).variances().is_some();
            while let Some(&(target, t_send)) = pending[t].front() {
                if target > st.ingested {
                    break;
                }
                let lap = lap_of(t, target);
                feed.latencies_ms[lap].push(ms(now - t_send));
                feed.no_model[lap] += u64::from(!has_model);
                pending[t].pop_front();
                progressed = true;
            }
        }
        while next_lap < laps
            && (0..tenants).all(|t| ingested[t] >= first[t] + ((next_lap + 1) * lap_rows) as u64)
        {
            feed.lap_ends.push(LapEnd {
                at: now,
                cpu_s: process_cpu_s()?,
            });
            next_lap += 1;
        }
        while let Some(targets) = in_flight.front() {
            if !(0..tenants).all(|t| ingested[t] >= targets[t]) {
                break;
            }
            in_flight.pop_front();
        }
        while let Some(ack) = demux.try_ack() {
            check_ack(&ack)?;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
}

fn check_ack(ack: &DemuxAck) -> Result<(), String> {
    match ack {
        DemuxAck::MalformedBatch { batch, error } => {
            Err(format!("batch {batch} failed to parse: {error}"))
        }
        DemuxAck::Frame {
            batch, rejections, ..
        } if !rejections.is_empty() => Err(format!(
            "batch {batch}: {} rows rejected at the edge: {:?}",
            rejections.len(),
            rejections[0].error
        )),
        DemuxAck::Frame { .. } => Ok(()),
    }
}

/// Finishes the demux thread and checks its accounting: every row
/// sent was accepted, and accepted + rejected = sent.
fn finish_demux(demux: DemuxHandle, sent: u64, out: &mut Outcome) -> String {
    let (stats, acks) = demux.finish();
    for ack in &acks {
        if let Err(e) = check_ack(ack) {
            out.problems.push(e);
        }
    }
    out.check(stats.rows_accepted + stats.rows_rejected == sent, || {
        format!(
            "demux accounting: {} accepted + {} rejected != {sent} sent",
            stats.rows_accepted, stats.rows_rejected
        )
    });
    out.check(
        stats.rows_rejected == 0 && stats.malformed_batches == 0,
        || {
            format!(
                "demux rejected {} rows and {} batches",
                stats.rows_rejected, stats.malformed_batches
            )
        },
    );
    format!(
        "demux: {} batches, {} frames, {} rows accepted, {} rejected, {sent} sent",
        stats.batches, stats.frames, stats.rows_accepted, stats.rows_rejected
    )
}

/// A set-up fleet, ready for the measured pass.
struct Ready {
    live: Live,
    demux: DemuxHandle,
    /// What the warm-up fed.
    feed: Feed,
    /// Every set-up's time in seconds.
    setup_s: Vec<f64>,
    /// Every set-up's heap: what the fleet held once the warm-up had
    /// filled its windows, above the benchmark's own inputs and
    /// records.
    setup_heap_bytes: Vec<f64>,
}

/// Untraced set-up, `reps` times (all but the last torn down): topology
/// reduction, fleet and tenant construction, the demux spawn, and the
/// warm-up that fills every window.
fn setup_untraced(
    prep: &PreparedTopology,
    spec: &StreamSpec,
    inputs: &StreamInputs,
    reps: usize,
    out: &mut Outcome,
) -> Result<Ready, String> {
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_heap_bytes = Vec::with_capacity(reps);
    let mut kept: Option<(Live, DemuxHandle, Feed)> = None;
    for _ in 0..reps {
        if let Some((live, demux, feed)) = kept.take() {
            drop::<Live>(live);
            finish_demux(demux, feed.rows_sent, out);
        }
        let base_bytes = alloc::live_bytes();
        let t0 = Instant::now();
        let mut live = Live::build(&prep.topo, spec);
        let demux = live.fleet.spawn_demux(DemuxConfig::default());
        let mut feed = Feed::default();
        feed.restart(1);
        if let Err(e) = drive_demux(
            &mut live,
            &demux,
            &inputs.warmup,
            spec.outstanding,
            spec.shape.warmup_rows,
            &mut feed,
        ) {
            demux.finish();
            return Err(e);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_heap_bytes.push(alloc::live_bytes().saturating_sub(base_bytes) as f64);
        kept = Some((live, demux, feed));
    }
    let (live, demux, feed) = kept.expect("at least one set-up");
    Ok(Ready {
        live,
        demux,
        feed,
        setup_s,
        setup_heap_bytes,
    })
}

/// Accuracy of every tenant's event stream over the measured pass.
fn score(events: &[Ev], inputs: &StreamInputs, warmup_rows: usize) -> Tally {
    let mut tally = Tally::default();
    for (t, truth) in inputs.truth.iter().enumerate() {
        let stream: Vec<(u64, Vec<u32>)> = events
            .iter()
            .filter(|e| e.tenant == t)
            .filter_map(|e| match &e.kind {
                EvKind::Congestion(set) => Some((e.seq, set.clone())),
                _ => None,
            })
            .collect();
        tally.merge(stats::score_stream(
            &stream,
            warmup_rows as u64 + 1,
            &truth[warmup_rows..],
        ));
    }
    tally
}

/// One lap's figures.
#[derive(Debug, Clone, Copy)]
struct Lap {
    /// Rows with an estimate per second of the lap.
    rows_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    cpu_ms_per_row: f64,
}

/// Result of an untraced pass.
struct Untraced {
    feed: Feed,
    wall: Duration,
    cpu_s: f64,
    steal: f64,
    laps: Vec<Lap>,
}

fn untraced_pass(
    ready: &mut Ready,
    spec: &StreamSpec,
    inputs: &StreamInputs,
) -> Result<Untraced, String> {
    let mut feed = std::mem::take(&mut ready.feed);
    feed.restart(spec.laps());
    let host0 = HostTicks::now()?;
    let cpu0 = process_cpu_s()?;
    let t0 = Instant::now();
    drive_demux(
        &mut ready.live,
        &ready.demux,
        &inputs.pass,
        spec.outstanding,
        spec.lap_rows,
        &mut feed,
    )?;
    let wall = t0.elapsed();
    let cpu_s = process_cpu_s()? - cpu0;
    let steal = HostTicks::now()?.steal_share_since(host0);
    if feed.lap_ends.len() != spec.laps() {
        return Err(format!(
            "{} of {} laps ended",
            feed.lap_ends.len(),
            spec.laps()
        ));
    }
    // Laps partition the pass: each runs from the previous lap's end
    // (the pass start for the first) to its own.
    let rows = (spec.lap_rows * spec.shape.tenants) as f64;
    let mut from = (t0, cpu0);
    let mut laps = Vec::with_capacity(spec.laps());
    for (k, end) in feed.lap_ends.iter().enumerate() {
        let secs = (end.at - from.0).as_secs_f64();
        let failed = (feed.row_errors[k] + feed.no_model[k]) as f64;
        let mut lat = feed.latencies_ms[k].clone();
        laps.push(Lap {
            rows_per_s: (rows - failed).max(0.0) / secs,
            p50_ms: stats::percentile(&mut lat, 50),
            p90_ms: stats::percentile(&mut lat, 90),
            cpu_ms_per_row: (end.cpu_s - from.1) * 1e3 / rows,
        });
        from = (end.at, end.cpu_s);
    }
    Ok(Untraced {
        feed,
        wall,
        cpu_s,
        steal,
        laps,
    })
}

/// The faster quartile over laps of one lap figure.
fn lap_figure(laps: &[Lap], better: Better, f: impl Fn(&Lap) -> f64) -> f64 {
    stats::faster_quartile(&laps.iter().map(f).collect::<Vec<_>>(), better)
}

fn pass_rows(spec: &StreamSpec) -> u64 {
    (spec.shape.tenants * spec.shape.pass_rows) as u64
}

fn describe(w: Workload, spec: &StreamSpec, inputs: &StreamInputs, prep: &PreparedTopology) {
    println!(
        "workload {}: {} paths, {} links, {} tenants, {} warm-up + {} measured rows per tenant, \
         {} rows per frame, {} batches in flight, refresh every {} rows, {} routing deltas",
        w.name(),
        prep.red.num_paths(),
        prep.red.num_links(),
        spec.shape.tenants,
        spec.shape.warmup_rows,
        spec.shape.pass_rows,
        spec.shape.rows_per_frame,
        spec.outstanding,
        spec.online.refresh_every,
        inputs.deltas,
    );
}

/// `--trace 0`: end-to-end metrics from the untraced closed loop.
pub fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (prep, spec) = spec(args.workload, args.seconds);
    let inputs = inputs::stream_inputs(&prep.red, spec.shape, args.seed, CHURN_SEED);
    describe(args.workload, &spec, &inputs, &prep);
    if let Err(e) = end_to_end_inner(prep, &spec, inputs, &mut out) {
        out.problems.push(e);
    }
    out
}

fn end_to_end_inner(
    prep: PreparedTopology,
    spec: &StreamSpec,
    inputs: StreamInputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ready = setup_untraced(&prep, spec, &inputs, SETUP_REPS, out)?;
    let run = match untraced_pass(&mut ready, spec, &inputs) {
        Ok(run) => run,
        Err(e) => {
            ready.demux.finish();
            return Err(e);
        }
    };
    let Ready {
        live,
        demux,
        setup_s,
        setup_heap_bytes,
        ..
    } = ready;
    let demux_note = finish_demux(demux, run.feed.rows_sent, out);

    let attempted = pass_rows(spec);
    let failed = run.feed.failed().min(attempted);
    out.attempted = attempted;
    out.failed = failed;
    out.check(run.feed.latencies() as u64 == attempted, || {
        format!(
            "{} latency samples for {attempted} rows",
            run.feed.latencies()
        )
    });
    let tally = score(&run.feed.events, &inputs, spec.shape.warmup_rows);
    // The first lap flushes the warm-up rows out of the windows; the
    // laps after it repeat the workload's cycle and are timed.
    let laps = &run.laps[1..];
    let throughput = lap_figure(laps, Better::Higher, |l| l.rows_per_s);
    let cpu_ms_per_snapshot = lap_figure(laps, Better::Lower, |l| l.cpu_ms_per_row);
    let per_lap = run.feed.latencies_ms[1].len();

    println!("setup_s samples (construction and warm-up): {setup_s:?}");
    println!("heap after each set-up: {setup_heap_bytes:?} bytes");
    println!(
        "pass: {attempted} rows in {:.3} s wall, {:.3} s CPU, host steal {:.2}%; {} laps of {} \
         rows, the first untimed",
        run.wall.as_secs_f64(),
        run.cpu_s,
        run.steal * 100.0,
        run.laps.len(),
        spec.lap_rows * spec.shape.tenants
    );
    let spread = |name: &str, unit: &str, better: Better, f: &dyn Fn(&Lap) -> f64| {
        let v: Vec<f64> = laps.iter().map(f).collect();
        println!(
            "  {name:<12} faster quartile {:>10.3} {unit:<6} median {:.3}; first lap {:.3}, \
             timed laps {:?}",
            stats::faster_quartile(&v, better),
            stats::median(&v),
            f(&run.laps[0]),
            v.iter()
                .map(|x| (x * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        );
    };
    spread("throughput", "rows/s", Better::Higher, &|l| l.rows_per_s);
    spread("latency p50", "ms", Better::Lower, &|l| l.p50_ms);
    spread("latency p90", "ms", Better::Lower, &|l| l.p90_ms);
    spread("CPU per row", "ms", Better::Lower, &|l| l.cpu_ms_per_row);
    println!(
        "latency: {per_lap} samples per lap ({} beyond p90; highest supported percentile p{}), \
         {} in the pass",
        stats::samples_beyond(per_lap, 90),
        stats::highest_supported(per_lap).map_or("-".into(), |p| p.to_string()),
        run.feed.latencies()
    );
    println!("{demux_note}");
    if !run.feed.churn_ms.is_empty() {
        println!(
            "churn: {} deltas applied, {:?} ms, {} fallbacks",
            run.feed.churn_ms.len(),
            run.feed
                .churn_ms
                .iter()
                .map(|v| v.round())
                .collect::<Vec<_>>(),
            run.feed.fallbacks
        );
    }
    println!(
        "accuracy: {} hits of {} congested, {} flagged: detection rate {:.4}, false positive \
         rate {:.4}",
        tally.hits,
        tally.truth,
        tally.flagged,
        tally.detection_rate(),
        tally.false_positive_rate()
    );

    out.set("throughput_snapshots_per_s", throughput);
    out.set(
        "latency_p50_ms",
        lap_figure(laps, Better::Lower, |l| l.p50_ms),
    );
    out.set(
        "latency_p90_ms",
        lap_figure(laps, Better::Lower, |l| l.p90_ms),
    );
    out.set("cpu_ms_per_snapshot", cpu_ms_per_snapshot);
    out.set("throughput_experiments_per_s", throughput / WINDOW as f64);
    out.set("cpu_ms_per_experiment", cpu_ms_per_snapshot * WINDOW as f64);
    out.set("setup_s", stats::median(&setup_s));
    out.set("heap_mb", stats::median(&setup_heap_bytes) / 1e6);
    out.set("ok_frac", (attempted - failed) as f64 / attempted as f64);
    out.set("detection_rate", tally.detection_rate());
    out.set("precision", 1.0 - tally.false_positive_rate());
    // Each tenant's event stream ends at its estimator's congested set.
    for (t, &id) in live.ids.iter().enumerate() {
        let last = run.feed.events.iter().rev().find_map(|e| match &e.kind {
            EvKind::Congestion(set) if e.tenant == t => Some(set.as_slice()),
            _ => None,
        });
        let now: Vec<u32> = live
            .fleet
            .estimator(id)
            .congested_links()
            .iter()
            .map(|&k| k as u32)
            .collect();
        out.check(last.unwrap_or(&[]) == now.as_slice(), || {
            format!("tenant {t}: the event stream ends at {last:?}, the estimator at {now:?}")
        });
    }
    drop((inputs, run, prep));
    println!(
        "heap at the end of the pass, without the benchmark's inputs: {:.3} MB",
        alloc::live_bytes() as f64 / 1e6
    );
    drop(live);
    Ok(())
}

/// Everything the traced pass measured.
#[derive(Debug, Default)]
struct Traced {
    spans: Vec<Span>,
    wall: Duration,
    events: Vec<Ev>,
    parse_us: Vec<f64>,
    accumulate_us: Vec<f64>,
    estimate_us: Vec<f64>,
    refresh_ms: Vec<f64>,
    covariance_ms: Vec<f64>,
    phase1_ms: Vec<f64>,
    phase2_ms: Vec<f64>,
    kept_changes: u64,
    stale_refresh_ms: Vec<f64>,
    churn_ms: Vec<f64>,
    warming_pairs: Vec<f64>,
    fallbacks: u64,
    warmup_failures: u64,
    ingest_allocs: AllocCount,
    row_errors: u64,
    no_model: u64,
    congestion_events: u64,
    bytes: u64,
    /// Refreshes whose phase split was not readable (more than one in
    /// an ingest call).
    unsplit_refreshes: u64,
    /// Allocations of each probe refresh.
    refresh_allocs: Vec<AllocCount>,
    build_ms: f64,
}

/// Per-tenant replay probes of the traced pass.
struct Probe {
    /// Two accumulators fed the tenant's rows with the tenant's pair
    /// set; each row's accumulate step is timed on both.
    cov: [StreamingCovariance; 2],
    /// The tenant's most recent rows (since its last routing change):
    /// a window plus what the refresh-allocation probe replays.
    recent: VecDeque<Bytes>,
    cap: usize,
    /// Kept column set after the previous refresh.
    kept: Vec<usize>,
    scratch: Vec<f64>,
}

impl Probe {
    fn new(est: &OnlineEstimator, online: &OnlineConfig) -> Probe {
        let cov = || {
            StreamingCovariance::new(
                est.topology().num_paths(),
                est.augmented().pair_indices(),
                online.window,
            )
            .with_recentre_every(online.recentre_every)
        };
        Probe {
            cov: [cov(), cov()],
            recent: VecDeque::new(),
            cap: WINDOW + PROBE_REFRESHES * online.refresh_every,
            kept: est.kept_columns().to_vec(),
            scratch: Vec::new(),
        }
    }

    /// Feeds `row` to both accumulators, untimed.
    fn accumulate(&mut self, row: &Bytes) {
        for cov in &mut self.cov {
            cov.ingest_wire(row);
        }
    }

    /// Keeps `row` among the tenant's recent rows.
    fn remember(&mut self, row: Bytes) {
        self.recent.push_back(row);
        if self.recent.len() > self.cap {
            self.recent.pop_front();
        }
    }
}

/// Records the refresh a tenant ran inside the span `parent`, if its
/// refresh count moved, as child spans of the covariance, Phase-1 and
/// Phase-2 layers.
fn record_refresh(
    est: &OnlineEstimator,
    before: u64,
    parent: usize,
    start_ns: u64,
    probe: &mut Probe,
    tr: &mut Traced,
) {
    let refreshes = est.refresh_count() - before;
    if refreshes == 0 {
        return;
    }
    // Only the last refresh's timing is readable.
    tr.unsplit_refreshes += refreshes - 1;
    let timing = est
        .last_refresh_timing()
        .expect("a refresh that succeeded records its timing");
    for (layer, d) in [
        ("covariance", timing.covariance),
        ("variance", timing.phase1),
        ("lia", timing.phase2),
    ] {
        tr.spans.push(Span {
            layer,
            parent: Some(parent),
            track: 0,
            start_ns,
            dur_ns: d.as_nanos() as u64,
        });
    }
    let total = ms(timing.covariance + timing.phase1 + timing.phase2);
    tr.refresh_ms.push(total);
    tr.covariance_ms.push(ms(timing.covariance));
    tr.phase1_ms.push(ms(timing.phase1));
    tr.phase2_ms.push(ms(timing.phase2));
    if est.kept_columns() != probe.kept.as_slice() {
        tr.kept_changes += 1;
        probe.kept = est.kept_columns().to_vec();
    }
    if est.staleness().stale_rows > 0 {
        tr.stale_refresh_ms.push(total);
    }
}

/// The traced replay: a fresh fleet, warmed inline, then the measured
/// pass with every call into the library timed from outside.
fn traced_pass(
    prep: &PreparedTopology,
    spec: &StreamSpec,
    inputs: &StreamInputs,
) -> Result<Traced, String> {
    let mut tr = Traced::default();
    let t = Instant::now();
    std::hint::black_box(AugmentedSystem::build(&prep.red));
    tr.build_ms = ms(t.elapsed());

    let mut live = Live::build(&prep.topo, spec);
    for round in &inputs.warmup {
        let batch = WireBatch::parse(round.batch.clone()).map_err(|e| e.to_string())?;
        let report = live
            .fleet
            .ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        tr.events.extend(report.events.iter().map(record));
    }
    let mut probes: Vec<Probe> = live
        .ids
        .iter()
        .map(|&id| Probe::new(live.fleet.estimator(id), &spec.online))
        .collect();
    for round in &inputs.warmup {
        let batch = WireBatch::parse(round.batch.clone()).map_err(|e| e.to_string())?;
        for frame in batch.frames() {
            let p = &mut probes[frame.tenant() as usize];
            for r in 0..frame.row_count() {
                let row = frame.row_bytes(r);
                p.accumulate(&row);
                p.remember(row);
            }
        }
    }

    let start = Instant::now();
    let ns = |t: Instant| (t - start).as_nanos() as u64;
    for round in &inputs.pass {
        if let Some(delta) = &round.delta {
            let id = live.ids[0];
            let before = live.fleet.estimator(id).refresh_count();
            let t0 = Instant::now();
            let events = live
                .fleet
                .update_topology(id, delta)
                .map_err(|e| format!("update_topology: {e}"))?;
            let t1 = Instant::now();
            let span = tr.spans.len();
            tr.spans.push(Span {
                layer: "churn",
                parent: None,
                track: 0,
                start_ns: ns(t0),
                dur_ns: (t1 - t0).as_nanos() as u64,
            });
            tr.churn_ms.push(ms(t1 - t0));
            for e in &events {
                if matches!(
                    e.kind,
                    FleetEventKind::TopologyChurned { rebuilt: true, .. }
                ) {
                    tr.fallbacks += 1;
                }
                tr.events.push(record(e));
            }
            let est = live.fleet.estimator(id);
            record_refresh(est, before, span, ns(t0), &mut probes[0], &mut tr);
            tr.warming_pairs.push(est.staleness().warming_pairs as f64);
            // The accumulate probe follows the new pair set; refill
            // its window so evictions keep their cost. Its list of
            // recent rows restarts: only rows routed by the current
            // topology feed the refresh probe.
            let t2 = Instant::now();
            let old = std::mem::replace(&mut probes[0], Probe::new(est, &spec.online));
            for row in &old.recent {
                probes[0].accumulate(row);
            }
            tr.spans.push(Span {
                layer: "trace",
                parent: None,
                track: 0,
                start_ns: ns(t2),
                dur_ns: t2.elapsed().as_nanos() as u64,
            });
        }

        let t0 = Instant::now();
        let batch = WireBatch::parse(round.batch.clone()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tr.spans.push(Span {
            layer: "wire",
            parent: None,
            track: 0,
            start_ns: ns(t0),
            dur_ns: (t1 - t0).as_nanos() as u64,
        });
        tr.parse_us.push(us(t1 - t0));
        tr.bytes += round.batch.len() as u64;

        let before: Vec<u64> = live
            .ids
            .iter()
            .map(|&id| live.fleet.estimator(id).refresh_count())
            .collect();
        let a0 = AllocCount::now();
        let t2 = Instant::now();
        let report = live
            .fleet
            .ingest_wire_batch(&batch, WireIngestMode::ZeroCopy);
        let t3 = Instant::now();
        let allocs = AllocCount::now().since(a0);
        tr.ingest_allocs.allocs += allocs.allocs;
        tr.ingest_allocs.bytes += allocs.bytes;
        let ingest = tr.spans.len();
        tr.spans.push(Span {
            layer: "fleet",
            parent: None,
            track: 0,
            start_ns: ns(t2),
            dur_ns: (t3 - t2).as_nanos() as u64,
        });
        let rows = live.rows_per_round(round);
        if report.accepted != rows || !report.rejections.is_empty() {
            return Err(format!(
                "ingest_wire_batch accepted {} of {rows} rows: {:?}",
                report.accepted,
                report.rejections.first()
            ));
        }
        for e in &report.events {
            let ev = record(e);
            match ev.kind {
                EvKind::Error(_) | EvKind::Quarantined => tr.row_errors += 1,
                EvKind::Congestion(_) => tr.congestion_events += 1,
                _ => {}
            }
            tr.events.push(ev);
        }
        for (t, &id) in live.ids.iter().enumerate() {
            let est = live.fleet.estimator(id);
            record_refresh(est, before[t], ingest, ns(t2), &mut probes[t], &mut tr);
            if est.variances().is_none() {
                tr.no_model += round.rows as u64;
            }
            if est.warmup_error().is_some() {
                tr.warmup_failures += 1;
            }
        }

        // Replays standing for the accumulate and estimate steps
        // inside the drain; their own cost is tracing overhead. Each
        // step runs twice and the faster run is kept, so that a host
        // steal burst during one replay does not land in the split.
        // The estimate is timed warm: inside the drain it follows the
        // tenant's refresh or previous estimate, with the Phase-2
        // factor in cache, so a first, untimed call reads the factor
        // back in (cold, it took twice as long on the tree).
        let t4 = Instant::now();
        for frame in batch.frames() {
            let t = frame.tenant() as usize;
            let est = live.fleet.estimator(live.ids[t]);
            let p = &mut probes[t];
            for r in 0..frame.row_count() {
                let row = frame.row_bytes(r);
                let [a, b] = &mut p.cov;
                let accumulate = fastest(|| a.ingest_wire(&row), || b.ingest_wire(&row));
                frame.row(r).copy_into(&mut p.scratch);
                let first = est.estimate(&p.scratch);
                std::hint::black_box(&first);
                let once = || std::hint::black_box(est.estimate(&p.scratch));
                let estimate = fastest(once, once);
                for (layer, (t0, d)) in [
                    ("streaming.accumulate", accumulate),
                    ("streaming.estimate", estimate),
                ] {
                    tr.spans.push(Span {
                        layer,
                        parent: Some(ingest),
                        track: 0,
                        start_ns: ns(t0),
                        dur_ns: d.as_nanos() as u64,
                    });
                }
                tr.accumulate_us.push(us(accumulate.1));
                if first.is_ok() {
                    tr.estimate_us.push(us(estimate.1));
                }
                p.remember(row);
            }
        }
        tr.spans.push(Span {
            layer: "trace",
            parent: None,
            track: 0,
            start_ns: ns(t4),
            dur_ns: t4.elapsed().as_nanos() as u64,
        });
    }
    tr.wall = start.elapsed();

    tr.refresh_allocs = refresh_alloc_probe(&live, spec, &probes[0].recent)?;
    Ok(tr)
}

/// Runs `a` then `b` and returns the start and duration of the faster.
fn fastest<A, B>(a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (Instant, Duration) {
    let t0 = Instant::now();
    std::hint::black_box(a());
    let t1 = Instant::now();
    std::hint::black_box(b());
    let t2 = Instant::now();
    if t1 - t0 <= t2 - t1 {
        (t0, t1 - t0)
    } else {
        (t1, t2 - t1)
    }
}

/// Allocations per refresh, from tenant 0 rebuilt standalone with
/// manual refresh: its recent rows are replayed at the tenant's own
/// cadence after a first refresh has sized the workspace, and each
/// later `refresh` call is counted on its own (the allocation counter
/// cannot separate a refresh from the rest of a fleet ingest).
fn refresh_alloc_probe(
    live: &Live,
    spec: &StreamSpec,
    recent: &VecDeque<Bytes>,
) -> Result<Vec<AllocCount>, String> {
    let est = live.fleet.estimator(live.ids[0]);
    let mut cfg = *est.config();
    cfg.refresh_every = usize::MAX;
    let mut solo = OnlineEstimator::new(est.topology(), cfg);
    let every = spec.online.refresh_every;
    let replayed = recent.len().saturating_sub(2).min(PROBE_REFRESHES * every);
    let rows: Vec<&Bytes> = recent.iter().collect();
    let (warm, replay) = rows.split_at(rows.len() - replayed);
    for row in warm {
        solo.ingest_wire_row(row)
            .map_err(|e| format!("refresh probe: {e}"))?;
    }
    solo.refresh().map_err(|e| format!("refresh probe: {e}"))?;
    let mut counts = Vec::new();
    for (i, row) in replay.iter().enumerate() {
        solo.ingest_wire_row(row)
            .map_err(|e| format!("refresh probe: {e}"))?;
        if (i + 1) % every == 0 {
            let a0 = AllocCount::now();
            solo.refresh().map_err(|e| format!("refresh probe: {e}"))?;
            counts.push(AllocCount::now().since(a0));
        }
    }
    Ok(counts)
}

/// `--trace 1`: per-layer metrics from the traced replay, with an
/// untraced pass over the same inputs as the reference for the event
/// stream and the tracing overhead.
pub fn per_layer(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (prep, spec) = spec(args.workload, args.seconds);
    let inputs = inputs::stream_inputs(&prep.red, spec.shape, args.seed, CHURN_SEED);
    describe(args.workload, &spec, &inputs, &prep);
    if let Err(e) = per_layer_inner(&prep, &spec, &inputs, &mut out) {
        out.problems.push(e);
    }
    out
}

fn per_layer_inner(
    prep: &PreparedTopology,
    spec: &StreamSpec,
    inputs: &StreamInputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ready = setup_untraced(prep, spec, inputs, 1, out)?;
    let reference = match untraced_pass(&mut ready, spec, inputs) {
        Ok(run) => run,
        Err(e) => {
            ready.demux.finish();
            return Err(e);
        }
    };
    let demux_note = finish_demux(ready.demux, reference.feed.rows_sent, out);
    drop(ready.live);
    let tr = traced_pass(prep, spec, inputs)?;

    let rows = pass_rows(spec);
    out.attempted = rows;
    out.failed = (tr.row_errors + tr.no_model).min(rows);
    let mut untraced_events = reference.feed.events.clone();
    let mut traced_events = tr.events.clone();
    untraced_events.sort();
    traced_events.sort();
    out.check(untraced_events == traced_events, || {
        let first = untraced_events
            .iter()
            .zip(&traced_events)
            .position(|(a, b)| a != b)
            .unwrap_or(untraced_events.len().min(traced_events.len()));
        format!(
            "traced and untraced event streams differ ({} vs {} events; first difference at {first})",
            untraced_events.len(),
            traced_events.len()
        )
    });
    let tally_u = score(&reference.feed.events, inputs, spec.shape.warmup_rows);
    let tally_t = score(&tr.events, inputs, spec.shape.warmup_rows);
    out.check(tally_u == tally_t, || {
        format!("accuracy differs: untraced {tally_u:?}, traced {tally_t:?}")
    });

    out.check(tr.unsplit_refreshes == 0, || {
        format!(
            "{} refreshes ran in an ingest call with another one; their phases are unsplit",
            tr.unsplit_refreshes
        )
    });
    println!("{demux_note}");
    println!(
        "traced pass {:.3} s vs untraced {:.3} s ({rows} rows); self time by layer:",
        tr.wall.as_secs_f64(),
        reference.wall.as_secs_f64(),
    );
    let (by_layer, unaccounted_frac) = report::layer_split(
        &tr.spans,
        &[tr.wall.as_nanos() as u64],
        (rows as f64, "us/snapshot", 1e3),
        out,
    );
    let overhead = tr.wall.as_secs_f64() / reference.wall.as_secs_f64() - 1.0;
    println!(
        "samples: {} parses, {} accumulate, {} estimate, {} refreshes ({} beyond p90), \
         {} churn applies, {} probe refreshes",
        tr.parse_us.len(),
        tr.accumulate_us.len(),
        tr.estimate_us.len(),
        tr.refresh_ms.len(),
        if tr.refresh_ms.is_empty() {
            0
        } else {
            stats::samples_beyond(tr.refresh_ms.len(), 90)
        },
        tr.churn_ms.len(),
        tr.refresh_allocs.len()
    );

    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let p90 = |v: &[f64]| {
        let mut v = v.to_vec();
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&mut v, 90)
        }
    };
    let layer_us = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64 / 1e3;
    let r = rows as f64;
    let feed = &reference.feed;
    let mean_depth = if feed.depth_polls == 0 {
        0.0
    } else {
        feed.depth_sum as f64 / feed.depth_polls as f64
    };
    out.set("wire.parse_us", p50(&tr.parse_us));
    out.set("wire.bytes_per_snapshot", tr.bytes as f64 / r);
    out.set("fleet.self_us_per_snapshot", layer_us("fleet") / r);
    out.set("fleet.queue_depth_max", feed.depth_max as f64);
    out.set(
        "fleet.queue_wait_ms",
        stats::littles_law_wait_ms(mean_depth, r / reference.wall.as_secs_f64()),
    );
    out.set("fleet.event_frac", tr.congestion_events as f64 / r);
    out.set(
        "fleet.allocs_per_snapshot",
        tr.ingest_allocs.allocs as f64 / r,
    );
    out.set(
        "fleet.alloc_kb_per_snapshot",
        tr.ingest_allocs.bytes as f64 / 1e3 / r,
    );
    out.set("streaming.accumulate_us", p50(&tr.accumulate_us));
    out.set("streaming.estimate_us", p50(&tr.estimate_us));
    out.set("streaming.refresh_ms", p50(&tr.refresh_ms));
    out.set("streaming.refresh_p90_ms", p90(&tr.refresh_ms));
    out.set(
        "streaming.refreshes_per_snapshot",
        tr.refresh_ms.len() as f64 / r,
    );
    out.set("streaming.warmup_failures", tr.warmup_failures as f64);
    let probe_allocs: Vec<f64> = tr.refresh_allocs.iter().map(|a| a.allocs as f64).collect();
    let probe_kb: Vec<f64> = tr
        .refresh_allocs
        .iter()
        .map(|a| a.bytes as f64 / 1e3)
        .collect();
    out.set("streaming.allocs_per_refresh", p50(&probe_allocs));
    out.set("streaming.alloc_kb_per_refresh", p50(&probe_kb));
    out.set("covariance.ms", p50(&tr.covariance_ms));
    out.set("variance.ms", p50(&tr.phase1_ms));
    out.set("lia.ms", p50(&tr.phase2_ms));
    out.set("lia.p90_ms", p90(&tr.phase2_ms));
    out.set(
        "lia.kept_change_frac",
        if tr.refresh_ms.is_empty() {
            0.0
        } else {
            tr.kept_changes as f64 / tr.refresh_ms.len() as f64
        },
    );
    out.set("churn.apply_ms", p50(&tr.churn_ms));
    out.set("churn.stale_refresh_ms", p50(&tr.stale_refresh_ms));
    out.set("churn.warming_pairs", p50(&tr.warming_pairs));
    out.set("churn.fallbacks", tr.fallbacks as f64);
    out.set("netsim.simulate_ms", stats::median(&inputs.simulate_ms));
    out.set("augmented.build_ms", tr.build_ms);
    out.set("trace.unaccounted_frac", unaccounted_frac);
    out.set("trace.overhead_frac", overhead);
    Ok(())
}
