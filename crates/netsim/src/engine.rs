//! The packet-level probe engine.
//!
//! Reproduces the simulation methodology of Section 6: per snapshot, each
//! link is given a loss rate by the LLRD model according to its
//! congestion status, losses are realised by a per-link Gilbert (or
//! Bernoulli) process, and `S` periodic probes are sent down every path.
//! "When a packet on path `P_i` arrives at link `e_k` the link state is
//! decided according to the state transition probabilities" — so each
//! link's chain advances once per *arriving* packet, and a packet dropped
//! upstream never reaches (nor advances) downstream links.
//!
//! Probe rounds interleave paths round-robin, modelling beacons that
//! probe all destinations concurrently with constant inter-arrival times
//! (Section 7.1). All paths therefore sample a shared link's loss process
//! in the same period, which is what makes Assumption S.1 (identical
//! sampled rates) a good approximation.
//!
//! Under the default [`ChainAdvance::PerRound`] the engine is
//! bit-sliced: each link's chain runs once per round, in round-major,
//! link-minor order, into a bitmask of `S` bits (bit `s` set iff round
//! `s` survives the link); each path is then walked once, ANDing its
//! links' masks into the set of rounds still in flight 64 rounds per
//! word, and popcounts give each link's arrivals and drops and the
//! path's deliveries. The counts and the RNG stream are exactly those
//! of walking every path link by link in every round.

use crate::flowlet::FlowletProcess;
use crate::loss::{AnyLossProcess, BernoulliProcess, GilbertProcess, LossProcess, LossProcessKind};
use crate::models::LossModel;
use crate::scenario::CongestionScenario;
use crate::snapshot::{LinkTruth, MeasurementSet, Snapshot};
use losstomo_topology::ReducedTopology;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// When a link's loss chain transitions.
///
/// The paper's Assumption S.1 states that all paths crossing a link in
/// the same slot sample the *same* loss fraction (`φ̂_{i,e_k} = φ̂_{e_k}`
/// almost surely). That models loss bursts that live in wall-clock time:
/// every packet that hits the link while it is congested is dropped,
/// regardless of which flow it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ChainAdvance {
    /// The chain advances once per probe *round* (≈ the 10 ms
    /// inter-probe interval of Section 7.1); every packet of that round
    /// sees the same link state. Makes Assumption S.1 exact — default.
    #[default]
    PerRound,
    /// The chain advances on every packet *arrival* (the literal reading
    /// of Section 6's "when a packet on path P_i arrives at link e_k the
    /// link state is decided"). Paths then sample nearly independent
    /// loss events, so S.1 holds only through the law of large numbers.
    /// Kept for the `ablation_chain_advance` study.
    PerArrival,
}

/// Probe-engine configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Probes per path per snapshot (the paper's `S`, default 1000).
    pub probes_per_snapshot: u32,
    /// Loss-rate assignment model (default LLRD1).
    pub loss_model: LossModel,
    /// Loss process family (default Gilbert).
    pub process: LossProcessKind,
    /// Chain-advance semantics (default per-round; see [`ChainAdvance`]).
    pub advance: ChainAdvance,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            probes_per_snapshot: 1000,
            loss_model: LossModel::Llrd1,
            process: LossProcessKind::Gilbert,
            advance: ChainAdvance::PerRound,
        }
    }
}

/// Simulates one snapshot on the reduced topology.
///
/// The scenario supplies each link's congestion status; this function
/// draws the per-snapshot loss rates, runs the probes, and returns both
/// the end-to-end measurements and the per-link ground truth.
///
/// # Panics
/// Panics if `scenario` does not track exactly `red.num_links()` links,
/// or if `cfg.probes_per_snapshot` is 0 (a snapshot without probes has
/// no transmission rate to measure).
pub fn simulate_snapshot<R: Rng>(
    red: &ReducedTopology,
    scenario: &CongestionScenario,
    cfg: &ProbeConfig,
    rng: &mut R,
) -> Snapshot {
    check_inputs(red, scenario, cfg);
    // Per-snapshot loss rates, one draw per link in link order.
    let mut truth: Vec<LinkTruth> = (0..red.num_links())
        .map(|k| {
            let congested = scenario.is_congested(k);
            let assigned_loss_rate = if congested {
                cfg.loss_model.draw_congested(rng)
            } else {
                cfg.loss_model.draw_good(rng)
            };
            LinkTruth {
                assigned_loss_rate,
                congested,
                arrivals: 0,
                drops: 0,
            }
        })
        .collect();

    let probes = cfg.probes_per_snapshot;
    let mut path_received = vec![0u32; red.num_paths()];
    // Each row of the shared `RoutingMatrix` lists the links one path
    // crosses, in the order the walks below visit them.
    let routing = &red.matrix;
    match cfg.advance {
        ChainAdvance::PerRound => {
            // One transition per link per round; every packet of the
            // round observes the same state, so all paths through a link
            // sample identical loss fractions (Assumption S.1, exact).
            let survival = match cfg.process {
                LossProcessKind::Gilbert => {
                    survival_masks(&truth, GilbertProcess::from_loss_rate, probes, rng)
                }
                LossProcessKind::Bernoulli => {
                    survival_masks(&truth, BernoulliProcess::from_loss_rate, probes, rng)
                }
                LossProcessKind::Flowlet => {
                    survival_masks(&truth, FlowletProcess::from_loss_rate, probes, rng)
                }
            };
            let words = probes.div_ceil(64) as usize;
            let mut alive = vec![0u64; words];
            for (links, received) in routing.iter().zip(path_received.iter_mut()) {
                // `alive` holds the rounds whose probe is still in
                // flight; `count` is how many. A link sees every one of
                // them arrive and drops those in its bad rounds, which
                // never reach (nor are counted by) downstream links.
                // Bits past the last round start set but are clear in
                // every mask, so the first link clears them.
                alive.fill(u64::MAX);
                let mut count = u64::from(probes);
                for &k in links {
                    let good = &survival[k * words..(k + 1) * words];
                    let mut survivors = 0u64;
                    for (a, &g) in alive.iter_mut().zip(good) {
                        *a &= g;
                        survivors += u64::from(a.count_ones());
                    }
                    truth[k].arrivals += count;
                    truth[k].drops += count - survivors;
                    count = survivors;
                }
                *received = count as u32;
            }
        }
        ChainAdvance::PerArrival => {
            // Round-robin probe rounds: round s sends the s-th probe of
            // every path back-to-back; the chain transitions on every
            // arrival, so which draws happen depends on which packets
            // get through, and the walk goes packet by packet.
            let mut processes: Vec<AnyLossProcess> = truth
                .iter()
                .map(|t| AnyLossProcess::new(cfg.process, t.assigned_loss_rate))
                .collect();
            for _round in 0..probes {
                for (links, received) in routing.iter().zip(path_received.iter_mut()) {
                    let mut survived = true;
                    for &k in links {
                        truth[k].arrivals += 1;
                        if !processes[k].packet_survives(rng) {
                            truth[k].drops += 1;
                            survived = false;
                            break; // dropped packets never reach downstream
                        }
                    }
                    if survived {
                        *received += 1;
                    }
                }
            }
        }
    }

    Snapshot {
        probes,
        path_received,
        link_truth: truth,
    }
}

/// Runs every link's loss process for `probes` rounds and returns the
/// survival bitmask: link `k`'s rounds are the `⌈probes/64⌉` words
/// starting at `k · ⌈probes/64⌉`, and bit `s` is set iff round `s`
/// survives the link.
///
/// Draws are round-major and link-minor, one `packet_survives` per link
/// per round: the order the round-by-round engine made them in.
///
/// Never inlined: this loop is most of an experiment's time, and it is
/// compiled in whichever crate names the RNG type. Inlined into its
/// caller, its machine code depended on how that crate splits into
/// codegen units, and edits elsewhere in `losstomo-core` swung
/// `run_experiment`'s cost per simulated snapshot between 1.5 and
/// 1.95 ms (2-vCPU x86-64 host).
#[inline(never)]
fn survival_masks<P: LossProcess, R: Rng>(
    truth: &[LinkTruth],
    process: impl Fn(f64) -> P,
    probes: u32,
    rng: &mut R,
) -> Vec<u64> {
    let mut processes: Vec<P> = truth
        .iter()
        .map(|t| process(t.assigned_loss_rate))
        .collect();
    let words = probes.div_ceil(64) as usize;
    let mut masks = vec![0u64; processes.len() * words];
    // Each link's word in progress, stored every 64 rounds.
    let mut current = vec![0u64; processes.len()];
    for round in 0..probes as usize {
        let bit = round % 64;
        for (word, p) in current.iter_mut().zip(processes.iter_mut()) {
            *word |= u64::from(p.packet_survives(rng)) << bit;
        }
        if bit == 63 || round + 1 == probes as usize {
            let w = round / 64;
            for (k, word) in current.iter_mut().enumerate() {
                masks[k * words + w] = std::mem::take(word);
            }
        }
    }
    masks
}

/// The entry checks shared by [`simulate_snapshot`] and
/// [`simulate_stream`].
fn check_inputs(red: &ReducedTopology, scenario: &CongestionScenario, cfg: &ProbeConfig) {
    assert_eq!(
        scenario.len(),
        red.num_links(),
        "scenario tracks {} links but topology has {}",
        scenario.len(),
        red.num_links()
    );
    assert!(
        cfg.probes_per_snapshot >= 1,
        "probes_per_snapshot is 0 but a snapshot needs at least 1 probe per path"
    );
}

/// Simulates a run of `n_snapshots` consecutive snapshots, advancing the
/// congestion scenario between them. Returns the measurements; the final
/// scenario state remains in `scenario`.
pub fn simulate_run<R: Rng>(
    red: &ReducedTopology,
    scenario: &mut CongestionScenario,
    cfg: &ProbeConfig,
    n_snapshots: usize,
    rng: &mut R,
) -> MeasurementSet {
    let mut snapshots = Vec::with_capacity(n_snapshots);
    for t in 0..n_snapshots {
        if t > 0 {
            scenario.advance(rng);
        }
        snapshots.push(simulate_snapshot(red, scenario, cfg, rng));
    }
    MeasurementSet { snapshots }
}

/// An iterator of consecutive snapshots over one evolving congestion
/// scenario — the streaming counterpart of [`simulate_run`].
///
/// Snapshots are produced lazily, one `next()` at a time, so the
/// measurement side never materialises the full measurement matrix:
/// each snapshot can be ingested (e.g. by
/// `losstomo_core::streaming::OnlineEstimator`, whose own retention is
/// governed by its window mode) and dropped. The RNG
/// stream is identical to [`simulate_run`]'s — taking the first `m`
/// items of [`simulate_stream`] yields bit-identical snapshots to a
/// batch run of `m` snapshots from the same seed.
#[derive(Debug)]
pub struct SnapshotStream<'a, R: Rng> {
    red: &'a ReducedTopology,
    scenario: CongestionScenario,
    cfg: ProbeConfig,
    rng: R,
    produced: usize,
}

impl<'a, R: Rng> SnapshotStream<'a, R> {
    /// Number of snapshots produced so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// The current congestion state (after the last produced snapshot).
    pub fn scenario(&self) -> &CongestionScenario {
        &self.scenario
    }
}

impl<'a, R: Rng> Iterator for SnapshotStream<'a, R> {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.produced > 0 {
            self.scenario.advance(&mut self.rng);
        }
        self.produced += 1;
        Some(simulate_snapshot(
            self.red,
            &self.scenario,
            &self.cfg,
            &mut self.rng,
        ))
    }
}

/// Creates an unbounded snapshot stream over `red`, consuming the
/// scenario and RNG.
///
/// The stream is infinite — bound it with [`Iterator::take`] or drive
/// it from a monitoring loop. `simulate_stream(...).take(m).collect()`
/// into a [`MeasurementSet`] is bit-identical to
/// [`simulate_run`] with `m` snapshots from the same starting state.
///
/// # Panics
/// Panics under the same conditions as [`simulate_snapshot`]: a
/// scenario of the wrong size, or `cfg.probes_per_snapshot == 0`.
pub fn simulate_stream<'a, R: Rng>(
    red: &'a ReducedTopology,
    scenario: CongestionScenario,
    cfg: &ProbeConfig,
    rng: R,
) -> SnapshotStream<'a, R> {
    check_inputs(red, &scenario, cfg);
    SnapshotStream {
        red,
        scenario,
        cfg: *cfg,
        rng,
        produced: 0,
    }
}

/// Simulates independent runs — one per seed, each starting from a
/// clone of `scenario` with its own `StdRng` — in parallel across
/// threads.
///
/// Results are returned in seed order and are bit-identical to calling
/// [`simulate_run`] serially with the same seeds: each run's RNG stream
/// is derived only from its seed, so the thread schedule cannot leak
/// into the measurements. Worker count follows the workspace-wide
/// policy in [`losstomo_linalg::parallel`] (available parallelism,
/// capped by the `LOSSTOMO_THREADS` environment variable).
pub fn simulate_run_batch(
    red: &ReducedTopology,
    scenario: &CongestionScenario,
    cfg: &ProbeConfig,
    n_snapshots: usize,
    seeds: &[u64],
) -> Vec<MeasurementSet> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let run_one = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario = scenario.clone();
        simulate_run(red, &mut scenario, cfg, n_snapshots, &mut rng)
    };
    let threads = losstomo_linalg::parallel::num_threads().min(seeds.len().max(1));
    if threads <= 1 {
        return seeds.iter().map(|&s| run_one(s)).collect();
    }
    let mut out: Vec<Option<MeasurementSet>> = Vec::new();
    out.resize_with(seeds.len(), || None);
    let chunk = seeds.len().div_ceil(threads);
    crossbeam::scope(|scope| {
        for (seed_chunk, out_chunk) in seeds.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move |_| {
                for (slot, &seed) in out_chunk.iter_mut().zip(seed_chunk) {
                    *slot = Some(run_one(seed));
                }
            });
        }
    })
    .expect("simulation worker panicked");
    out.into_iter()
        .map(|ms| ms.expect("all slots filled by workers"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CongestionDynamics;
    use losstomo_topology::fixtures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1_reduced() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
    }

    #[test]
    fn lossless_network_delivers_everything() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(1);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.0, CongestionDynamics::Fixed, &mut rng);
        // Good links can still lose up to 0.2%, so use Bernoulli with
        // LLRD1 and check we receive nearly everything.
        let cfg = ProbeConfig {
            probes_per_snapshot: 1000,
            ..ProbeConfig::default()
        };
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        for &r in &snap.path_received {
            assert!(r >= 980, "received only {r}/1000 on a good path");
        }
    }

    #[test]
    fn congested_link_reduces_path_rate() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(2);
        // Congest everything.
        let scenario =
            CongestionScenario::draw(red.num_links(), 1.0, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig::default();
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        // Each path has ≥2 congested links at ≥5% loss each.
        for &r in &snap.path_received {
            assert!(r < 950, "path unexpectedly clean: {r}/1000");
        }
    }

    #[test]
    fn truth_arrival_counting_respects_upstream_drops() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(3);
        let scenario =
            CongestionScenario::draw(red.num_links(), 1.0, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig::default();
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        let total_sent = (snap.probes as u64) * red.num_paths() as u64;
        // First-hop arrivals equal all probes (the shared root link of
        // the Figure-1 tree carries all 3 paths).
        let max_arrivals = snap.link_truth.iter().map(|t| t.arrivals).max().unwrap();
        assert_eq!(max_arrivals, total_sent);
        // Downstream links see fewer arrivals than upstream drops allow.
        for t in &snap.link_truth {
            assert!(t.drops <= t.arrivals);
        }
    }

    #[test]
    fn empirical_rates_track_assigned_rates() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(4);
        let scenario =
            CongestionScenario::draw(red.num_links(), 1.0, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 5000,
            ..ProbeConfig::default()
        };
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        for t in &snap.link_truth {
            if t.arrivals > 2000 {
                let emp = t.empirical_loss_rate().unwrap();
                assert!(
                    (emp - t.assigned_loss_rate).abs() < 0.05,
                    "assigned {} vs empirical {emp}",
                    t.assigned_loss_rate
                );
            }
        }
    }

    #[test]
    fn run_advances_scenario_between_snapshots() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(5);
        let mut scenario =
            CongestionScenario::draw(red.num_links(), 0.5, CongestionDynamics::Redraw, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 10,
            ..ProbeConfig::default()
        };
        let ms = simulate_run(&red, &mut scenario, &cfg, 5, &mut rng);
        assert_eq!(ms.len(), 5);
        // With Redraw dynamics, congestion statuses should differ across
        // snapshots somewhere.
        let statuses: Vec<Vec<bool>> = ms
            .snapshots
            .iter()
            .map(|s| s.link_truth.iter().map(|t| t.congested).collect())
            .collect();
        assert!(statuses.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn deterministic_given_seed() {
        let red = fig1_reduced();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scenario =
                CongestionScenario::draw(red.num_links(), 0.3, CongestionDynamics::Fixed, &mut rng);
            simulate_run(&red, &mut scenario, &ProbeConfig::default(), 3, &mut rng)
                .snapshots
                .iter()
                .map(|s| s.path_received.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn per_round_losses_are_shared_across_paths() {
        // B → r → {d1, d2}: the shared first link drops either both
        // packets of a round or neither, so its drop count is even.
        use losstomo_topology::{compute_paths, reduce, NodeKind};
        let mut g = losstomo_topology::Graph::new();
        let b = g.add_node(NodeKind::Host);
        let r = g.add_node(NodeKind::Router);
        let d1 = g.add_node(NodeKind::Host);
        let d2 = g.add_node(NodeKind::Host);
        let shared = g.add_link(b, r);
        g.add_link(r, d1);
        g.add_link(r, d2);
        let paths = compute_paths(&g, &[b], &[d1, d2]);
        let red = reduce(&g, &paths);
        let shared_col = red.link_to_virtual[&shared].index();
        let mut rng = StdRng::seed_from_u64(11);
        let scenario =
            CongestionScenario::draw(red.num_links(), 1.0, CongestionDynamics::Fixed, &mut rng);
        let snap = simulate_snapshot(&red, &scenario, &ProbeConfig::default(), &mut rng);
        let t = &snap.link_truth[shared_col];
        assert!(t.drops > 0, "congested link never dropped");
        assert_eq!(t.drops % 2, 0, "per-round semantics share loss events");
    }

    #[test]
    fn per_arrival_mode_still_supported() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(12);
        let scenario =
            CongestionScenario::draw(red.num_links(), 1.0, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            advance: ChainAdvance::PerArrival,
            ..ProbeConfig::default()
        };
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        assert!(snap.path_received.iter().any(|&r| r < 1000));
    }

    #[test]
    fn batch_matches_serial_runs() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(21);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.4, CongestionDynamics::Redraw, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 50,
            ..ProbeConfig::default()
        };
        let seeds: Vec<u64> = (100..107).collect();
        let batch = simulate_run_batch(&red, &scenario, &cfg, 4, &seeds);
        for (&seed, ms) in seeds.iter().zip(batch.iter()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sc = scenario.clone();
            let serial = simulate_run(&red, &mut sc, &cfg, 4, &mut rng);
            assert_eq!(serial.len(), ms.len());
            for (a, b) in serial.snapshots.iter().zip(ms.snapshots.iter()) {
                assert_eq!(a.path_received, b.path_received, "seed {seed}");
            }
        }
    }

    #[test]
    fn mostly_lossless_run_preserves_conservation_laws() {
        // Mostly-lossless run (good links at ≤0.2 % loss), over a
        // probe count that ends mid-word: the word-wise walk must keep
        // the exact accounting identities of a packet-by-packet walk.
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(30);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.0, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 2001,
            ..ProbeConfig::default()
        };
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        let probes = cfg.probes_per_snapshot as u64;
        let n_paths = red.num_paths() as u64;
        // Every dropped probe removes exactly one delivery.
        let received: u64 = snap.path_received.iter().map(|&r| r as u64).sum();
        let drops: u64 = snap.link_truth.iter().map(|t| t.drops).sum();
        assert_eq!(received + drops, probes * n_paths);
        // The shared root link carries every probe of every path.
        let ppl = red.paths_per_link();
        let root = (0..red.num_links())
            .find(|&k| ppl[k].len() == red.num_paths())
            .expect("figure-1 tree has a shared root link");
        assert_eq!(snap.link_truth[root].arrivals, probes * n_paths);
        // No link sees more arrivals than probes × traversing paths.
        for (k, t) in snap.link_truth.iter().enumerate() {
            assert!(t.arrivals <= probes * ppl[k].len() as u64);
        }
    }

    #[test]
    fn stream_matches_batch_run_bitwise() {
        let red = fig1_reduced();
        let cfg = ProbeConfig {
            probes_per_snapshot: 40,
            ..ProbeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(77);
        let scenario = CongestionScenario::draw(
            red.num_links(),
            0.4,
            CongestionDynamics::Markov {
                stay_congested: 0.7,
            },
            &mut rng,
        );
        // Batch run from the post-draw RNG state…
        let mut batch_rng = rng.clone();
        let mut batch_scenario = scenario.clone();
        let batch = simulate_run(&red, &mut batch_scenario, &cfg, 6, &mut batch_rng);
        // …vs streaming the same state through the iterator.
        let streamed: MeasurementSet = simulate_stream(&red, scenario, &cfg, rng).take(6).collect();
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.snapshots.iter().zip(batch.snapshots.iter()) {
            assert_eq!(s.path_received, b.path_received);
            for (st, bt) in s.link_truth.iter().zip(b.link_truth.iter()) {
                assert_eq!(st.arrivals, bt.arrivals);
                assert_eq!(st.drops, bt.drops);
                assert_eq!(st.assigned_loss_rate, bt.assigned_loss_rate);
                assert_eq!(st.congested, bt.congested);
            }
        }
    }

    #[test]
    fn stream_tracks_scenario_and_count() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(78);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.5, CongestionDynamics::Redraw, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 5,
            ..ProbeConfig::default()
        };
        let mut stream = simulate_stream(&red, scenario, &cfg, rng);
        assert_eq!(stream.produced(), 0);
        let _ = stream.next();
        let _ = stream.next();
        assert_eq!(stream.produced(), 2);
        assert_eq!(stream.scenario().len(), red.num_links());
    }

    #[test]
    #[should_panic(expected = "scenario tracks")]
    fn stream_checks_scenario_size() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(79);
        let scenario = CongestionScenario::draw(2, 0.0, CongestionDynamics::Fixed, &mut rng);
        let _ = simulate_stream(&red, scenario, &ProbeConfig::default(), rng);
    }

    #[test]
    #[should_panic(expected = "probes_per_snapshot is 0")]
    fn zero_probes_panics() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(7);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.5, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 0,
            ..ProbeConfig::default()
        };
        simulate_snapshot(&red, &scenario, &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "probes_per_snapshot is 0")]
    fn stream_rejects_zero_probes() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(8);
        let scenario =
            CongestionScenario::draw(red.num_links(), 0.5, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 0,
            ..ProbeConfig::default()
        };
        let _ = simulate_stream(&red, scenario, &cfg, rng);
    }

    #[test]
    #[should_panic(expected = "scenario tracks")]
    fn scenario_size_mismatch_panics() {
        let red = fig1_reduced();
        let mut rng = StdRng::seed_from_u64(6);
        let scenario = CongestionScenario::draw(1, 0.0, CongestionDynamics::Fixed, &mut rng);
        simulate_snapshot(&red, &scenario, &ProbeConfig::default(), &mut rng);
    }
}
