//! Seeded inputs for the streaming workloads: simulated snapshots,
//! encoded as wire batches before any timing starts, plus the
//! simulator's truth for scoring and the routing deltas of the churn
//! workload.

use crate::pool;
use bytes::Bytes;
use losstomo_bench::PreparedTopology;
use losstomo_netsim::{simulate_snapshot, CongestionDynamics, CongestionScenario, ProbeConfig};
use losstomo_topology::gen::GeneratedTopology;
use losstomo_topology::{compute_paths, flutter, reduce, PathId, ReducedTopology, TopologyDelta};
use losstomo_wire::{BatchEncoder, WireEncodeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Seed of every workload's topology: the paper tree with 513 paths
/// and 763 virtual links. The `--seed` argument never changes it.
pub const TOPOLOGY_SEED: u64 = 23;

/// Seed of every tenant's congestion episodes. Which links congest
/// and when is part of the workload, like its topology: it decides how
/// far Phase 2's elimination cut drifts, and with it much of a
/// refresh's cost. `--seed` draws the probe outcomes.
pub const CONGESTION_SEED: u64 = 0x5EED_C0DE;

/// Seed of the warm-up rows' probe outcomes. The warm-up is part of
/// set-up, and filling a window costs what the probe draws make it: on
/// `tree-churn`, 1.1–1.2 s at one seed and 2.5–2.9 s at another, repeat
/// after repeat. So every seed warms up on the same rows, and `--seed`
/// draws the measured rows.
const WARMUP_SEED: u64 = 0x3A2_4D0F;

/// Fraction of links congested (the paper's `p`).
pub const P_CONGESTED: f64 = 0.1;

/// Markov stay probability of a congested link: episodes last about
/// 100 snapshots, two windows.
pub const STAY_CONGESTED: f64 = 0.99;

/// Sliding-window length (the paper's `m`).
pub const WINDOW: usize = 50;

/// Threads that simulate inputs before the timed part of a run.
const SIM_THREADS: usize = 2;

/// The paper tree at paper scale.
pub fn paper_tree() -> PreparedTopology {
    losstomo_bench::tree_topology(losstomo_bench::Scale::Paper, TOPOLOGY_SEED)
}

/// Routes, flutter-filters and reduces a generated topology: the
/// topology-reduction step of every workload's set-up.
pub fn reduce_topology(topo: &GeneratedTopology) -> ReducedTopology {
    let mut paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    flutter::remove_fluttering_paths(&mut paths);
    reduce(&topo.graph, &paths)
}

/// SplitMix64 finaliser: derives independent seeds from one.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of one streaming workload's input.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Tenants fed in every batch.
    pub tenants: usize,
    /// Rows per tenant in one batch (one frame per tenant).
    pub rows_per_frame: usize,
    /// Warm-up rows per tenant before the measured pass.
    pub warmup_rows: usize,
    /// Measured rows per tenant.
    pub pass_rows: usize,
    /// Distinct snapshots per tenant that the measured rows cycle
    /// through.
    pub pool: usize,
    /// Routes change before measured rows 0, `n`, `2n`, … (single
    /// tenant), in a cycle of [`CHURN_CYCLE`] deltas that ends where
    /// it started.
    pub churn_every: Option<usize>,
}

/// Routing deltas in one churn cycle: swap set A, swap set B, swap A
/// back, swap B back.
pub const CHURN_CYCLE: usize = 4;

/// One batch of the closed loop.
#[derive(Debug)]
pub struct Round {
    /// Applied with `Fleet::update_topology` before the batch is sent,
    /// while nothing is in flight.
    pub delta: Option<TopologyDelta>,
    /// Rows per tenant in this batch.
    pub rows: usize,
    /// The encoded wire batch: one frame per tenant.
    pub batch: Bytes,
}

/// Everything a streaming run consumes, generated from the seed.
#[derive(Debug)]
pub struct StreamInputs {
    /// Batches that fill every window before the measured pass.
    pub warmup: Vec<Round>,
    /// Batches of the measured pass.
    pub pass: Vec<Round>,
    /// `truth[t][k]`: congested links of tenant `t`'s `k`-th row
    /// (warm-up rows first), ascending.
    pub truth: Vec<Vec<Vec<u32>>>,
    /// Wall time of each `simulate_snapshot` call, ms.
    pub simulate_ms: Vec<f64>,
    /// Routing deltas applied during the pass.
    pub deltas: usize,
}

/// A rank-preserving routing delta, built the way the `scale_churn`
/// benchmark builds one: each pair of paths swaps routes (as when a
/// load balancer flips), and path `readd` is re-added on its own route
/// and its old row removed. The multiset of routing rows is unchanged,
/// so Theorem-1 identifiability survives by construction, and so does
/// the path count. With `readd` the last path, the re-added row lands
/// where the old one was, so applying the same delta twice restores
/// the routing.
pub fn churn_delta(red: &ReducedTopology, pairs: &[(usize, usize)], readd: usize) -> TopologyDelta {
    let mut delta = TopologyDelta::new();
    for &(p, q) in pairs {
        delta = delta
            .reroute_path(PathId(p as u32), red.matrix.row(q).to_vec())
            .reroute_path(PathId(q as u32), red.matrix.row(p).to_vec());
    }
    delta
        .add_path(red.matrix.row(readd).to_vec())
        .remove_path(PathId(readd as u32))
}

/// The deltas of one churn cycle and the topology after each: two
/// disjoint sets of `pairs` path pairs (never the last path, which
/// every delta re-adds) swap in turn, then swap back. `topos[0]` is
/// `red`; after `cycle[i]` the routing is `topos[(i + 1) % CHURN_CYCLE]`.
pub fn churn_cycle(
    red: &ReducedTopology,
    pairs: usize,
    rng: &mut StdRng,
) -> (Vec<TopologyDelta>, Vec<ReducedTopology>) {
    let last = red.num_paths() - 1;
    let mut victims = BTreeSet::new();
    while victims.len() < 4 * pairs {
        victims.insert(rng.gen_range(0..last));
    }
    let victims: Vec<usize> = victims.into_iter().collect();
    let sets: Vec<Vec<(usize, usize)>> = victims
        .chunks_exact(2 * pairs)
        .map(|set| set.chunks_exact(2).map(|p| (p[0], p[1])).collect())
        .collect();
    let mut topos = vec![red.clone()];
    let mut cycle = Vec::with_capacity(CHURN_CYCLE);
    for i in 0..CHURN_CYCLE {
        let current = &topos[i];
        let delta = churn_delta(current, &sets[i % 2], last);
        let mut next = current.clone();
        next.apply_delta(&delta).expect("a swap delta is valid");
        cycle.push(delta);
        topos.push(next);
    }
    let end = topos.pop().expect("one topology per delta");
    assert!(
        (0..red.num_paths()).all(|p| end.matrix.row(p) == red.matrix.row(p)),
        "a churn cycle restores the routing"
    );
    (cycle, topos)
}

/// One snapshot to simulate: which topology, which congestion state,
/// which probe seed.
struct Job {
    topo: usize,
    statuses: Vec<bool>,
    seed: u64,
}

/// A simulated row: log rates and the truly congested links.
struct SimRow {
    log_rates: Vec<f64>,
    congested: Vec<u32>,
    ms: f64,
}

fn simulate(topos: &[ReducedTopology], job: &Job, probe: &ProbeConfig) -> SimRow {
    let scenario = CongestionScenario::with_statuses(
        P_CONGESTED,
        CongestionDynamics::Markov {
            stay_congested: STAY_CONGESTED,
        },
        job.statuses.clone(),
    );
    let mut rng = StdRng::seed_from_u64(job.seed);
    let t = Instant::now();
    let snap = simulate_snapshot(&topos[job.topo], &scenario, probe, &mut rng);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    SimRow {
        log_rates: snap.log_rates(),
        congested: (0..snap.link_truth.len())
            .filter(|&k| snap.link_truth[k].congested)
            .map(|k| k as u32)
            .collect(),
        ms,
    }
}

/// Simulates and encodes a streaming workload's input: per tenant, the
/// warm-up rows on the initial routing, then a pool of snapshots that
/// the measured rows cycle through, each simulated on the routing in
/// force when it is measured. `seed` draws the probe outcomes of the
/// pool; the warm-up rows, the congestion episodes and the routing
/// deltas (`churn_seed`) are the same for every seed.
pub fn stream_inputs(
    red: &ReducedTopology,
    shape: StreamShape,
    seed: u64,
    churn_seed: u64,
) -> StreamInputs {
    let (warm, pool) = (shape.warmup_rows, shape.pool);
    // Topology of each pool snapshot: the delta before measured row
    // `m·every` is `cycle[m % CHURN_CYCLE]`, after which the routing is
    // `topos[(m + 1) % CHURN_CYCLE]`.
    let (cycle, topos) = match shape.churn_every {
        None => (Vec::new(), vec![red.clone()]),
        Some(every) => {
            assert_eq!(shape.tenants, 1, "churn drives a single tenant");
            assert_eq!(
                pool % (CHURN_CYCLE * every),
                0,
                "the pool spans whole churn cycles"
            );
            let pairs = (((red.num_paths() as f64) * 0.01).round() as usize / 2).max(1);
            churn_cycle(red, pairs, &mut StdRng::seed_from_u64(churn_seed))
        }
    };
    let topo_of = |i: usize| {
        shape
            .churn_every
            .map_or(0, |every| (i / every + 1) % CHURN_CYCLE)
    };
    // Congestion states evolve sequentially per tenant, through the
    // warm-up and then the pool; the probes of each snapshot get their
    // own seed so snapshots simulate in parallel.
    let mut jobs = Vec::with_capacity(shape.tenants * (warm + pool));
    for t in 0..shape.tenants {
        let mut rng = StdRng::seed_from_u64(mix(CONGESTION_SEED, t as u64 + 1));
        let mut scenario = CongestionScenario::draw(
            red.num_links(),
            P_CONGESTED,
            CongestionDynamics::Markov {
                stay_congested: STAY_CONGESTED,
            },
            &mut rng,
        );
        for i in 0..warm + pool {
            if i > 0 {
                scenario.advance(&mut rng);
            }
            let (topo, base, k) = if i < warm {
                (0, WARMUP_SEED, i)
            } else {
                (topo_of(i - warm), seed, i - warm)
            };
            jobs.push(Job {
                topo,
                statuses: scenario.statuses().to_vec(),
                seed: mix(mix(base, t as u64 + 1), k as u64 + 1),
            });
        }
    }
    let probe = ProbeConfig::default();
    let (rows, _) = pool::run(SIM_THREADS, jobs.len(), |_, i| {
        simulate(&topos, &jobs[i], &probe)
    });
    let simulate_ms = rows.iter().map(|r| r.ms).collect();
    // Tenant `t`'s `k`-th row, warm-up rows first.
    let row = |t: usize, k: usize| {
        let i = if k < warm {
            k
        } else {
            warm + (k - warm) % pool
        };
        &rows[t * (warm + pool) + i]
    };
    let total_rows = warm + shape.pass_rows;
    let truth = (0..shape.tenants)
        .map(|t| {
            (0..total_rows)
                .map(|k| row(t, k).congested.clone())
                .collect()
        })
        .collect();

    let opts = WireEncodeOptions { crc: false };
    let paths = red.num_paths();
    let frame_bytes = BatchEncoder::frame_wire_size(opts, shape.rows_per_frame, paths);
    assert_eq!(
        warm % shape.rows_per_frame,
        0,
        "warm-up must end on a batch boundary"
    );
    let mut rounds = Vec::new();
    let mut deltas = 0;
    let mut k = 0;
    while k < total_rows {
        let rows_here = shape.rows_per_frame.min(total_rows - k);
        let delta = match shape.churn_every {
            Some(every) if k >= warm && (k - warm) % every == 0 => {
                deltas += 1;
                Some(cycle[(k - warm) / every % CHURN_CYCLE].clone())
            }
            Some(every) => {
                assert!(
                    k < warm || (k - warm) / every == (k - warm + rows_here - 1) / every,
                    "a delta must fall on a batch boundary"
                );
                None
            }
            None => None,
        };
        let mut enc = BatchEncoder::with_capacity(opts, 16 + shape.tenants * frame_bytes);
        for t in 0..shape.tenants {
            enc.begin_frame(t as u32, k as u64, paths as u32);
            for r in k..k + rows_here {
                enc.push_row(&row(t, r).log_rates);
            }
            enc.end_frame();
        }
        rounds.push(Round {
            delta,
            rows: rows_here,
            batch: enc.finish(),
        });
        k += rows_here;
    }
    let pass = rounds.split_off(warm / shape.rows_per_frame);
    StreamInputs {
        warmup: rounds,
        pass,
        truth,
        simulate_ms,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_wire::WireBatch;

    fn small_tree() -> ReducedTopology {
        losstomo_bench::tree_topology(losstomo_bench::Scale::Quick, TOPOLOGY_SEED).red
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let red = small_tree();
        let shape = StreamShape {
            tenants: 2,
            rows_per_frame: 2,
            warmup_rows: 4,
            pass_rows: 10,
            pool: 3,
            churn_every: None,
        };
        let a = stream_inputs(&red, shape, 5, 0);
        let b = stream_inputs(&red, shape, 5, 0);
        let c = stream_inputs(&red, shape, 6, 0);
        assert_eq!((a.warmup.len(), a.pass.len()), (2, 5));
        let bytes = |i: &StreamInputs| -> Vec<Bytes> {
            i.warmup
                .iter()
                .chain(&i.pass)
                .map(|r| r.batch.clone())
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        // The warm-up belongs to the workload; the seed draws the pool.
        assert_eq!(bytes(&a)[..2], bytes(&c)[..2]);
        assert_ne!(bytes(&a)[2..], bytes(&c)[2..]);
        assert_eq!(a.truth, b.truth);
        // Congestion episodes belong to the workload, not the seed.
        assert_eq!(a.truth, c.truth);
        assert_ne!(a.truth[0], a.truth[1], "tenants congest independently");
        // Measured rows cycle the 3-snapshot pool: measured row 3 (in
        // the second row of the second pass batch) repeats row 0.
        let row = |batch: usize, t: usize, r: usize| {
            WireBatch::parse(a.pass[batch].batch.clone())
                .expect("parses")
                .frame(t)
                .row(r)
                .to_vec()
        };
        assert_eq!(row(1, 1, 1), row(0, 1, 0));
        assert_ne!(row(1, 1, 0), row(0, 1, 0));
        assert_eq!(a.truth[1][4 + 3], a.truth[1][4]);
        assert!(a.pass.iter().all(|r| r.delta.is_none()));
    }

    #[test]
    fn churn_cycles_return_to_the_initial_routing() {
        let red = small_tree();
        let shape = StreamShape {
            tenants: 1,
            rows_per_frame: 1,
            warmup_rows: 3,
            pass_rows: 10,
            pool: 8,
            churn_every: Some(2),
        };
        let inputs = stream_inputs(&red, shape, 1, 9);
        assert_eq!(inputs.deltas, 5);
        let at: Vec<usize> = (0..inputs.pass.len())
            .filter(|&i| inputs.pass[i].delta.is_some())
            .collect();
        assert_eq!(at, vec![0, 2, 4, 6, 8]);
        assert!(inputs.warmup.iter().all(|r| r.delta.is_none()));
        let same = |x: &ReducedTopology| {
            (0..red.num_paths()).all(|p| x.matrix.row(p) == red.matrix.row(p))
        };
        let mut next = red.clone();
        for (i, r) in inputs
            .pass
            .iter()
            .filter_map(|r| r.delta.as_ref())
            .enumerate()
        {
            next.apply_delta(r).expect("valid delta");
            assert_eq!(next.num_paths(), red.num_paths());
            assert_eq!(next.num_links(), red.num_links());
            // Back to the initial routing after every whole cycle,
            // and only then.
            assert_eq!(same(&next), (i + 1) % CHURN_CYCLE == 0, "after delta {i}");
        }
        // A measured row and the one a pool length later are the same
        // snapshot, simulated on the same routing.
        let row = |i: usize| {
            WireBatch::parse(inputs.pass[i].batch.clone())
                .expect("parses")
                .frame(0)
                .row(0)
                .to_vec()
        };
        assert_eq!(row(1), row(9));
        // The schedule depends on the churn seed only.
        let other = stream_inputs(&red, shape, 2, 9);
        let edits = |i: &StreamInputs| -> Vec<TopologyDelta> {
            i.pass.iter().filter_map(|r| r.delta.clone()).collect()
        };
        assert_eq!(edits(&inputs), edits(&other));
    }
}
