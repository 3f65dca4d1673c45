//! The benchmark's own arithmetic: nearest-rank percentiles with a
//! tail-sample rule, Little's-law queue wait, span self time and the
//! checks a trace must pass, and accuracy scoring from a congestion
//! event stream. Pure functions, so the numbers the benchmark reports
//! can be checked by unit tests.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// `⌈pct·n/100⌉`, at least 1. Integer arithmetic, so `pct = 90` at
/// `n = 100` is rank 90 exactly.
pub fn nearest_rank(n: usize, pct: u32) -> usize {
    assert!((1..=100).contains(&pct), "percentile {pct} out of 1..=100");
    assert!(n > 0, "no samples");
    (pct as usize * n).div_ceil(100).max(1)
}

/// Samples that lie beyond the nearest-rank `pct`-th percentile.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - nearest_rank(n, pct)
}

/// Whether `n` samples support the `pct`-th percentile: at least
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn supports(n: usize, pct: u32) -> bool {
    n > 0 && samples_beyond(n, pct) >= TAIL_SAMPLES
}

/// The highest whole percentile `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| supports(n, p))
}

/// The nearest-rank `pct`-th percentile of `samples` (sorts in place).
pub fn percentile(samples: &mut [f64], pct: u32) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[nearest_rank(samples.len(), pct) - 1]
}

/// Median by nearest rank (the lower middle value for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    percentile(&mut s, 50)
}

/// Which way a figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A rate: higher is better.
    Higher,
    /// A time or a cost: lower is better.
    Lower,
}

/// The faster quartile of per-lap figures: the nearest-rank 75th
/// percentile of a figure that is better higher, the 25th of one that
/// is better lower. Laps repeat the same work, and other guests on a
/// shared host only ever slow a lap down, so this reads the program's
/// own speed with the least interference while still needing a
/// quarter of the laps to reach it.
pub fn faster_quartile(laps: &[f64], better: Better) -> f64 {
    let mut v = laps.to_vec();
    match better {
        Better::Higher => percentile(&mut v, 75),
        Better::Lower => percentile(&mut v, 25),
    }
}

/// Mean time a row waits in the tenant queues, by Little's law: mean
/// queue depth (rows) over the row rate (rows per second), in ms.
pub fn littles_law_wait_ms(mean_depth: f64, rows_per_s: f64) -> f64 {
    assert!(rows_per_s > 0.0, "row rate must be positive");
    mean_depth / rows_per_s * 1e3
}

/// One span of the in-memory trace. Durations of child spans are
/// attributed to the parent: a child may be timed inside the parent
/// (its interval nested in the parent's) or measured by a replay of
/// the same work outside it; either way it is subtracted from the
/// parent's self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span's self time is billed to.
    pub layer: &'static str,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Thread the span ran on, as an index into the trace's tracks.
    pub track: usize,
    /// Start, in ns since the start of the traced pass.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Signed, so that [`check_trace`] can refuse a
/// parent whose children account for more than it took.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur_ns);
        }
    }
    own
}

/// Self time summed by layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, i128> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_default() += own;
    }
    by_layer
}

/// Total duration of the spans without a parent. Equals the sum of
/// all self times, since every child is subtracted from its parent.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns)
        .sum()
}

/// The checks a trace must pass for its layer split to add up:
///
/// * on every track, the spans without a parent do not overlap and
///   end by the track's end (`track_ends_ns[k]`, ns since the start of
///   the pass), so the time no span covers is never negative;
/// * no layer's self time is negative: the children of its spans never
///   account for more time than the spans took.
///
/// Returns what failed; empty when the trace is sound.
pub fn check_trace(spans: &[Span], track_ends_ns: &[u64]) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(s) = spans.iter().find(|s| s.track >= track_ends_ns.len()) {
        problems.push(format!(
            "a {} span is on track {}, but the trace has {} tracks",
            s.layer,
            s.track,
            track_ends_ns.len()
        ));
    }
    for (track, &end) in track_ends_ns.iter().enumerate() {
        let mut top: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.track == track)
            .collect();
        top.sort_by_key(|s| s.start_ns);
        let mut free_from = 0;
        for s in top {
            if s.start_ns < free_from {
                problems.push(format!(
                    "track {track}: a {} span starts at {} ns, before the span before it ends \
                     at {free_from} ns",
                    s.layer, s.start_ns
                ));
            }
            free_from = free_from.max(s.start_ns + s.dur_ns);
        }
        if free_from > end {
            problems.push(format!(
                "track {track}: spans run to {free_from} ns, past the track's end at {end} ns"
            ));
        }
    }
    for (layer, own) in layer_self_ns(spans) {
        if own < 0 {
            problems.push(format!(
                "layer {layer}: self time {own} ns is negative; its children account for more \
                 than it took"
            ));
        }
    }
    problems
}

/// Pooled congested-link location counts over many diagnoses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Truly congested links that were diagnosed congested.
    pub hits: u64,
    /// Truly congested links.
    pub truth: u64,
    /// Links diagnosed congested.
    pub flagged: u64,
}

impl Tally {
    /// Adds one diagnosis against its truth (both ascending link ids).
    pub fn add(&mut self, truth: &[u32], diagnosed: &[u32]) {
        self.truth += truth.len() as u64;
        self.flagged += diagnosed.len() as u64;
        self.hits += sorted_intersection(truth, diagnosed);
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.hits += other.hits;
        self.truth += other.truth;
        self.flagged += other.flagged;
    }

    /// `|F ∩ X| / |F|`; 1 when nothing was congested.
    pub fn detection_rate(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.hits as f64 / self.truth as f64
        }
    }

    /// `|X \ F| / |X|`; 0 when nothing was flagged.
    pub fn false_positive_rate(&self) -> f64 {
        if self.flagged == 0 {
            0.0
        } else {
            (self.flagged - self.hits) as f64 / self.flagged as f64
        }
    }
}

fn sorted_intersection(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Scores one tenant's event stream against its truth.
///
/// `events` are `(seq, congested set)` pairs in ascending `seq` — the
/// tenant's congested set after the snapshot with that 1-based
/// sequence number. A snapshot that emitted no event keeps the set of
/// the last event before it (the empty set before the first event).
/// `truth[k]` is the congested set of the snapshot with sequence
/// number `first_seq + k`; only those snapshots are scored.
pub fn score_stream(events: &[(u64, Vec<u32>)], first_seq: u64, truth: &[Vec<u32>]) -> Tally {
    debug_assert!(
        events.windows(2).all(|w| w[0].0 < w[1].0),
        "events out of order"
    );
    let mut tally = Tally::default();
    let mut current: &[u32] = &[];
    let mut next = 0;
    for (k, t) in truth.iter().enumerate() {
        let seq = first_seq + k as u64;
        while next < events.len() && events[next].0 <= seq {
            current = &events[next].1;
            next += 1;
        }
        tally.add(t, current);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_at_100_samples_leaves_exactly_ten_beyond() {
        assert_eq!(nearest_rank(100, 90), 90);
        assert_eq!(samples_beyond(100, 90), 10);
        assert!(supports(100, 90));
        assert!(!supports(99, 90), "99 samples leave only 9 beyond p90");
        assert!(!supports(100, 91));
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(200), Some(95));
        assert_eq!(highest_supported(25), Some(60));
        assert_eq!(highest_supported(10), None);
    }

    #[test]
    fn nearest_rank_rounds_up_and_never_reaches_zero() {
        assert_eq!(nearest_rank(1, 50), 1);
        assert_eq!(nearest_rank(3, 50), 2);
        assert_eq!(nearest_rank(4, 50), 2);
        assert_eq!(nearest_rank(10, 1), 1);
        assert_eq!(nearest_rank(10, 100), 10);
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 90), 90.0);
        assert_eq!(percentile(&mut s, 50), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn faster_quartile_reads_the_quicker_laps_from_either_side() {
        // Six laps, two of them slowed by another guest.
        let rates = [30.0, 22.0, 31.0, 29.0, 21.0, 30.5];
        assert_eq!(faster_quartile(&rates, Better::Higher), 30.5);
        let times: Vec<f64> = rates.iter().map(|r| 1e3 / r).collect();
        assert_eq!(faster_quartile(&times, Better::Lower), 1e3 / 30.5);
        // A uniform slowdown of every lap moves it in full.
        let slower: Vec<f64> = rates.iter().map(|r| r * 0.8).collect();
        assert_eq!(faster_quartile(&slower, Better::Higher), 30.5 * 0.8);
        assert_eq!(faster_quartile(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn littles_law_divides_depth_by_rate() {
        // Half a row queued on average at 40 rows/s: 12.5 ms each.
        assert!((littles_law_wait_ms(0.5, 40.0) - 12.5).abs() < 1e-12);
        assert_eq!(littles_law_wait_ms(0.0, 10.0), 0.0);
    }

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            layer,
            parent,
            track: 0,
            start_ns,
            dur_ns,
        }
    }

    /// A fleet call with a nested refresh and a replayed estimate, then
    /// a parse: 113 ns of spans in a 120-ns pass.
    fn sound_trace() -> Vec<Span> {
        vec![
            span("fleet", None, 0, 100),
            span("refresh", Some(0), 5, 60),
            span("lia", Some(1), 10, 25),
            span("estimate", Some(0), 107, 10),
            span("wire", None, 100, 7),
            span("trace", None, 107, 13),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = sound_trace();
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 35, 25, 10, 7, 13]);
        let sum: i128 = own.iter().sum();
        assert_eq!(sum, i128::from(top_level_ns(&spans)));
        assert_eq!(top_level_ns(&spans), 120);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["fleet"], 30);
        assert_eq!(by_layer.values().sum::<i128>(), 120);
    }

    #[test]
    fn a_sound_trace_passes_its_checks() {
        assert_eq!(check_trace(&sound_trace(), &[120]), Vec::<String>::new());
        // Two workers, each with its own timeline: overlapping in time
        // across tracks is fine.
        let mut spans = sound_trace();
        spans.extend(sound_trace().into_iter().map(|s| Span {
            track: 1,
            parent: s.parent.map(|p| p + 6),
            ..s
        }));
        assert!(check_trace(&spans, &[120, 125]).is_empty());
    }

    #[test]
    fn overlapping_or_overrunning_spans_fail() {
        let mut spans = sound_trace();
        spans[4].start_ns = 99; // the parse starts inside the fleet call
        let problems = check_trace(&spans, &[120]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("a wire span starts at 99 ns"));
        // The pass ends before its last span does.
        let problems = check_trace(&sound_trace(), &[119]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("past the track's end"));
        // A span on a track the trace does not have.
        let mut spans = sound_trace();
        spans[5].track = 2;
        assert!(!check_trace(&spans, &[120]).is_empty());
    }

    #[test]
    fn a_replayed_child_longer_than_its_parent_fails() {
        // The replayed estimate reads 12 ns for a 10-ns fleet call.
        let spans = vec![
            span("fleet", None, 0, 10),
            span("estimate", Some(0), 10, 12),
            span("trace", None, 10, 12),
        ];
        assert_eq!(self_times(&spans), vec![-2, 12, 12]);
        let problems = check_trace(&spans, &[22]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("layer fleet: self time -2 ns is negative"));
    }

    #[test]
    fn tally_pools_hits_and_false_flags() {
        let mut t = Tally::default();
        t.add(&[1, 4, 9], &[4, 9, 11]);
        t.add(&[2], &[]);
        assert_eq!(
            t,
            Tally {
                hits: 2,
                truth: 4,
                flagged: 3
            }
        );
        assert!((t.detection_rate() - 0.5).abs() < 1e-12);
        assert!((t.false_positive_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().detection_rate(), 1.0);
        assert_eq!(Tally::default().false_positive_rate(), 0.0);
    }

    #[test]
    fn stream_scoring_carries_the_last_set_across_gaps() {
        // Events after snapshots 2 and 5; snapshots 3..=7 are scored.
        let events = vec![(2, vec![1, 2]), (5, vec![2, 3])];
        let truth = vec![vec![1], vec![1, 2], vec![2, 3], vec![3], vec![9]];
        let t = score_stream(&events, 3, &truth);
        // seq 3 and 4 keep {1,2}: hits 1 + 2; seq 5..7 see {2,3}:
        // hits 2 + 1 + 0.
        assert_eq!(t.hits, 6);
        assert_eq!(t.truth, 7);
        assert_eq!(t.flagged, 10);
    }

    #[test]
    fn stream_scoring_starts_from_the_empty_set() {
        let events = vec![(3, vec![4])];
        let truth = vec![vec![4], vec![4], vec![4]];
        let t = score_stream(&events, 1, &truth);
        assert_eq!((t.hits, t.truth, t.flagged), (1, 3, 1));
        // An event with an empty set clears the diagnosis again.
        let events = vec![(1, vec![4]), (2, vec![])];
        let t = score_stream(&events, 1, &truth);
        assert_eq!((t.hits, t.truth, t.flagged), (1, 3, 1));
    }
}
