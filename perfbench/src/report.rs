//! The metric catalogue, the per-layer time split of a trace, and the
//! result line every run ends with.

use crate::stats::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by an untraced run (`--trace 0`), in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("throughput_snapshots_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_snapshot", "ms"),
    ("throughput_experiments_per_s", "1/s"),
    ("cpu_ms_per_experiment", "ms"),
    ("setup_s", "s"),
    ("heap_mb", "MB"),
    ("ok_frac", "fraction"),
    ("detection_rate", "fraction"),
    ("precision", "fraction"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`), in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("wire.parse_us", "us"),
    ("wire.bytes_per_snapshot", "B"),
    ("fleet.self_us_per_snapshot", "us"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.event_frac", "fraction"),
    ("fleet.allocs_per_snapshot", "count"),
    ("fleet.alloc_kb_per_snapshot", "KB"),
    ("streaming.accumulate_us", "us"),
    ("streaming.estimate_us", "us"),
    ("streaming.refresh_ms", "ms"),
    ("streaming.refresh_p90_ms", "ms"),
    ("streaming.refreshes_per_snapshot", "count"),
    ("streaming.warmup_failures", "count"),
    ("streaming.allocs_per_refresh", "count"),
    ("streaming.alloc_kb_per_refresh", "KB"),
    ("covariance.ms", "ms"),
    ("variance.ms", "ms"),
    ("lia.ms", "ms"),
    ("lia.p90_ms", "ms"),
    ("lia.kept_change_frac", "fraction"),
    ("churn.apply_ms", "ms"),
    ("churn.stale_refresh_ms", "ms"),
    ("churn.warming_pairs", "count"),
    ("churn.fallbacks", "count"),
    ("netsim.simulate_ms", "ms"),
    ("augmented.build_ms", "ms"),
    ("trace.unaccounted_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Snapshots (or experiments) attempted in the measured pass.
    pub attempted: u64,
    /// Of those, the ones without an estimate: rejected at the edge,
    /// failed in the estimator, or quarantined.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed output checks; empty when the outputs are correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The last line of the run's output: `correct`, `attempted`,
    /// `failed` and exactly the metrics of `catalogue`, in its order.
    /// A metric missing from the outcome, or not finite, is a failed
    /// check rather than a made-up number.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v);
            let value = match value {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            // `{:?}` prints the shortest representation that reads
            // back as the same f64, with all its digits.
            write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// Largest share of a traced pass that may go uncovered by spans.
pub const MAX_UNACCOUNTED: f64 = 0.05;

/// Splits a trace's time into layer self times plus the time no span
/// covers. `track_ends_ns[k]` is how long track `k` (a thread of the
/// pass) ran; the trace accounts for their sum. Records a failed check
/// when the trace fails [`stats::check_trace`] or leaves more than
/// [`MAX_UNACCOUNTED`] uncovered. Prints the split with each layer's
/// share and its time per `per.0` units of work (named `per.1`, in ns
/// over `per.2`), writes the spans out, and returns the self times by
/// layer and the unaccounted share.
pub fn layer_split(
    spans: &[Span],
    track_ends_ns: &[u64],
    per: (f64, &str, f64),
    out: &mut Outcome,
) -> (BTreeMap<&'static str, i128>, f64) {
    out.problems
        .extend(stats::check_trace(spans, track_ends_ns));
    let by_layer = stats::layer_self_ns(spans);
    let total_ns: i128 = track_ends_ns.iter().map(|&e| i128::from(e)).sum();
    let unaccounted = total_ns - i128::from(stats::top_level_ns(spans));
    let unaccounted_frac = unaccounted as f64 / total_ns as f64;
    out.check(unaccounted_frac <= MAX_UNACCOUNTED, || {
        format!(
            "{:.2}% of the traced pass is covered by no span (at most {}% allowed)",
            unaccounted_frac * 100.0,
            MAX_UNACCOUNTED * 100.0
        )
    });
    let (count, label, unit_ns) = per;
    for (layer, t) in by_layer.iter().chain([(&"unaccounted", &unaccounted)]) {
        println!(
            "  {layer:<22} {:>10.3} ms {:>7.2}%  {:>10.3} {label}",
            *t as f64 / 1e6,
            *t as f64 / total_ns as f64 * 100.0,
            *t as f64 / unit_ns / count
        );
    }
    println!("spans: {}", write_spans(spans));
    (by_layer, unaccounted_frac)
}

/// Writes a trace's spans as JSON lines under the build directory and
/// returns the path (or why it could not).
fn write_spans(spans: &[Span]) -> String {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    let mut text = String::with_capacity(spans.len() * 64);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            text,
            "{{\"layer\": \"{}\", \"parent\": {parent}, \"track\": {}, \"start_ns\": {}, \
             \"dur_ns\": {}}}",
            s.layer, s.track, s.start_ns, s.dur_ns
        )
        .expect("writing to a String cannot fail");
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_catalogued_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("b", 0.25);
        o.set("a", 1e-7);
        let line = o.result_line(&[("a", "s"), ("b", "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1e-7, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = Outcome::default();
        o.set("a", f64::NAN);
        let line = o.result_line(&[("a", "s"), ("b", "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert_eq!(o.problems.len(), 2);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let expected: Vec<&str> = crate::cli::Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("listed");
            let rest = &json[at..];
            let entry = &rest[..rest.find('}').expect("entry closes")];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }
}
