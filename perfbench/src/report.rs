//! The result line, the metric tables it must cover, and the statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: every untraced run of every workload reports each of
/// them (name, unit), in the order of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("modularity", "Q"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Deepest uncoarsening level with its own `refine.level<i>.time_s` slot;
/// deeper levels (the lastfm_asia-like stall reaches 20) fold into the last.
pub const REFINE_LEVEL_SLOTS: usize = 8;

/// Per-layer metrics: every traced run of every workload reports each of
/// them. A layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut table: Vec<(String, &'static str)> = [
        ("coarsen.time_s", "s"),
        ("coarsen.levels", "count"),
        ("coarsen.coarsest_nodes", "count"),
        ("formulate.time_s", "s"),
        ("formulate.variables", "count"),
        ("formulate.couplings", "count"),
        ("solve.time_s", "s"),
        ("solve.iterations", "count"),
        ("decode.time_s", "s"),
        ("refine.time_s", "s"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for level in 0..REFINE_LEVEL_SLOTS {
        table.push((format!("refine.level{level}.time_s"), "s"));
    }
    table.extend(
        [
            ("refine.moves", "count"),
            ("refine.passes", "count"),
            ("refine.final.time_s", "s"),
            ("refine.final.moves", "count"),
            ("quality.time_s", "s"),
            ("stream.submit.time_s", "s"),
            ("stream.step.time_s", "s"),
            ("stream.apply.time_s", "s"),
            ("stream.publish.time_s", "s"),
            ("stream.read.time_s", "s"),
            ("stream.checkpoint.time_s", "s"),
            ("stream.checkpoint.bytes", "bytes"),
            ("stream.recover.time_s", "s"),
            ("stream.events_per_s", "1/s"),
            ("stream.frontier_size", "count"),
            ("stream.nodes_moved", "count"),
            ("stream.refine_passes", "count"),
            ("stream.full_redetects", "count"),
            ("stream.move_ratio", "ratio"),
            ("trace.overhead_s", "s"),
        ]
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit)),
    );
    table
}

/// The outcome of one benchmark run: operation counts, the failures behind
/// `failed`, and the measured metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation; it failed if any of `problems` is non-empty.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Share of the attempted operations that passed their checks.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Renders the result line for `table`: every metric of the table must be
    /// present (`default` fills the gaps when given) and no other may be.
    pub fn result_line(
        &self,
        table: &[(String, &str)],
        default: Option<f64>,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match (self.metrics.get(name), default) {
                (Some(&v), _) | (None, Some(v)) => v,
                (None, None) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        if let Some(extra) = self.metrics.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the reported table"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (lower middle for even sizes) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether a run that began at `start` and has completed `rounds` rounds
/// starts another: always below `min_rounds` (at least 1), otherwise only if
/// one more round of the average length still ends within `seconds`.
pub fn another_round(start: Instant, rounds: u32, min_rounds: u32, seconds: f64) -> bool {
    rounds < min_rounds.max(1)
        || secs(start.elapsed()) * f64::from(rounds + 1) / f64::from(rounds) <= seconds
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The seed of a run's `index`-th input instance; instance 0 uses the
/// workload seed itself.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// SplitMix64: the deterministic stream the churn and read schedules draw from.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_requires_every_metric_and_nothing_else() {
        let table = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let mut report = Report::default();
        report.record(Vec::new());
        report.set("a", 1.5);
        assert!(report.result_line(&table, None).is_err());
        let line = report.result_line(&table, Some(0.0)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        report.set("c", 2.0);
        assert!(report.result_line(&table, Some(0.0)).is_err());
        report.record(vec!["broken".into()]);
        report.metrics.remove("c");
        assert!(report.result_line(&table, Some(0.0)).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn rounds_continue_while_another_fits() {
        let start = Instant::now();
        assert!(another_round(start, 0, 0, -1.0), "at least one round always runs");
        assert!(another_round(start, 1, 2, -1.0));
        assert!(!another_round(start, 2, 2, -1.0));
        assert!(another_round(start, 2, 2, 1e9));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
