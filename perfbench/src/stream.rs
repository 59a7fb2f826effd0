//! The `stream-churn` workload: a `StreamingService` absorbing SplitMix64
//! edge churn in a closed loop, with snapshot reads beside the writes.
//!
//! One client on the writer's own thread runs, per batch,
//! `client.submit` → `service.step` → `reader.latest()` (which must show the
//! new epoch), then a read block of 64 `community_of` and 4
//! `top_communities_near(_, 5)` calls. A run sets up five instances (graph,
//! initial partition, churn schedule), each from its own seed derived from the
//! workload seed, and replays them in episodes, each on a fresh service built
//! from the instance's initial partition, until `--seconds` have passed; every
//! episode ends with a recovery from its midpoint checkpoint plus the full
//! journal.

use crate::report::{
    another_round, instance_seed, median, peak_rss_mb, percentile, secs, Report, SplitMix64,
};
use qhdcd_core::multilevel::{self, MultilevelConfig};
use qhdcd_core::CommunityDetector;
use qhdcd_graph::generators::{planted_partition, PlantedPartitionConfig};
use qhdcd_graph::{modularity, Graph, Partition};
use qhdcd_solvers::{MoveSet, PortfolioSolver};
use qhdcd_stream::{
    DynamicGraph, EdgeEvent, PartitionSnapshot, ServiceConfig, StreamConfig, StreamError,
    StreamStats, StreamingDetector, StreamingService,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker threads of the portfolio solver behind the initial detection.
pub const PORTFOLIO_THREADS: usize = 2;
/// Instances per run; `setup_s` is the median of their set-up times.
const INSTANCES: usize = 5;
const ADDS_PER_BATCH: usize = 12;
const REMOVALS_PER_BATCH: usize = 6;
const MAX_BATCH: usize = ADDS_PER_BATCH + REMOVALS_PER_BATCH;
const CHECKPOINT_EVERY: u64 = 25;
const COMMUNITY_READS: usize = 64;
const NEAR_READS: usize = 4;

/// Size of the streaming workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub nodes: usize,
    pub communities: usize,
    /// Batches per episode; half of it must be a multiple of the checkpoint
    /// interval, so the midpoint is an automatic checkpoint.
    pub batches: usize,
}

/// 5 000 nodes in 10 communities at average degree about 13. 1 000 batches
/// keep the accumulated drift under the re-detect threshold, so no full
/// re-detect fires and the episode measures only the streaming layers.
pub const CHURN: StreamSpec = StreamSpec { nodes: 5_000, communities: 10, batches: 1_000 };

impl StreamSpec {
    fn graph(&self, seed: u64) -> Result<Graph, String> {
        let block = self.nodes as f64 / self.communities as f64;
        let config = PlantedPartitionConfig {
            num_nodes: self.nodes,
            num_communities: self.communities,
            p_in: 12.0 / block,
            p_out: 1.5 / self.nodes as f64,
            seed,
        };
        planted_partition(&config)
            .map(|pg| pg.graph)
            .map_err(|e| format!("graph generation failed: {e}"))
    }

    /// The churn schedule of `streaming_maintenance`: per batch, 12 additions
    /// of edges absent from the graph, then 6 removals of the most recently
    /// added ones.
    fn churn(&self, graph: &Graph, seed: u64) -> Vec<Vec<EdgeEvent>> {
        let mut rng = SplitMix64(seed);
        let mut added: Vec<(usize, usize)> = Vec::new();
        let mut present: HashSet<(usize, usize)> = HashSet::new();
        (0..self.batches)
            .map(|_| {
                let mut events = Vec::with_capacity(MAX_BATCH);
                while events.len() < ADDS_PER_BATCH {
                    let (u, v) = (rng.below(self.nodes), rng.below(self.nodes));
                    let key = (u.min(v), u.max(v));
                    if u != v && !present.contains(&key) && !graph.has_edge(u, v) {
                        events.push(EdgeEvent::Add { u, v, weight: 1.0 });
                        added.push((u, v));
                        present.insert(key);
                    }
                }
                for _ in 0..REMOVALS_PER_BATCH {
                    let (u, v) = added.pop().expect("each batch adds more than it removes");
                    present.remove(&(u.min(v), u.max(v)));
                    events.push(EdgeEvent::Remove { u, v });
                }
                events
            })
            .collect()
    }

    /// The nodes each batch's read block looks up.
    fn reads(&self, seed: u64) -> Vec<usize> {
        let mut rng = SplitMix64(seed ^ 0x5eed_5eed_5eed_5eed);
        (0..self.batches * (COMMUNITY_READS + NEAR_READS)).map(|_| rng.below(self.nodes)).collect()
    }

    fn service_config(&self, seed: u64, checkpoint_every: u64) -> ServiceConfig {
        let detector = CommunityDetector::classical_fallback()
            .with_communities(self.communities)
            .with_seed(seed);
        let stream = StreamConfig { detector, ..StreamConfig::default() };
        ServiceConfig { stream, max_batch: MAX_BATCH, checkpoint_every, ..ServiceConfig::default() }
    }

    /// The initial detection `StreamingService::new` runs (the classical
    /// fallback: multilevel with a pair-aware portfolio), with the portfolio's
    /// threads pinned instead of sized from the host.
    fn initial_partition(&self, graph: &Graph, seed: u64) -> Result<Partition, String> {
        let mut solver = PortfolioSolver::default().with_seed(seed).with_threads(PORTFOLIO_THREADS);
        solver.config.move_set = MoveSet::PairAware;
        let config = MultilevelConfig::with_communities(self.communities);
        multilevel::detect(graph, &solver, &config)
            .map(|out| out.partition)
            .map_err(|e| format!("initial detection failed: {e}"))
    }
}

/// One input instance of a run, with everything its episodes replay.
struct Instance {
    seed: u64,
    graph: Graph,
    initial: Partition,
    churn: Vec<Vec<EdgeEvent>>,
    reads: Vec<usize>,
}

impl Instance {
    /// Generates the graph, the churn and the read schedule, runs the initial
    /// detection and builds one service, as a user's start-up would.
    fn new(spec: &StreamSpec, seed: u64) -> Result<Self, String> {
        let graph = spec.graph(seed)?;
        let churn = spec.churn(&graph, seed);
        let reads = spec.reads(seed);
        let initial = spec.initial_partition(&graph, seed)?;
        let instance = Instance { seed, graph, initial, churn, reads };
        drop(instance.service(spec, CHECKPOINT_EVERY)?);
        Ok(instance)
    }

    /// A fresh service seeded with the initial partition.
    fn service(
        &self,
        spec: &StreamSpec,
        checkpoint_every: u64,
    ) -> Result<StreamingService, String> {
        let config = spec.service_config(self.seed, checkpoint_every);
        StreamingDetector::from_partition(
            DynamicGraph::from_graph(&self.graph),
            self.initial.clone(),
            config.stream.clone(),
        )
        .and_then(|detector| StreamingService::from_detector(detector, config))
        .map_err(|e| format!("service construction failed: {e}"))
    }

    /// The nodes the read block after batch `index` looks up.
    fn reads_after(&self, index: usize) -> &[usize] {
        let per_block = COMMUNITY_READS + NEAR_READS;
        &self.reads[index * per_block..][..per_block]
    }

    /// Recovers a service from `checkpoint` plus `live`'s full journal; the
    /// duration covers `StreamingService::recover` alone.
    fn recover(
        &self,
        spec: &StreamSpec,
        checkpoint: Option<String>,
        live: &StreamingService,
    ) -> (Result<StreamingService, String>, Duration) {
        let Some(checkpoint) = checkpoint else {
            return (Err("no checkpoint was cut at the midpoint".into()), Duration::ZERO);
        };
        let journal = live.journal_log();
        let config = spec.service_config(self.seed, CHECKPOINT_EVERY);
        let t = Instant::now();
        let recovered = StreamingService::recover(&checkpoint, &journal, config)
            .map_err(|e| format!("recovery failed: {e}"));
        (recovered, t.elapsed())
    }
}

/// Sets up the run's instances; returns them with their set-up times.
fn setup(spec: &StreamSpec, seed: u64, count: usize) -> Result<(Vec<Instance>, Vec<f64>), String> {
    let mut instances = Vec::with_capacity(count);
    let mut times = Vec::with_capacity(count);
    for index in 0..count {
        let t = Instant::now();
        instances.push(Instance::new(spec, instance_seed(seed, index))?);
        times.push(secs(t.elapsed()));
    }
    Ok((instances, times))
}

/// One read block on a published snapshot; returns a checksum of the answers.
fn read_block(snapshot: &PartitionSnapshot, nodes: &[usize]) -> usize {
    let (lookups, near) = nodes.split_at(COMMUNITY_READS);
    let mut sum = 0usize;
    for &node in lookups {
        sum = sum.wrapping_add(snapshot.community_of(node).unwrap_or(usize::MAX));
    }
    for &node in near {
        sum = sum.wrapping_add(snapshot.top_communities_near(node, 5).len());
    }
    sum
}

/// Checks of the submit → step → latest round trip of batch `index`.
fn check_batch(
    index: usize,
    batch: &[EdgeEvent],
    applied: &Result<Option<StreamStats>, StreamError>,
    snapshot: &PartitionSnapshot,
) -> Vec<String> {
    let mut problems = Vec::new();
    match applied {
        Ok(Some(stats)) if stats.events_applied == batch.len() => {}
        Ok(Some(stats)) => problems.push(format!(
            "batch {index}: step applied {} of {} events",
            stats.events_applied,
            batch.len()
        )),
        Ok(None) => problems.push(format!("batch {index}: step found the queue empty")),
        Err(e) => problems.push(format!("batch {index}: step failed: {e}")),
    }
    if snapshot.epoch() != index as u64 + 1 {
        problems.push(format!(
            "batch {index}: reader sees epoch {}, not {}",
            snapshot.epoch(),
            index + 1
        ));
    }
    problems
}

/// End-of-episode checks: the maintained Q equals the Q recomputed from the
/// snapshot graph within 1e-9, and the service recovered from the midpoint
/// checkpoint plus the full journal matches the live one bit for bit.
fn check_episode(
    live: &StreamingService,
    recovered: &Result<StreamingService, String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let detector = live.detector();
    let recomputed = modularity::modularity(&detector.graph().snapshot(), &detector.partition());
    if (detector.modularity() - recomputed).abs() > 1e-9 {
        problems
            .push(format!("maintained Q {} != recomputed Q {recomputed}", detector.modularity()));
    }
    match recovered {
        Ok(rec) => {
            if rec.detector().partition() != detector.partition()
                || rec.detector().modularity().to_bits() != detector.modularity().to_bits()
            {
                problems.push(format!(
                    "recovered service differs: Q {} vs live {}",
                    rec.detector().modularity(),
                    detector.modularity()
                ));
            }
        }
        Err(e) => problems.push(e.clone()),
    }
    problems
}

/// Untraced run: rounds of one episode per instance, until `seconds` would be
/// exceeded by another round (at least one).
pub fn run(spec: &StreamSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let (instances, setup_times) = setup(spec, seed, INSTANCES)?;
    let mut report = Report::default();
    let mut latencies = Vec::new();
    let mut final_q: Vec<Option<f64>> = vec![None; instances.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while another_round(start, rounds, 1, seconds) {
        for (instance, first_q) in instances.iter().zip(&mut final_q) {
            let mut live = instance.service(spec, CHECKPOINT_EVERY)?;
            let client = live.client();
            let mut reader = live.reader();
            let mut midpoint = None;
            let mut checksum = 0usize;
            for (index, batch) in instance.churn.iter().enumerate() {
                let t = Instant::now();
                let submitted = client.submit(batch);
                let applied = live.step();
                let snapshot = reader.latest();
                latencies.push(secs(t.elapsed()) * 1e3);
                checksum =
                    checksum.wrapping_add(read_block(&snapshot, instance.reads_after(index)));
                let mut problems = check_batch(index, batch, &applied, &snapshot);
                if let Err(e) = submitted {
                    problems.push(format!("batch {index}: submit failed: {e}"));
                }
                report.record(problems);
                if index + 1 == spec.batches / 2 {
                    midpoint = live.latest_checkpoint().map(str::to_owned);
                }
            }
            black_box(checksum);
            let (recovered, _) = instance.recover(spec, midpoint, &live);
            let mut problems = check_episode(&live, &recovered);
            let q = live.detector().modularity();
            if let Some(first) = first_q.filter(|first| first.to_bits() != q.to_bits()) {
                problems.push(format!("episode ended at Q {q}, the instance's first at {first}"));
            }
            report.record(problems);
            first_q.get_or_insert(q);
        }
        rounds += 1;
    }
    let quality: f64 = final_q.iter().map(|q| q.expect("every instance ran")).sum();
    report.set("setup_s", median(&setup_times));
    report.set("request_p50_ms", percentile(&latencies, 50.0));
    report.set("request_tail_ms", percentile(&latencies, 99.0));
    report.set("modularity", quality / instances.len() as f64);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.set("ok_ratio", report.ok_ratio());
    Ok(report)
}

/// Per-call timings of the traced episodes.
#[derive(Default)]
struct StreamTrace {
    submit: Vec<f64>,
    step: Vec<f64>,
    apply: Vec<f64>,
    publish: Vec<f64>,
    read: Vec<f64>,
    checkpoint: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    recover: Vec<f64>,
    overhead: Vec<f64>,
    service_time: f64,
    events: usize,
    frontier: usize,
    moved: usize,
    passes: usize,
    full_redetects: usize,
}

/// Traced run: the service runs with automatic checkpoints off and the
/// benchmark cuts them itself on the same batches; a mirror
/// `StreamingDetector` applies the same batches, timing `apply_events` and the
/// `graph().snapshot()` freeze every publication performs. A mirror whose Q
/// bits leave the service's fails the run naming the layer.
pub fn run_traced(spec: &StreamSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let (instances, _) = setup(spec, seed, INSTANCES)?;
    let mut report = Report::default();
    let mut tr = StreamTrace::default();
    let start = Instant::now();
    let mut rounds = 0;
    while report.failed == 0 && another_round(start, rounds, 1, seconds) {
        for instance in &instances {
            trace_episode(spec, instance, &mut report, &mut tr)?;
        }
        rounds += 1;
    }
    let batches = tr.submit.len().max(1) as f64;
    report.set("stream.submit.time_s", median(&tr.submit));
    report.set("stream.step.time_s", median(&tr.step));
    report.set("stream.apply.time_s", median(&tr.apply));
    report.set("stream.publish.time_s", median(&tr.publish));
    report.set("stream.read.time_s", median(&tr.read));
    report.set("stream.checkpoint.time_s", median(&tr.checkpoint));
    report.set("stream.checkpoint.bytes", median(&tr.checkpoint_bytes));
    report.set("stream.recover.time_s", median(&tr.recover));
    report.set("stream.events_per_s", tr.events as f64 / tr.service_time);
    report.set("stream.frontier_size", tr.frontier as f64 / batches);
    report.set("stream.nodes_moved", tr.moved as f64 / batches);
    report.set("stream.refine_passes", tr.passes as f64 / batches);
    report.set("stream.full_redetects", tr.full_redetects as f64);
    report.set("stream.move_ratio", tr.moved as f64 / tr.frontier.max(1) as f64);
    report.set("trace.overhead_s", median(&tr.overhead));
    Ok(report)
}

/// One traced episode of `instance`; stops at the first failing batch.
fn trace_episode(
    spec: &StreamSpec,
    instance: &Instance,
    report: &mut Report,
    tr: &mut StreamTrace,
) -> Result<(), String> {
    let episode = Instant::now();
    let mut service_time = Duration::ZERO;
    let mut live = instance.service(spec, 0)?;
    let mut mirror = StreamingDetector::from_partition(
        DynamicGraph::from_graph(&instance.graph),
        instance.initial.clone(),
        spec.service_config(instance.seed, 0).stream,
    )
    .map_err(|e| format!("mirror construction failed: {e}"))?;
    let client = live.client();
    let mut reader = live.reader();
    let mut midpoint = None;
    for (index, batch) in instance.churn.iter().enumerate() {
        let t = Instant::now();
        let submitted = client.submit(batch);
        let submit = t.elapsed();
        let t = Instant::now();
        let applied = live.step();
        let step = t.elapsed();
        let t = Instant::now();
        let snapshot = reader.latest();
        let latest = t.elapsed();
        let t = Instant::now();
        black_box(read_block(&snapshot, instance.reads_after(index)));
        let read = t.elapsed();
        let mut checkpoint = Duration::ZERO;
        if (index as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            let text = live.checkpoint();
            checkpoint = t.elapsed();
            tr.checkpoint.push(secs(checkpoint));
            tr.checkpoint_bytes.push(text.len() as f64);
            if index + 1 == spec.batches / 2 {
                midpoint = Some(text);
            }
        }
        service_time += submit + step + latest + read + checkpoint;

        let t = Instant::now();
        let mirrored = mirror.apply_events(batch);
        tr.apply.push(secs(t.elapsed()));
        let t = Instant::now();
        black_box(mirror.graph().snapshot());
        tr.publish.push(secs(t.elapsed()));

        let mut problems = check_batch(index, batch, &applied, &snapshot);
        if let Err(e) = submitted {
            problems.push(format!("batch {index}: submit failed: {e}"));
        }
        match (&applied, &mirrored) {
            (Ok(Some(stats)), Ok(m)) if stats.modularity.to_bits() == m.modularity.to_bits() => {
                tr.frontier += stats.frontier_size;
                tr.moved += stats.nodes_moved;
                tr.passes += stats.refine_passes;
                tr.full_redetects += usize::from(stats.full_redetect);
                tr.events += stats.events_applied;
            }
            (_, Err(e)) => problems.push(format!("batch {index}: mirror apply failed: {e}")),
            (_, Ok(m)) => problems.push(format!(
                "batch {index}: mirror diverged at apply: Q {} vs service {}",
                m.modularity,
                live.detector().modularity()
            )),
        }
        tr.submit.push(secs(submit));
        tr.step.push(secs(step));
        tr.read.push(secs(read));
        let failed = !problems.is_empty();
        report.record(problems);
        if failed {
            return Ok(());
        }
    }
    let (recovered, recover) = instance.recover(spec, midpoint, &live);
    tr.recover.push(secs(recover));
    report.record(check_episode(&live, &recovered));
    tr.overhead.push(secs(episode.elapsed()) - secs(service_time) - secs(recover));
    tr.service_time += secs(service_time);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: StreamSpec = StreamSpec { nodes: 3_000, communities: 6, batches: 50 };

    #[test]
    fn pinned_initial_detection_matches_the_service_constructor() {
        let instance = Instance::new(&TINY, 7).unwrap();
        let config = TINY.service_config(7, CHECKPOINT_EVERY);
        let graph = DynamicGraph::from_graph(&instance.graph);
        let reference = StreamingService::new(graph, config).unwrap();
        let pinned = instance.service(&TINY, CHECKPOINT_EVERY).unwrap();
        assert_eq!(pinned.detector().partition(), reference.detector().partition());
        assert_eq!(
            pinned.detector().modularity().to_bits(),
            reference.detector().modularity().to_bits()
        );
    }

    #[test]
    fn churn_is_seeded_and_every_batch_is_valid() {
        let graph = TINY.graph(2).unwrap();
        let churn = TINY.churn(&graph, 2);
        assert_eq!(churn, TINY.churn(&graph, 2));
        assert_ne!(churn, TINY.churn(&graph, 3));
        assert!(churn.iter().all(|b| b.len() == MAX_BATCH));
        let mut dynamic = DynamicGraph::from_graph(&graph);
        for batch in &churn {
            dynamic.apply_events(batch).unwrap();
        }
        assert_eq!(
            dynamic.num_edges(),
            graph.num_edges() + TINY.batches * (ADDS_PER_BATCH - REMOVALS_PER_BATCH)
        );
    }

    #[test]
    fn episode_checks_catch_a_diverged_recovery() {
        let instance = Instance::new(&TINY, 4).unwrap();
        let mut live = instance.service(&TINY, CHECKPOINT_EVERY).unwrap();
        let mut midpoint = None;
        for (index, batch) in instance.churn.iter().enumerate() {
            live.ingest(batch).unwrap();
            if index + 1 == TINY.batches / 2 {
                midpoint = live.latest_checkpoint().map(str::to_owned);
            }
        }
        let (recovered, _) = instance.recover(&TINY, midpoint, &live);
        assert!(check_episode(&live, &recovered).is_empty());
        let stale = instance.service(&TINY, CHECKPOINT_EVERY);
        assert_eq!(check_episode(&live, &stale).len(), 1);
        let (missing, _) = instance.recover(&TINY, None, &live);
        assert_eq!(check_episode(&live, &missing).len(), 1);
    }

    #[test]
    fn runs_report_every_metric_at_a_tiny_size() {
        let report = run(&TINY, 1, 0.0).unwrap();
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert_eq!(report.attempted, INSTANCES as u64 * (TINY.batches as u64 + 1));
        report.result_line(&crate::end_to_end_table(), None).unwrap();
        let traced = run_traced(&TINY, 1, 0.0).unwrap();
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        assert_eq!(traced.metrics["stream.full_redetects"], 0.0);
        traced.result_line(&crate::report::per_layer(), Some(0.0)).unwrap();
    }
}
