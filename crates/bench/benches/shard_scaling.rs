//! Shard-scaling benchmark: the streaming service at 1, 2 and 8 shards over
//! the identical event sequence.
//!
//! A 5 000-node planted-partition graph absorbs batches of churn through a
//! `StreamingService` at each `ServiceConfig::shards` count. Per-batch ingest latency is timed
//! for every count, and **bit-identity is asserted inside the bench** before
//! any ratio is reported: the final partition, maintained quality bits and
//! the checkpoint base bytes must agree across all shard counts (the shard
//! count is a deployment knob, never a semantic one).
//!
//! At one shard the service refines sequentially; at more, the shard workers
//! parallelize the propose phase of refinement with scoped threads, so the
//! ratios below are honest about hardware: on a single-core
//! container the extra shards can only add thread overhead, and the gate is
//! correctness plus bounded overhead rather than speedup. The
//! machine-readable summary between `BENCH_JSON_BEGIN`/`BENCH_JSON_END` is
//! captured into `BENCH_refine.json` at the repo root.
//!
//! The timed region is stateful (each batch mutates the graph), so this
//! harness uses explicit per-batch `Instant` timing instead of criterion's
//! repeated-closure measurement.

use qhdcd_core::CommunityDetector;
use qhdcd_graph::{generators, DynamicGraph, EdgeEvent};
use qhdcd_stream::{ServiceConfig, ShardManifest, StreamingDetector, StreamingService};
use std::time::Instant;

const NUM_NODES: usize = 5_000;
const NUM_COMMUNITIES: usize = 10;
const BATCHES: usize = 30;
const ADDS_PER_BATCH: usize = 12;
const REMOVALS_PER_BATCH: usize = 6;
const SEED: u64 = 2025;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    values[values.len() / 2]
}

/// SplitMix64 stream — deterministic churn, no RNG crate needed.
struct Churn {
    state: u64,
}

impl Churn {
    fn next(&mut self, bound: usize) -> usize {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

fn main() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: NUM_NODES,
        num_communities: NUM_COMMUNITIES,
        p_in: 0.012,
        p_out: 0.0006,
        seed: SEED,
    })
    .expect("valid generator configuration");
    println!("instance: {} nodes, {} edges", pg.graph.num_nodes(), pg.graph.num_edges());

    let detector_config =
        CommunityDetector::classical_fallback().with_communities(NUM_COMMUNITIES).with_seed(SEED);
    let initial = detector_config.detect(&pg.graph).expect("initial detection succeeds");
    println!("initial detection: Q = {:.4}", initial.modularity);

    // Pre-generate the event sequence so every shard count replays the same
    // churn (same generator as the streaming_maintenance bench).
    let mut churn = Churn { state: SEED };
    let mut added: Vec<(usize, usize)> = Vec::new();
    let batches: Vec<Vec<EdgeEvent>> = (0..BATCHES)
        .map(|_| {
            let mut events = Vec::new();
            while events.len() < ADDS_PER_BATCH {
                let (u, v) = (churn.next(NUM_NODES), churn.next(NUM_NODES));
                if u != v
                    && !added.contains(&(u, v))
                    && !added.contains(&(v, u))
                    && !pg.graph.has_edge(u, v)
                {
                    events.push(EdgeEvent::Add { u, v, weight: 1.0 });
                    added.push((u, v));
                }
            }
            for _ in 0..REMOVALS_PER_BATCH {
                if let Some((u, v)) = added.pop() {
                    events.push(EdgeEvent::Remove { u, v });
                }
            }
            events
        })
        .collect();

    let parallelism =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut medians: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<(u64, qhdcd_graph::Partition, String)> = None;
    for &shards in &SHARD_COUNTS {
        let mut config = ServiceConfig { shards, ..ServiceConfig::default() }.with_seed(SEED);
        config.stream.detector = detector_config.clone();
        let detector = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&pg.graph),
            initial.partition.clone(),
            config.stream.clone(),
        )
        .expect("valid streaming configuration");
        let mut service =
            StreamingService::from_detector(detector, config).expect("valid service configuration");

        let mut batch_ms = Vec::with_capacity(BATCHES);
        for batch in &batches {
            let start = Instant::now();
            service.ingest(batch).expect("batch applies cleanly");
            batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let med = median(&mut batch_ms);
        println!("{shards} shard(s): median {med:.3} ms/batch, Q = {:.4}", {
            service.detector().modularity()
        });
        medians.push((shards, med));

        // Bit-identity gate, inside the bench: partition, quality bits and
        // checkpoint base bytes must not depend on the shard count.
        let q_bits = service.detector().modularity().to_bits();
        let partition = service.detector().partition();
        let checkpoint = service.checkpoint();
        let base = if shards == 1 {
            checkpoint
        } else {
            ShardManifest::from_text(&checkpoint)
                .expect("own manifest parses")
                .base_text()
                .to_string()
        };
        match &reference {
            None => reference = Some((q_bits, partition, base)),
            Some((ref_bits, ref_partition, ref_base)) => {
                assert_eq!(*ref_bits, q_bits, "{shards} shards changed the quality bits");
                assert_eq!(*ref_partition, partition, "{shards} shards changed the partition");
                assert_eq!(*ref_base, base, "{shards} shards changed the checkpoint base bytes");
            }
        }
    }

    let base = medians[0].1;
    let ratios: Vec<(usize, f64)> = medians.iter().map(|&(s, m)| (s, base / m)).collect();
    for &(shards, ratio) in &ratios {
        println!("{shards} shard(s): {ratio:.2}x vs 1 shard");
    }
    // On a single-core container the honest expectation is bounded overhead,
    // not speedup; on multi-core hardware the propose phase parallelizes.
    if parallelism == 1 {
        assert!(
            ratios.iter().all(|&(_, r)| r > 0.4),
            "sharding overhead must stay bounded on one core"
        );
    }

    println!("BENCH_JSON_BEGIN");
    let scaling = ratios
        .iter()
        .zip(&medians)
        .map(|(&(shards, ratio), &(_, med))| {
            format!(
                "{{ \"shards\": {shards}, \"median_ms\": {med:.3}, \"ratio_vs_1_shard\": \
                 {ratio:.2} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"instance\": {{ \"num_nodes\": {NUM_NODES}, \
         \"num_communities\": {NUM_COMMUNITIES}, \"edges\": {}, \"seed\": {SEED} }},\n  \
         \"schedule\": {{ \"batches\": {BATCHES}, \"adds_per_batch\": {ADDS_PER_BATCH}, \
         \"removals_per_batch\": {REMOVALS_PER_BATCH} }},\n  \"available_parallelism\": \
         {parallelism},\n  \"scaling\": [{scaling}],\n  \
         \"bit_identical_across_shard_counts\": true\n}}",
        pg.graph.num_edges()
    );
    println!("BENCH_JSON_END");
}
