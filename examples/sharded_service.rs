//! The streaming service at several shard counts: community-owning shards,
//! deterministic cross-shard moves, per-shard checkpoint/replay.
//!
//! `ServiceConfig::shards` spreads the streaming service's refinement over
//! shard workers that each own whole communities. This example exercises the
//! shard-layer guarantees end to end:
//!
//! 1. the shard count is a pure deployment knob — 1, 2 and 8 shards land on
//!    bit-identical partitions and maintained quality bits;
//! 2. events route deterministically to the shards owning their endpoints'
//!    communities, with boundary events replicated to both owners;
//! 3. a simulated crash is recovered from the per-shard checkpoint manifest
//!    plus every shard's journal log, bit-identical to the uninterrupted run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sharded_service
//! ```

use qhdcd::graph::generators;
use qhdcd::prelude::*;
use qhdcd::stream::{ShardManifest, StreamError};

fn main() -> Result<(), StreamError> {
    // A planted-partition graph with clear community structure.
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 400,
        num_communities: 5,
        p_in: 0.12,
        p_out: 0.004,
        seed: 42,
    })?;
    let n = pg.graph.num_nodes();

    // Deterministic churn without an RNG crate (SplitMix64).
    let mut state = 42u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut churn = Vec::new();
    for _ in 0..240 {
        let (u, v) = (next(n), next(n));
        if u != v {
            churn.push(EdgeEvent::Add { u, v, weight: 0.5 + (next(10) as f64) / 10.0 });
        }
    }

    // 1. The shard count changes parallelism and fault domains, never the
    //    result: run the same stream under 1, 2 and 8 shards.
    let config_for = |shards: usize| {
        let mut config = ServiceConfig { shards, ..ServiceConfig::default() }.with_seed(7);
        config.stream.detector = config.stream.detector.with_communities(5).with_seed(7);
        config.checkpoint_every = 4;
        config
    };
    let mut final_q: Option<u64> = None;
    let mut services = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut service =
            StreamingService::new(DynamicGraph::from_graph(&pg.graph), config_for(shards))?;
        for batch in churn.chunks(12) {
            service.ingest(batch)?;
        }
        let q = service.detector().modularity();
        println!(
            "{shards} shard(s): epoch {}, {} communities, Q = {q:.4}",
            service.epoch(),
            service.latest_snapshot().num_communities(),
        );
        match final_q {
            None => final_q = Some(q.to_bits()),
            Some(bits) => assert_eq!(bits, q.to_bits(), "shard count changed the result"),
        }
        services.push(service);
    }
    println!("1/2/8 shards: bit-identical maintained quality");

    // 2. Deterministic routing: every community has exactly one owning shard,
    //    and each shard's journal holds the events it owned (boundary events
    //    appear on both owners, primary on the lowest id).
    let service = services.last_mut().unwrap();
    let snap = service.latest_snapshot();
    for community in 0..snap.num_communities() {
        assert!(service.owner_of_community(community) < service.num_shards());
    }
    let logs = service.shard_journal_logs();
    let per_shard: Vec<usize> = logs.iter().map(|log| log.lines().count()).collect();
    let primaries: usize = logs.iter().map(|log| log.matches(" p ").count()).sum();
    println!(
        "shard journal entries: {per_shard:?} ({primaries} primaries = {} journaled events)",
        service.journal().len()
    );
    assert_eq!(primaries, service.journal().len());

    // 3. Crash recovery from the per-shard manifest: the automatic checkpoint
    //    embeds the 1-shard base checkpoint plus one checksummed slice per
    //    shard; manifest + shard journals rebuild the exact state.
    let manifest_text = service.latest_checkpoint().expect("auto checkpoint was cut").to_string();
    let manifest = ShardManifest::from_text(&manifest_text)?;
    println!(
        "manifest: {} shards, epoch {}, base section {} bytes",
        manifest.shards,
        manifest.epoch,
        manifest.base_text().len()
    );
    let recovered = StreamingService::recover_sharded(&manifest_text, &logs, config_for(8))?;
    assert_eq!(recovered.epoch(), service.epoch());
    assert_eq!(recovered.detector().partition(), service.detector().partition());
    assert_eq!(
        recovered.detector().modularity().to_bits(),
        service.detector().modularity().to_bits()
    );
    println!(
        "recovered from manifest + {} shard journals: epoch {}, Q bits identical",
        logs.len(),
        recovered.epoch()
    );
    Ok(())
}
