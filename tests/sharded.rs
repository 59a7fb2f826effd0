//! Integration tests of the streaming service at more than one shard.
//!
//! The contract under test: `ServiceConfig::shards` is a **pure deployment
//! knob** — for the same graph, seed and event sequence, a `StreamingService`
//! with 1, 2 or 8 shards lands on bit-identical partitions, maintained
//! quality bits, journals and checkpoint base bytes, drains the queue in the
//! same `max_batch` batches, quarantines the same poisoned batches, and
//! per-shard checkpoint manifests recover bit-identically from every batch
//! boundary. The long churn sweep at the bottom is `#[ignore]`d (nightly CI
//! job).

use qhdcd::graph::generators;
use qhdcd::prelude::*;
use qhdcd::stream::{ShardManifest, StreamError, StreamingService};

/// SplitMix64 — deterministic pseudo-randomness without an RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic churn batches over `n` nodes (same generator as
/// `tests/service.rs`): adds, removes, weight updates and occasional node
/// deletions, each batch valid against the state the previous ones left.
fn churn_batches(
    shadow: &mut DynamicGraph,
    seed: u64,
    num_batches: usize,
    batch_size: usize,
) -> Vec<Vec<EdgeEvent>> {
    let n = shadow.num_nodes();
    let mut state = seed;
    let mut batches = Vec::with_capacity(num_batches);
    for b in 0..num_batches {
        let mut events = Vec::with_capacity(batch_size);
        while events.len() < batch_size {
            let kind = splitmix(&mut state) % 10;
            let u = (splitmix(&mut state) % n as u64) as usize;
            let v = (splitmix(&mut state) % n as u64) as usize;
            let w = 0.25 + (splitmix(&mut state) % 8) as f64 / 4.0;
            let event = match kind {
                0..=4 => EdgeEvent::Add { u, v, weight: w },
                5 | 6 => {
                    if !shadow.has_edge(u, v) {
                        continue;
                    }
                    EdgeEvent::Remove { u, v }
                }
                7 | 8 => {
                    if !shadow.has_edge(u, v) {
                        continue;
                    }
                    EdgeEvent::Update { u, v, weight: w }
                }
                _ => {
                    if b % 3 != 0 {
                        continue;
                    }
                    EdgeEvent::RemoveNode { u }
                }
            };
            shadow.apply(&event).unwrap();
            events.push(event);
        }
        batches.push(events);
    }
    batches
}

fn seeded_service(graph: &Graph, partition: &Partition, config: ServiceConfig) -> StreamingService {
    let detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(graph),
        partition.clone(),
        config.stream.clone(),
    )
    .unwrap();
    StreamingService::from_detector(detector, config).unwrap()
}

/// The full bit-level fingerprint of a service's mutable state.
fn fingerprint(service: &StreamingService) -> (u64, Partition, u64, u64, u64, usize, String) {
    (
        service.detector().modularity().to_bits(),
        service.detector().partition(),
        service.epoch(),
        service.detector().batches_applied(),
        service.detector().full_redetects(),
        service.journal().len(),
        service.journal_log(),
    )
}

fn churn_config() -> StreamConfig {
    StreamConfig { drift_threshold: 0.15, ..StreamConfig::default() }.with_seed(23)
}

/// The base checkpoint text of `checkpoint`: the text itself at one shard,
/// the manifest's base section at more.
fn base_text(checkpoint: String, shards: usize) -> String {
    if shards == 1 {
        return checkpoint;
    }
    let manifest = ShardManifest::from_text(&checkpoint).unwrap();
    assert_eq!(manifest.shards, shards);
    manifest.base_text().to_string()
}

/// The headline acceptance criterion: for 1, 2 and 8 shards, a mixed event
/// sequence (including node deletions and drift-triggered full re-detects,
/// which renumber communities and force an ownership re-derivation) lands on
/// the **bit-identical** final partition, maintained quality bits, journal
/// and checkpoint base bytes.
#[test]
fn sharded_runs_are_bit_identical_to_unsharded_for_1_2_8_shards() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6);

    let mut reference = seeded_service(
        &pg.graph,
        &pg.ground_truth,
        ServiceConfig { stream: churn_config(), ..ServiceConfig::default() },
    );
    for batch in &batches {
        reference.ingest(batch).unwrap();
    }
    assert!(
        reference.detector().full_redetects() > 0,
        "the sequence should cross the epoch-fallback (ownership re-derivation) path"
    );
    let reference_state = fingerprint(&reference);
    let reference_checkpoint = reference.checkpoint();

    for shards in [1usize, 2, 8] {
        let mut service = seeded_service(
            &pg.graph,
            &pg.ground_truth,
            ServiceConfig { shards, stream: churn_config(), ..ServiceConfig::default() },
        );
        for batch in &batches {
            service.ingest(batch).unwrap();
        }
        assert_eq!(fingerprint(&service), reference_state, "shards={shards}");
        // The manifest's base section is byte-for-byte the 1-shard
        // checkpoint, so any 1-shard tooling can read a sharded manifest.
        let checkpoint = service.checkpoint();
        if shards > 1 {
            assert_eq!(ShardManifest::from_text(&checkpoint).unwrap().epoch, service.epoch());
        }
        assert_eq!(base_text(checkpoint, shards), reference_checkpoint, "shards={shards}");
    }
}

/// Crash consistency, exhaustively: cut a sharded manifest at *every* batch
/// boundary, then recover each from the manifest plus the (longer) per-shard
/// journal logs the crashed process left behind. Every recovery must
/// reproduce the uninterrupted final state bit-identically — including the
/// next checkpoint it would cut and its per-shard journals.
#[test]
fn sharded_recovery_is_bit_identical_at_every_crash_point() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    let config = ServiceConfig { shards: 3, stream: churn_config(), ..ServiceConfig::default() };
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6);

    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
    let mut manifests = vec![service.checkpoint()];
    for batch in &batches {
        service.ingest(batch).unwrap();
        manifests.push(service.checkpoint());
    }
    let logs = service.shard_journal_logs();
    let reference = fingerprint(&service);
    let final_manifest = manifests.last().unwrap().clone();

    for (crash_point, manifest) in manifests.iter().enumerate() {
        let mut recovered =
            StreamingService::recover_sharded(manifest, &logs, config.clone()).unwrap();
        assert_eq!(
            fingerprint(&recovered),
            reference,
            "recovery from the manifest at batch {crash_point} diverged"
        );
        assert_eq!(recovered.shard_journal_logs(), logs, "crash point {crash_point}");
        assert_eq!(recovered.checkpoint(), final_manifest, "crash point {crash_point}");
    }
}

/// Recovery refuses mismatched inputs instead of silently restoring mixed
/// state: wrong shard count, the wrong recovery path for the shard count,
/// missing journal logs, journal logs behind the manifest, corrupted manifest
/// text.
#[test]
fn sharded_recovery_rejects_mismatched_inputs() {
    let graph = generators::karate_club();
    let config = ServiceConfig {
        shards: 2,
        stream: StreamConfig::default().with_seed(7),
        ..ServiceConfig::default()
    };
    let mut service =
        seeded_service(&graph, &generators::karate_club_communities(), config.clone());
    for batch in [
        vec![
            EdgeEvent::Add { u: 0, v: 33, weight: 1.0 },
            EdgeEvent::Add { u: 1, v: 20, weight: 0.5 },
        ],
        vec![EdgeEvent::Remove { u: 0, v: 33 }],
    ] {
        service.ingest(&batch).unwrap();
    }
    let manifest = service.checkpoint();
    let logs = service.shard_journal_logs();

    // Sanity: the intact inputs recover.
    StreamingService::recover_sharded(&manifest, &logs, config.clone()).unwrap();

    // Shard-count mismatch between the manifest and the recovery config.
    let three = ServiceConfig { shards: 3, ..config.clone() };
    let err =
        StreamingService::recover_sharded(&manifest, &vec![logs[0].clone(); 3], three).unwrap_err();
    assert!(err.to_string().contains("2 shards"), "{err}");

    // Each shard count has one recovery path: a manifest needs more than one
    // shard, a plain checkpoint exactly one.
    let one = ServiceConfig { shards: 1, ..config.clone() };
    let err = StreamingService::recover_sharded(&manifest, &logs, one).unwrap_err();
    assert!(matches!(err, StreamError::InvalidConfig { .. }), "{err}");
    let err =
        StreamingService::recover(&manifest, &service.journal_log(), config.clone()).unwrap_err();
    assert!(matches!(err, StreamError::InvalidConfig { .. }), "{err}");

    // Too few journal logs for the shard count.
    let err = StreamingService::recover_sharded(&manifest, &logs[..1], config.clone()).unwrap_err();
    assert!(err.to_string().contains("journal logs"), "{err}");

    // A journal log behind its manifest slice (lost tail) is named.
    let victim = logs.iter().position(|log| !log.is_empty()).unwrap();
    let mut truncated = logs.clone();
    truncated[victim] =
        truncated[victim].lines().next().map(|l| format!("{l}\n")).unwrap_or_default();
    match StreamingService::recover_sharded(&manifest, &truncated, config.clone()) {
        Err(StreamError::Manifest { reason, .. }) => {
            assert!(reason.contains(&format!("shard {victim}")), "{reason}");
        }
        other => panic!("expected a manifest error, got {other:?}"),
    }

    // Corrupted manifest text fails the checksum lattice.
    let corrupted = manifest.replace("qhdcd-service v2", "qhdcd-service v9");
    let err = StreamingService::recover_sharded(&corrupted, &logs, config.clone()).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    // A quality-function mismatch is refused up front, like the 1-shard
    // recovery path.
    let cpm = ServiceConfig {
        stream: StreamConfig::default().with_seed(7).with_quality(QualityFunction::cpm(0.05)),
        ..config
    };
    let err = StreamingService::recover_sharded(&manifest, &logs, cpm).unwrap_err();
    assert!(matches!(err, StreamError::Checkpoint { .. }), "{err}");
}

/// The queue-driven path (client submissions drained by `step`) and direct
/// `ingest` calls are the same computation at every shard count, and `step`
/// drains at most `max_batch` events: a backlog regroups into the same
/// journal batches at 1, 2 and 8 shards.
#[test]
fn queued_and_direct_sharded_ingestion_agree() {
    let pg = generators::ring_of_cliques(4, 6).unwrap();
    let stream = StreamConfig { drift_threshold: 0.2, ..StreamConfig::default() }.with_seed(11);
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 7, 8, 5);
    let backlog: Vec<EdgeEvent> = batches.concat();

    let mut regrouped_reference = None;
    for shards in [1usize, 2, 8] {
        let config = ServiceConfig { shards, stream: stream.clone(), ..ServiceConfig::default() };
        let mut direct = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
        for batch in &batches {
            direct.ingest(batch).unwrap();
        }

        // max_batch matches the submission size: the queue applies exactly
        // the batches the direct path did.
        let mut queued = seeded_service(
            &pg.graph,
            &pg.ground_truth,
            ServiceConfig { max_batch: 5, ..config.clone() },
        );
        let client = queued.client();
        for batch in &batches {
            client.try_submit(batch).unwrap();
            queued.drain().unwrap();
        }
        assert_eq!(fingerprint(&direct), fingerprint(&queued), "shards={shards}");
        assert_eq!(direct.shard_journal_logs(), queued.shard_journal_logs(), "shards={shards}");
        assert_eq!(queued.latest_snapshot().epoch(), queued.epoch());

        // A whole backlog queued at once: every step drains at most
        // max_batch events, in submission order.
        let mut regrouped = seeded_service(
            &pg.graph,
            &pg.ground_truth,
            ServiceConfig { max_batch: 3, ..config.clone() },
        );
        regrouped.client().try_submit(&backlog).unwrap();
        let stats = regrouped.drain().unwrap();
        assert!(stats.iter().all(|s| s.events_applied <= 3), "shards={shards}");
        assert_eq!(stats.len(), backlog.len().div_ceil(3), "shards={shards}");
        assert_eq!(regrouped.journal().num_batches(), stats.len());
        // The journal's batch boundaries (its timestamp column) and the
        // state they produce match the 1-shard run.
        let state = fingerprint(&regrouped);
        match &regrouped_reference {
            None => regrouped_reference = Some(state),
            Some(reference) => assert_eq!(&state, reference, "shards={shards}"),
        }
    }
}

/// Poisoned-batch quarantine at every shard count: a batch with one invalid
/// event among valid ones is dead-lettered whole after
/// `max_validation_attempts`, the queue keeps draining, and the final state
/// equals the 1-shard run and a direct run that never saw the batch.
#[test]
fn sharded_quarantine_dead_letters_poisoned_batches_and_keeps_draining() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6);
    let mut poisoned = vec![EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }; 5];
    poisoned.push(EdgeEvent::Add { u: 2, v: 3, weight: f64::NAN });

    let mut direct = seeded_service(
        &pg.graph,
        &pg.ground_truth,
        ServiceConfig { stream: churn_config(), ..ServiceConfig::default() },
    );
    for batch in &batches {
        direct.ingest(batch).unwrap();
    }
    let reference = fingerprint(&direct);

    for shards in [1usize, 2, 8] {
        let config = ServiceConfig {
            shards,
            stream: churn_config(),
            max_batch: 6,
            max_validation_attempts: 2,
            ..ServiceConfig::default()
        };
        let mut service = seeded_service(&pg.graph, &pg.ground_truth, config);
        let client = service.client();
        for (i, batch) in batches.iter().enumerate() {
            if i == 5 {
                client.try_submit(&poisoned).unwrap();
            }
            client.try_submit(batch).unwrap();
        }
        let stats = service.drain().unwrap();
        assert_eq!(stats.len(), batches.len(), "shards={shards}");
        assert_eq!(client.queued(), 0);
        let letters = service.dead_letters();
        assert_eq!(letters.len(), 1, "shards={shards}");
        assert_eq!(letters[0].attempts, 2);
        assert_eq!(letters[0].batch.len(), poisoned.len());
        assert!(matches!(letters[0].error, StreamError::EventFailed { index: 5, .. }));
        assert_eq!(fingerprint(&service), reference, "shards={shards}");
    }
}

/// Ownership re-derivation after a drift-triggered full re-detect is
/// deterministic: two identical runs agree on every community's owner, and
/// every community slot has exactly one owner in `0..shards`.
#[test]
fn ownership_rederivation_is_deterministic_and_total() {
    let pg = generators::ring_of_cliques(4, 5).unwrap();
    let config = ServiceConfig {
        shards: 3,
        // Aggressive drift threshold: every few batches trigger a full
        // re-detect, renumbering communities and re-deriving ownership.
        stream: StreamConfig { drift_threshold: 0.05, ..StreamConfig::default() }.with_seed(5),
        ..ServiceConfig::default()
    };
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 42, 10, 5);

    let run = |config: ServiceConfig| {
        let mut service = seeded_service(&pg.graph, &pg.ground_truth, config);
        for batch in &batches {
            service.ingest(batch).unwrap();
        }
        service
    };
    let a = run(config.clone());
    let b = run(config.clone());
    assert!(a.detector().full_redetects() > 0, "drift must trigger re-detects");
    assert_eq!(fingerprint(&a), fingerprint(&b));

    let num_communities = a.latest_snapshot().num_communities();
    for community in 0..num_communities {
        let owner = a.owner_of_community(community);
        assert!(owner < config.shards);
        assert_eq!(owner, b.owner_of_community(community), "community {community}");
    }
    // The manifests (which embed the owned lists) agree byte-for-byte.
    assert_eq!(run(config.clone()).checkpoint(), run(config).checkpoint());
}

/// Long sharded churn sweep: 10k events over a mid-size planted-partition
/// graph, pinned bit-identical to the 1-shard run for 2 and 8 shards, with
/// per-shard recovery from several distinct crash points. Nightly only
/// (`--ignored`).
#[test]
#[ignore = "long sharded churn sweep; run with --ignored (nightly CI job)"]
fn long_sharded_churn_sweep_is_bit_identical_and_recoverable() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 300,
        num_communities: 6,
        p_in: 0.08,
        p_out: 0.002,
        seed: 13,
    })
    .unwrap();
    let stream = StreamConfig { drift_threshold: 0.2, ..StreamConfig::default() }.with_seed(13);
    // 400 batches × 25 events = 10k events.
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 77, 400, 25);
    assert!(batches.iter().map(Vec::len).sum::<usize>() >= 9_000);

    let mut reference = seeded_service(
        &pg.graph,
        &pg.ground_truth,
        ServiceConfig { stream: stream.clone(), ..ServiceConfig::default() },
    );
    for batch in &batches {
        reference.ingest(batch).unwrap();
    }
    let reference_state = fingerprint(&reference);
    let reference_checkpoint = reference.checkpoint();

    for shards in [2usize, 8] {
        let config = ServiceConfig { shards, stream: stream.clone(), ..ServiceConfig::default() };
        let mut service = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
        let mut manifests = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            service.ingest(batch).unwrap();
            if (i + 1) % 80 == 0 {
                manifests.push((i + 1, service.checkpoint()));
            }
        }
        assert_eq!(fingerprint(&service), reference_state, "shards={shards}");
        assert_eq!(
            base_text(service.checkpoint(), shards),
            reference_checkpoint,
            "shards={shards}"
        );
        let logs = service.shard_journal_logs();
        for (crash_point, manifest) in &manifests {
            let recovered =
                StreamingService::recover_sharded(manifest, &logs, config.clone()).unwrap();
            assert_eq!(
                fingerprint(&recovered),
                reference_state,
                "shards={shards}, crash point {crash_point}"
            );
        }
    }
}
