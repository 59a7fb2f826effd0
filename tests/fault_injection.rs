//! Deterministic fault-injection suite for the streaming service.
//!
//! Compiled only with `--features fault-injection`; the hooks it drives are
//! `#[cfg]`-gated in the stream crate, so default builds carry zero fault
//! code (the CI check job greps the release example binary for the injected
//! panic string to pin that down).
//!
//! Every scenario here is seed-deterministic: a failing case reproduces from
//! its [`FaultPlan`] alone. The invariants under test:
//!
//! * an injected writer panic never deadlocks the service — blocked
//!   submitters wake with [`StreamError::ServiceClosed`], readers keep
//!   serving the last published epoch, and the supervisor rebuilds a
//!   bit-identical service from the [`CheckpointStore`];
//! * an injected validation failure is quarantined to the dead-letter log
//!   without wedging the queue;
//! * a torn checkpoint write is detected structurally on recovery, never
//!   silently restored;
//! * queue-full storms lose and reorder nothing under the backoff helper;
//! * at more than one shard, a killed shard degrades to read-only, and a
//!   writer panic resumes from the store bit-identically.

#![cfg(feature = "fault-injection")]

use qhdcd::graph::generators;
use qhdcd::prelude::*;
use qhdcd::stream::faults::FaultPlan;
use qhdcd::stream::{BackoffPolicy, CheckpointStore, StreamError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn karate_config() -> ServiceConfig {
    let mut config = ServiceConfig::default().with_seed(3);
    config.queue_capacity = 16;
    config.max_batch = 4;
    config.checkpoint_every = 1;
    config
}

fn karate_service(config: &ServiceConfig) -> StreamingService {
    StreamingService::new(DynamicGraph::from_graph(&generators::karate_club()), config.clone())
        .expect("valid service config")
}

#[test]
fn injected_writer_panic_is_contained_and_recoverable() {
    let config = karate_config();
    let mut service = karate_service(&config);
    let store = CheckpointStore::new();
    service.attach_store(&store);
    service.inject_faults(FaultPlan::default().with_panic_at_batch(2));
    let mut client = service.client();

    // Batch 1 applies normally.
    service.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    assert_eq!(service.epoch(), 1);

    // Batch 2 hits the injected panic mid-apply: the batch is neither
    // journaled nor published, and the panic does not poison the store.
    let batch2 = [EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }];
    let outcome = catch_unwind(AssertUnwindSafe(|| service.ingest(&batch2)));
    assert!(outcome.is_err(), "the injected panic must surface");

    // Writer death: dropping the service (as a panicking writer thread's
    // unwind would) closes the queue, so blocked submitters error out
    // instead of hanging. Fill the queue first so the submit really blocks —
    // the dead writer will never drain it.
    let fill: Vec<EdgeEvent> =
        (0..16).map(|i| EdgeEvent::Add { u: 1, v: 2 + i % 8, weight: 1.0 }).collect();
    client.try_submit(&fill).unwrap();
    let pending = {
        let client = client.clone();
        std::thread::spawn(move || client.submit(&[EdgeEvent::Add { u: 1, v: 10, weight: 1.0 }]))
    };
    std::thread::sleep(Duration::from_millis(30));
    drop(service);
    let blocked = pending.join().expect("submitter must not hang or panic");
    assert!(matches!(blocked, Err(StreamError::ServiceClosed)), "got {blocked:?}");

    // ...while readers keep serving the last published epoch.
    assert_eq!(client.snapshot().epoch(), 1);

    // The supervisor rebuilds from the store: bit-identical to the state
    // before the poisoned batch, and the un-journaled batch can be replayed.
    let mut resumed = StreamingService::resume_from_store(&store, config.clone()).unwrap();
    assert_eq!(resumed.epoch(), 1);
    let mut reference = karate_service(&config);
    reference.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    assert_eq!(resumed.checkpoint(), reference.checkpoint());
    resumed.ingest(&batch2).unwrap();
    assert_eq!(resumed.epoch(), 2);
    assert!(resumed.detector().graph().has_edge(0, 21));
}

#[test]
fn injected_validation_failure_is_quarantined_without_wedging() {
    let mut config = karate_config();
    config.max_validation_attempts = 3;
    let mut service = karate_service(&config);
    service.inject_faults(FaultPlan::default().with_validation_failure_at(1));
    let client = service.client();

    client.try_submit(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    // The injected fault poisons validation of batch 1: quarantined, queue
    // drained, no error surfaces to the writer loop.
    assert!(service.step().unwrap().is_none());
    assert_eq!(service.epoch(), 0);
    assert_eq!(service.dead_letters().len(), 1);
    assert_eq!(service.dead_letters()[0].attempts, 3);

    // The fault was consumed with the dead letter: the next batch at the
    // same epoch is clean and the service keeps going.
    client.try_submit(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }]).unwrap();
    assert!(service.step().unwrap().is_some());
    assert_eq!(service.epoch(), 1);
    assert!(service.detector().graph().has_edge(0, 21));
}

#[test]
fn torn_checkpoint_writes_are_detected_on_recovery() {
    let config = karate_config();
    let mut service = karate_service(&config);
    service.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    let intact = service.latest_checkpoint().unwrap().to_string();
    service.inject_faults(FaultPlan::default().with_truncated_checkpoint(intact.len() / 2));
    let torn = service.checkpoint();
    assert!(torn.len() < intact.len(), "the torn write must lose the tail");
    // Recovery from the torn text fails structurally — never a panic, never
    // a silently partial service.
    let err = StreamingService::recover(&torn, &service.journal_log(), config.clone()).unwrap_err();
    assert!(matches!(err, StreamError::Checkpoint { .. }), "got {err:?}");
    // The truncation fault fires once: the next checkpoint is intact again
    // and recovery round-trips bit-exactly.
    let healed = service.checkpoint();
    assert_eq!(healed, intact);
    let recovered = StreamingService::recover(&healed, &service.journal_log(), config).unwrap();
    assert_eq!(recovered.epoch(), service.epoch());
}

/// Sharded fault containment, seed-derived: a shard-kill fault panics one
/// shard worker at its scheduled batch. The panic is isolated — the killed
/// shard degrades to read-only (batches routed to it are rejected atomically
/// with `ShardUnavailable`), survivors keep ingesting, reads keep being
/// served, and the surviving state is bit-identical to a no-fault run that
/// never submitted the rejected batches. The scenario reproduces from the
/// seed alone.
#[test]
fn shard_kill_degrades_to_read_only_while_survivors_ingest() {
    // Derive the kill from a seed: the first seed whose plan kills one of
    // our two shards early enough to reach in a short script.
    let (seed, kill_batch, killed) = (0u64..500)
        .find_map(|seed| match FaultPlan::from_seed(seed).kill_shard_at {
            Some((batch, shard)) if shard < 2 && batch <= 3 => Some((seed, batch, shard)),
            _ => None,
        })
        .expect("some seed derives a reachable shard kill");

    // Two cliques of five; with the ground-truth partition, shard s owns
    // community s (balanced assignment over equal sizes).
    let pg = generators::ring_of_cliques(2, 5).unwrap();
    let config = ServiceConfig {
        shards: 2,
        stream: StreamConfig::default().with_seed(9),
        ..ServiceConfig::default()
    };
    let build = || {
        let detector = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&pg.graph),
            pg.ground_truth.clone(),
            config.stream.clone(),
        )
        .unwrap();
        StreamingService::from_detector(detector, config.clone()).unwrap()
    };
    let mut service = build();
    assert_eq!(service.owner_of_community(0), 0);
    assert_eq!(service.owner_of_community(1), 1);
    // Only the seed's kill is installed: the service honours every fault
    // class at any shard count, and this scenario isolates the shard kill.
    service.inject_faults(FaultPlan::default().with_shard_kill(kill_batch, killed));

    let kn = killed * 5; // first node of the killed shard's clique
    let sn = (1 - killed) * 5; // first node of the survivor's clique
    let mut accepted: Vec<Vec<EdgeEvent>> = Vec::new();

    // Batches before the kill touch both communities and apply normally.
    for i in 1..kill_batch {
        let batch = vec![
            EdgeEvent::Add { u: kn, v: kn + 1, weight: 1.0 + i as f64 },
            EdgeEvent::Add { u: sn, v: sn + 1, weight: 1.0 + i as f64 },
        ];
        service.ingest(&batch).unwrap();
        accepted.push(batch);
    }
    assert!(!service.shard_is_dead(killed));

    // The kill fires while routing its scheduled batch; a survivor-only
    // batch still applies on the live shard.
    let batch = vec![EdgeEvent::Add { u: sn, v: sn + 2, weight: 1.5 }];
    service.ingest(&batch).unwrap();
    accepted.push(batch);
    assert!(service.shard_is_dead(killed), "seed {seed}");
    assert!(!service.shard_is_dead(1 - killed));
    assert_eq!(service.epoch(), kill_batch);

    // Batches routed to the dead shard — exclusively or as one of the
    // boundary owners — are rejected atomically: no journal growth, no graph
    // mutation, no epoch.
    let journal_before = service.journal_log();
    let graph_before = service.detector().graph().to_checkpoint_text();
    for dead_batch in [
        vec![EdgeEvent::Add { u: kn, v: kn + 2, weight: 2.0 }],
        vec![EdgeEvent::Add { u: kn, v: sn, weight: 1.0 }],
    ] {
        match service.ingest(&dead_batch) {
            Err(StreamError::ShardUnavailable { shard, index }) => {
                assert_eq!((shard, index), (killed, kill_batch + 1));
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }
    assert_eq!(service.epoch(), kill_batch);
    assert_eq!(service.journal_log(), journal_before);
    assert_eq!(service.detector().graph().to_checkpoint_text(), graph_before);

    // Survivors keep ingesting and reads keep being served.
    let batch = vec![EdgeEvent::Add { u: sn, v: sn + 3, weight: 1.0 }];
    service.ingest(&batch).unwrap();
    accepted.push(batch);
    assert_eq!(service.latest_snapshot().epoch(), kill_batch + 1);

    // The surviving state is bit-identical to a no-fault run over exactly
    // the accepted batches — rejected batches truly mutated nothing.
    let mut reference = build();
    for batch in &accepted {
        reference.ingest(batch).unwrap();
    }
    assert_eq!(
        service.detector().modularity().to_bits(),
        reference.detector().modularity().to_bits()
    );
    assert_eq!(service.detector().partition(), reference.detector().partition());
    assert_eq!(service.journal_log(), reference.journal_log());
    assert_eq!(service.shard_journal_logs(), reference.shard_journal_logs());
    // Shard death is an in-memory condition, not a persisted one: the
    // checkpoints agree byte-for-byte, and recovery brings the shard back.
    assert_eq!(service.checkpoint(), reference.checkpoint());
    let recovered = StreamingService::recover_sharded(
        service.latest_checkpoint().unwrap(),
        &service.shard_journal_logs(),
        config.clone(),
    )
    .unwrap();
    assert!(!recovered.shard_is_dead(killed));
    assert_eq!(recovered.detector().partition(), service.detector().partition());
}

/// A writer panic at two shards: the store mirrors the manifest and every
/// shard's journal, so the supervisor's resume replays past the last
/// checkpoint and ends bit-identical to the uninterrupted run — partition,
/// quality bits, global and shard journals, and the next manifest.
#[test]
fn sharded_writer_panic_resumes_bit_identically_from_the_store() {
    let config = ServiceConfig { shards: 2, checkpoint_every: 2, ..karate_config() };
    let batches: Vec<Vec<EdgeEvent>> = (0..6)
        .map(|i| {
            vec![
                EdgeEvent::Add { u: i, v: 33 - i, weight: 1.0 },
                EdgeEvent::Add { u: 16 + i, v: 2 * i, weight: 0.5 },
            ]
        })
        .collect();
    let mut service = karate_service(&config);
    let store = CheckpointStore::new();
    service.attach_store(&store);
    service.inject_faults(FaultPlan::default().with_panic_at_batch(4));
    for batch in &batches[..3] {
        service.ingest(batch).unwrap();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| service.ingest(&batches[3])));
    assert!(outcome.is_err(), "the injected panic must surface");
    drop(service);

    // The store's manifest is the automatic one at batch 2; the shard logs
    // run one batch past it.
    let mut resumed = StreamingService::resume_from_store(&store, config.clone()).unwrap();
    assert_eq!(resumed.epoch(), 3);
    for batch in &batches[3..] {
        resumed.ingest(batch).unwrap();
    }

    let mut reference = karate_service(&config);
    for batch in &batches {
        reference.ingest(batch).unwrap();
    }
    assert_eq!(
        resumed.detector().modularity().to_bits(),
        reference.detector().modularity().to_bits()
    );
    assert_eq!(resumed.detector().partition(), reference.detector().partition());
    assert_eq!(resumed.journal_log(), reference.journal_log());
    assert_eq!(resumed.shard_journal_logs(), reference.shard_journal_logs());
    assert_eq!(resumed.checkpoint(), reference.checkpoint());
    // The resumed service is re-attached: the store follows it.
    assert_eq!(store.shard_journal_logs(), resumed.shard_journal_logs());
}

#[test]
fn queue_full_storms_lose_and_reorder_nothing() {
    let plan = FaultPlan::from_seed(0xD1CE);
    let bursts: Vec<usize> =
        if plan.storm_bursts.is_empty() { vec![12, 7, 16] } else { plan.storm_bursts.clone() };
    let mut config = karate_config();
    config.queue_capacity = 8;
    let mut service = karate_service(&config);
    let client = service.client();
    // Each burst adds then removes a sentinel edge repeatedly; only an exact
    // in-order application leaves the graph back in its start state. The
    // sentinel endpoints are not adjacent to node 0 in the karate graph, so
    // the add really inserts (an add onto an existing edge would merge with
    // it and the paired remove would then delete the original edge).
    let sentinels = [9usize, 14, 15, 16, 18, 20, 22, 23, 24, 25, 26, 27, 28, 29];
    let mut submitted = 0usize;
    let mut applied = 0usize;
    for (b, burst) in bursts.iter().enumerate() {
        let v = sentinels[b % sentinels.len()];
        let mut events = Vec::new();
        for _ in 0..*burst {
            events.push(EdgeEvent::Add { u: 0, v, weight: 1.0 });
            events.push(EdgeEvent::Remove { u: 0, v });
        }
        submitted += events.len();
        for chunk in events.chunks(4) {
            client
                .retry_with_backoff(chunk, &BackoffPolicy::default(), |_| {
                    if let Ok(Some(stats)) = service.step() {
                        applied += stats.events_applied;
                    }
                })
                .unwrap();
        }
    }
    applied += service.drain().unwrap().iter().map(|s| s.events_applied).sum::<usize>();
    assert_eq!(applied, submitted, "storms must not drop events");
    let reference = karate_service(&config);
    assert_eq!(
        service.detector().graph().to_checkpoint_text(),
        reference.detector().graph().to_checkpoint_text(),
        "out-of-order application would leave sentinel edges behind"
    );
}

/// Randomized (but seed-deterministic) sweep: for every seed and for one and
/// two shards, drive a fixed event script through a service with the derived
/// fault plan installed. Whatever the plan throws at it, the run must
/// terminate, account for every batch, and recovery must either succeed
/// bit-exactly or fail structurally. A batch routed to a killed shard is
/// quarantined like a poisoned one. Runs under `--ignored` in the nightly CI
/// sweep.
#[test]
#[ignore = "nightly sweep: run with --ignored"]
fn randomized_fault_plan_sweep() {
    for shards in [1usize, 2] {
        sweep_fault_plans(shards);
    }
}

fn sweep_fault_plans(shards: usize) {
    'seeds: for seed in 0..48u64 {
        let plan = FaultPlan::from_seed(seed);
        let mut config = karate_config();
        config.max_validation_attempts = 2;
        config.shards = shards;
        let mut service = karate_service(&config);
        let store = CheckpointStore::new();
        service.attach_store(&store);
        service.inject_faults(plan);
        let mut client = service.client();
        let (mut applied, mut dead, mut crashes) = (0u64, 0u64, 0u64);
        // Dead letters recorded on a writer that later crashed die with it —
        // that loss is part of the model, so track them separately.
        let mut letters_lost = 0u64;
        let mut batch_idx = 0usize;
        while batch_idx < 8 {
            let events = [EdgeEvent::Add { u: 0, v: 20 + batch_idx, weight: 1.0 }];
            client
                .try_submit(&events)
                .unwrap_or_else(|e| panic!("shards {shards} seed {seed}: submit: {e}"));
            match catch_unwind(AssertUnwindSafe(|| service.step())) {
                Ok(Ok(Some(_))) => applied += 1,
                Ok(Ok(None)) => dead += 1,
                Ok(Err(e)) => {
                    panic!("shards {shards} seed {seed}: quarantine must absorb errors, got {e}")
                }
                Err(_) => {
                    // Writer death. The supervisor path: drop the dead
                    // service, rebuild from the store, re-drive this batch
                    // (it was drained but neither journaled nor applied).
                    crashes += 1;
                    letters_lost += service.dead_letters().len() as u64;
                    drop(service);
                    match StreamingService::resume_from_store(&store, config.clone()) {
                        Ok(rebuilt) => {
                            service = rebuilt;
                            client = service.client();
                            continue; // retry the same batch, faults now clear
                        }
                        Err(StreamError::Checkpoint { .. } | StreamError::Manifest { .. }) => {
                            // A torn checkpoint was detected structurally —
                            // a legitimate terminal outcome for this seed.
                            continue 'seeds;
                        }
                        Err(other) => panic!("shards {shards} seed {seed}: unexpected {other}"),
                    }
                }
            }
            batch_idx += 1;
        }
        assert_eq!(applied + dead, 8, "shards {shards} seed {seed}: unaccounted batches");
        assert!(crashes <= 1, "shards {shards} seed {seed}: the panic fault fires at most once");
        assert_eq!(service.epoch(), applied, "shards {shards} seed {seed}: epoch drifted");
        assert_eq!(
            service.dead_letters().len() as u64 + letters_lost,
            dead,
            "shards {shards} seed {seed}: dead letters unaccounted"
        );
        // The store always holds a recoverable state at the end.
        let resumed = StreamingService::resume_from_store(&store, config.clone())
            .unwrap_or_else(|e| panic!("shards {shards} seed {seed}: final resume: {e}"));
        assert_eq!(resumed.epoch(), service.epoch(), "shards {shards} seed {seed}: resume drifted");
    }
}
