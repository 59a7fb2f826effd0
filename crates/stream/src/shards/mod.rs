//! The shard layer of a [`StreamingService`](crate::StreamingService) run with
//! [`ServiceConfig::shards`](crate::ServiceConfig::shards) `> 1`.
//!
//! The service's one ingestion path (validate → apply → journal → publish →
//! checkpoint), its quarantine loop, store mirroring and recovery replay are
//! the same at every shard count. This module holds only what sharding adds,
//! spread over shard workers that **own whole communities** (the paper's
//! community structure doubles as the data-placement key):
//!
//! * **Ownership** ([`ownership`]): every community slot is assigned to a
//!   shard by a deterministic balanced (LPT) assignment over community sizes,
//!   re-derived from scratch whenever the drift-threshold fallback runs a
//!   full re-detect (which renumbers all communities).
//! * **Routing** ([`router`]): each event of a batch goes to the shard(s)
//!   owning its endpoints' communities under the pre-batch labels; a
//!   cross-shard edge becomes a *boundary entry* replicated to both owners,
//!   primary on the lowest shard id. Merging all primary entries in
//!   `(batch, position)` order reconstructs the exact global journal.
//! * **Two-phase refinement** ([`worker`]): shard workers propose best moves
//!   for their nodes in parallel against the pass-start state; commits run
//!   sequentially in ascending node order, recomputing any proposal whose
//!   read set a committed move invalidated. The result is **bit-identical to
//!   the sequential refinement a 1-shard service runs, for any shard count**
//!   — partitions, maintained Q bits, and the base checkpoint bytes (pinned
//!   1/2/8 in `tests/sharded.rs`).
//! * **Per-shard checkpointing** ([`recovery`]): a checkpoint is a manifest
//!   embedding the 1-shard [`ServiceCheckpoint`] text plus one slice per
//!   shard (owned communities, their Σ bits, the shard's journal), each
//!   FNV-1a checksummed.
//!   [`StreamingService::recover_sharded`](crate::StreamingService::recover_sharded)
//!   validates every slice (missing, mismatched, or reordered slices are
//!   rejected with the shard named), merges the primary entries back into
//!   the global journal, and replays — bit-identically — from the base
//!   offset.
//! * **Fault containment**: under the `fault-injection` feature, a
//!   [`FaultPlan`](crate::faults::FaultPlan) shard-kill panics one worker at
//!   a chosen batch. The panic is isolated; the shard degrades to read-only
//!   (batches routed to it are rejected atomically with
//!   [`StreamError::ShardUnavailable`]) while survivors keep ingesting.
//!
//! Routing and ownership never influence refinement decisions; they only
//! decide journal placement, fault domains and checkpoint slicing. That is
//! what makes the shard count a pure deployment knob rather than a semantic
//! one.

pub(crate) mod ownership;
pub(crate) mod recovery;
pub(crate) mod router;
pub(crate) mod worker;

pub use recovery::ShardManifest;

use crate::checkpoint::{EventJournal, ServiceCheckpoint};
use crate::{StreamError, StreamStats, StreamingDetector};
use ownership::OwnershipTable;
use qhdcd_graph::EdgeEvent;
use router::{route_batch, ShardJournalEntry};
use worker::{ShardWorker, TwoPhaseDriver};

/// Who owns which community, and each shard's journal slice and liveness.
#[derive(Debug)]
pub(crate) struct ShardSet {
    ownership: OwnershipTable,
    workers: Vec<ShardWorker>,
}

impl ShardSet {
    /// Derives the ownership of `shards` fresh workers from the detector's
    /// current partition.
    pub(crate) fn new(detector: &StreamingDetector, shards: usize) -> Self {
        ShardSet {
            ownership: OwnershipTable::derive(
                detector.labels(),
                detector.sigma_tot().len(),
                shards,
            ),
            workers: vec![ShardWorker::default(); shards],
        }
    }

    pub(crate) fn owner_of_community(&self, community: usize) -> usize {
        self.ownership.owner(community)
    }

    pub(crate) fn is_dead(&self, shard: usize) -> bool {
        self.workers[shard].dead
    }

    /// Every shard's journal slice, in shard order.
    pub(crate) fn journal_logs(&self) -> Vec<String> {
        self.workers.iter().map(ShardWorker::journal_log).collect()
    }

    /// Panics shard `shard`'s worker while it picks up a batch; the panic is
    /// contained to the shard, which degrades to read-only.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn kill(&mut self, shard: usize, batch: u64) {
        if shard < self.workers.len() && !self.workers[shard].dead {
            let panicked = std::panic::catch_unwind(|| {
                panic!("injected fault: shard {shard} worker panic at batch {batch}")
            });
            debug_assert!(panicked.is_err());
            self.workers[shard].dead = true;
        }
    }

    /// The first dead shard `events` would route to, if any.
    pub(crate) fn unavailable_shard(
        &self,
        events: &[EdgeEvent],
        detector: &StreamingDetector,
    ) -> Option<usize> {
        if !self.workers.iter().any(|w| w.dead) {
            return None;
        }
        let routed = route_batch(events, detector.labels(), detector.graph(), &self.ownership);
        routed.owners.into_iter().find(|&shard| self.workers[shard].dead)
    }

    /// Applies a validated batch through the two-phase driver. With
    /// `journal_batch` set (the batch's global journal index), the events are
    /// routed under the pre-batch labels and journaled on their owning
    /// shards; recovery replay passes `None`, its entries being journaled
    /// already.
    pub(crate) fn apply(
        &mut self,
        detector: &mut StreamingDetector,
        events: &[EdgeEvent],
        journal_batch: Option<u64>,
    ) -> Result<StreamStats, StreamError> {
        let routed = journal_batch.map(|batch| {
            (batch, route_batch(events, detector.labels(), detector.graph(), &self.ownership))
        });
        let dead: Vec<bool> = self.workers.iter().map(|w| w.dead).collect();
        let mut driver = TwoPhaseDriver::new(&self.ownership, &dead);
        let stats = detector.apply_events_with(events, &mut driver)?;
        if let Some(ownership) = driver.rederived.take() {
            self.ownership = ownership;
        }
        if let Some((batch, routed)) = routed {
            for (shard, entries) in routed.per_shard.iter().enumerate() {
                for &(pos, primary) in entries {
                    self.workers[shard].entries.push(ShardJournalEntry {
                        batch,
                        pos,
                        batch_len: events.len(),
                        primary,
                        event: events[pos],
                    });
                }
            }
        }
        Ok(stats)
    }

    /// The manifest text around `base_text`, the checkpoint a 1-shard
    /// service would cut from the same state; `sigma_tot` is that state's
    /// community aggregates.
    pub(crate) fn manifest(&self, base_text: String, sigma_tot: &[f64], epoch: u64) -> String {
        let slices = self
            .workers
            .iter()
            .enumerate()
            .map(|(shard, worker)| {
                let owned = self.ownership.owned(shard);
                let sigma_bits = owned.iter().map(|&slot| sigma_tot[slot].to_bits()).collect();
                recovery::ShardSlice {
                    id: shard,
                    owned,
                    sigma_bits,
                    entries: worker.entries.clone(),
                }
            })
            .collect();
        ShardManifest { shards: self.workers.len(), epoch, base_text, slices }.to_text()
    }

    /// Rebuilds the shard layer from a parsed manifest, its parsed base
    /// section and every shard's journal log, and merges the primary entries
    /// back into the global journal. All shards come back alive (a shard
    /// killed by fault injection is an in-memory condition, not a persisted
    /// one).
    ///
    /// # Errors
    ///
    /// [`StreamError::Manifest`] for a shard count other than `shards`, a
    /// journal log count other than `shards`, slices whose ownership or Σ
    /// bits disagree with the base checkpoint, shard journals that do not
    /// extend their manifest slice, or primary entries that do not reassemble
    /// into contiguous batches. Errors name the offending shard.
    pub(crate) fn restore(
        manifest: &ShardManifest,
        base: &ServiceCheckpoint,
        shard_journal_logs: &[String],
        shards: usize,
    ) -> Result<(Self, EventJournal), StreamError> {
        if manifest.shards != shards {
            return Err(StreamError::Manifest {
                line: 3,
                reason: format!(
                    "manifest was cut with {} shards but the recovery config has {shards}",
                    manifest.shards
                ),
            });
        }
        if shard_journal_logs.len() != shards {
            return Err(StreamError::Manifest {
                line: 0,
                reason: format!(
                    "{} shard journal logs provided for {shards} shards",
                    shard_journal_logs.len()
                ),
            });
        }
        let num_slots = base.sigma_tot.len();
        let owned_lists: Vec<Vec<usize>> =
            manifest.slices.iter().map(|s| s.owned.clone()).collect();
        let ownership = OwnershipTable::from_owned_lists(&owned_lists, num_slots)?;
        for slice in &manifest.slices {
            for (&slot, &bits) in slice.owned.iter().zip(&slice.sigma_bits) {
                if base.sigma_tot[slot].to_bits() != bits {
                    return Err(StreamError::Manifest {
                        line: 0,
                        reason: format!(
                            "slice of shard {} disagrees with the base checkpoint on the \
                             aggregate of community {slot} (stale or mismatched slice)",
                            slice.id
                        ),
                    });
                }
            }
        }
        // Parse the full per-shard logs and check each extends its manifest
        // slice (the logs may run past the checkpoint; never behind it).
        let mut workers = Vec::with_capacity(shards);
        for (shard, log) in shard_journal_logs.iter().enumerate() {
            let entries = router::parse_shard_log(log)?;
            let slice = &manifest.slices[shard];
            if entries.len() < slice.entries.len()
                || entries[..slice.entries.len()] != slice.entries[..]
            {
                return Err(StreamError::Manifest {
                    line: 0,
                    reason: format!(
                        "journal log of shard {shard} is not an extension of its manifest slice \
                         ({} logged vs {} checkpointed entries)",
                        entries.len(),
                        slice.entries.len()
                    ),
                });
            }
            workers.push(ShardWorker { entries, dead: false });
        }
        let journal = merge_primary_entries(&workers)?;
        Ok((ShardSet { ownership, workers }, journal))
    }
}

/// Merges every shard's **primary** entries back into the global journal:
/// sorted by `(batch, position)`, batch indices must be contiguous from zero
/// and each batch must hold exactly its declared number of events — a
/// missing primary entry (lost or torn shard log) is detected here. Every
/// replica entry must then repeat the merged event at its position, so a log
/// whose primaries were lost cannot leave stale replicas behind either.
fn merge_primary_entries(workers: &[ShardWorker]) -> Result<EventJournal, StreamError> {
    let err = |reason: String| StreamError::Manifest { line: 0, reason };
    let mut primaries: Vec<&ShardJournalEntry> =
        workers.iter().flat_map(|w| &w.entries).filter(|e| e.primary).collect();
    primaries.sort_by_key(|e| (e.batch, e.pos));
    // `(declared length, events)` per batch, grown from the entries read:
    // a declared length is not trusted until the batch fills up to it.
    let mut batches: Vec<(usize, Vec<EdgeEvent>)> = Vec::new();
    for entry in primaries {
        if entry.pos == 0 && entry.batch == batches.len() as u64 {
            batches.push((entry.batch_len, Vec::new()));
        }
        let current = batches.len() as u64;
        match batches.last_mut() {
            Some((len, events))
                if entry.batch + 1 == current
                    && entry.pos == events.len()
                    && entry.batch_len == *len =>
            {
                events.push(entry.event);
            }
            _ => {
                return Err(err(format!(
                    "merged shard journals reach position {} of batch {} out of order — a \
                     primary entry (and its shard's log) is missing",
                    entry.pos, entry.batch
                )));
            }
        }
    }
    for (batch, (len, events)) in batches.iter().enumerate() {
        if events.len() != *len {
            return Err(err(format!(
                "batch {batch} holds {} of its {len} events — a primary entry is missing",
                events.len()
            )));
        }
    }
    for (shard, worker) in workers.iter().enumerate() {
        for entry in worker.entries.iter().filter(|e| !e.primary) {
            let merged = usize::try_from(entry.batch)
                .ok()
                .and_then(|batch| batches.get(batch))
                .filter(|(len, _)| *len == entry.batch_len)
                .and_then(|(_, events)| events.get(entry.pos));
            if merged != Some(&entry.event) {
                return Err(err(format!(
                    "shard {shard} holds a replica of position {} of batch {} that no primary \
                     entry matches",
                    entry.pos, entry.batch
                )));
            }
        }
    }
    let mut journal = EventJournal::new();
    for (_, events) in &batches {
        journal.record_batch(events);
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, StreamConfig, StreamingService};
    use qhdcd_graph::{generators, DynamicGraph};

    fn karate_sharded(shards: usize) -> StreamingService {
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let detector = StreamingDetector::from_partition(
            graph,
            generators::karate_club_communities(),
            StreamConfig::default(),
        )
        .unwrap();
        StreamingService::from_detector(detector, ServiceConfig { shards, ..Default::default() })
            .unwrap()
    }

    fn parsed_workers(service: &StreamingService) -> Vec<ShardWorker> {
        service
            .shard_journal_logs()
            .iter()
            .map(|log| ShardWorker { entries: router::parse_shard_log(log).unwrap(), dead: false })
            .collect()
    }

    #[test]
    fn config_validation() {
        let sharded = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        assert!(sharded.validate().is_ok());
        assert!(ServiceConfig { shards: 0, ..sharded.clone() }.validate().is_err());
        assert!(ServiceConfig { queue_capacity: 0, ..sharded.clone() }.validate().is_err());
        let bad = StreamConfig { frontier_fraction: 0.0, ..Default::default() };
        assert!(ServiceConfig { stream: bad, ..sharded }.validate().is_err());
        // A zero shard count is refused at construction, not on first ingest.
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let detector = StreamingDetector::from_partition(
            graph,
            generators::karate_club_communities(),
            StreamConfig::default(),
        )
        .unwrap();
        let zero = ServiceConfig { shards: 0, ..ServiceConfig::default() };
        assert!(StreamingService::from_detector(detector, zero).is_err());
    }

    #[test]
    fn ingest_routes_journals_and_publishes() {
        let mut service = karate_sharded(2);
        assert_eq!(service.latest_snapshot().epoch(), 0);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.journal().len(), 1);
        // The event was journaled on at least one shard, with exactly one
        // primary entry across all shards.
        let logs = service.shard_journal_logs();
        let primaries: usize = logs.iter().map(|log| log.matches(" p ").count()).sum();
        assert_eq!(primaries, 1);
        // Empty batches are no-ops.
        service.ingest(&[]).unwrap();
        assert_eq!(service.epoch(), 1);
        // A 1-shard service keeps no shard layer: no routing, no shard logs.
        let mut single = karate_sharded(1);
        single.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        assert!(single.shard_journal_logs().is_empty());
    }

    #[test]
    fn queue_driven_steps_apply_in_submission_order() {
        let mut service = karate_sharded(3);
        let client = service.client();
        client
            .try_submit(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 2.0 },
            ])
            .unwrap();
        let stats = service.step().unwrap().unwrap();
        assert_eq!(stats.events_applied, 2);
        assert!(service.step().unwrap().is_none());
        assert_eq!(client.queued(), 0);
    }

    #[test]
    fn merged_primaries_reconstruct_the_global_journal() {
        let mut service = karate_sharded(4);
        let batches: Vec<Vec<EdgeEvent>> = vec![
            vec![EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }],
            vec![EdgeEvent::Add { u: 1, v: 20, weight: 0.5 }, EdgeEvent::Remove { u: 0, v: 33 }],
            vec![EdgeEvent::RemoveNode { u: 5 }],
        ];
        for batch in &batches {
            service.ingest(batch).unwrap();
        }
        let merged = merge_primary_entries(&parsed_workers(&service)).unwrap();
        assert_eq!(&merged, service.journal());
    }

    #[test]
    fn stale_slices_fail_the_sigma_cross_check() {
        let mut service = karate_sharded(2);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        let logs = service.shard_journal_logs();
        let mut manifest = ShardManifest::from_text(&service.checkpoint()).unwrap();
        // Tamper one owned slot's Σ bits: the slice now claims an aggregate
        // the base checkpoint does not have — a stale or foreign slice.
        let slice = manifest.slices.iter_mut().find(|s| !s.owned.is_empty()).unwrap();
        let shard = slice.id;
        slice.sigma_bits[0] ^= 1;
        let err = StreamingService::recover_sharded(
            &manifest.to_text(),
            &logs,
            ServiceConfig { shards: 2, ..ServiceConfig::default() },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("shard {shard}")) && msg.contains("disagrees"), "{msg}");
    }

    /// Byte-level corruption matrix of sharded recovery: every truncation
    /// point and every single-byte overwrite of a 2-shard manifest and of
    /// one shard journal log gives a structured error or an exact restore —
    /// never a panic, never a partially applied batch. A corrupted manifest
    /// restores only the uninterrupted final state. A shard log torn at a
    /// line boundary may lose whole trailing batches that no other shard
    /// replicates, exactly like a torn global journal; recovery then restores
    /// the uninterrupted run's state at that earlier batch boundary.
    #[test]
    fn corruption_matrix_never_panics_or_partially_restores() {
        let pg = generators::ring_of_cliques(2, 4).unwrap();
        let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let detector = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&pg.graph),
            pg.ground_truth.clone(),
            config.stream.clone(),
        )
        .unwrap();
        let mut service = StreamingService::from_detector(detector, config.clone()).unwrap();
        let batches = [
            vec![EdgeEvent::Add { u: 0, v: 5, weight: 0.5 }, EdgeEvent::Remove { u: 1, v: 2 }],
            vec![EdgeEvent::Update { u: 4, v: 6, weight: 1.25 }],
            vec![
                EdgeEvent::Add { u: 1, v: 2, weight: 2.0 },
                EdgeEvent::Add { u: 3, v: 7, weight: 1.5 },
            ],
            vec![EdgeEvent::Remove { u: 0, v: 5 }, EdgeEvent::Add { u: 2, v: 6, weight: 0.75 }],
            // Inside community 0 only: journaled on one shard, no replica.
            vec![
                EdgeEvent::Update { u: 0, v: 1, weight: 3.0 },
                EdgeEvent::Update { u: 2, v: 3, weight: 0.5 },
            ],
            vec![EdgeEvent::Update { u: 1, v: 3, weight: 2.5 }],
        ];
        let state = |service: &mut StreamingService| {
            (
                service.detector().modularity().to_bits(),
                service.detector().partition(),
                service.epoch(),
                service.journal_log(),
                service.shard_journal_logs(),
                service.checkpoint(),
            )
        };
        // The uninterrupted run's state at every epoch; the manifest is cut
        // after the first batch, so recovery replays the logs' tail.
        let mut states = vec![state(&mut service)];
        let mut manifest = String::new();
        for batch in &batches {
            service.ingest(batch).unwrap();
            states.push(state(&mut service));
            if manifest.is_empty() {
                manifest = service.latest_checkpoint().unwrap().to_string();
            }
        }
        let logs = service.shard_journal_logs();
        let restore = |manifest: &str, logs: &[String]| {
            StreamingService::recover_sharded(manifest, logs, config.clone())
                .ok()
                .map(|mut restored| state(&mut restored))
        };
        assert_eq!(restore(&manifest, &logs).as_ref(), states.last());
        let overwrites = |text: &str| {
            (0..text.len())
                .filter(|&pos| text.as_bytes()[pos] != b'X')
                .filter_map(|pos| {
                    let mut bytes = text.as_bytes().to_vec();
                    bytes[pos] = b'X';
                    String::from_utf8(bytes).ok().map(|corrupted| (pos, corrupted))
                })
                .collect::<Vec<_>>()
        };
        for cut in 0..manifest.len() {
            if let Some(restored) = restore(&manifest[..cut], &logs) {
                assert_eq!(Some(&restored), states.last(), "manifest cut at {cut}");
            }
        }
        for (pos, corrupted) in overwrites(&manifest) {
            if let Some(restored) = restore(&corrupted, &logs) {
                assert_eq!(Some(&restored), states.last(), "manifest overwrite at {pos}");
            }
        }
        let victim = (0..logs.len()).max_by_key(|&shard| logs[shard].len()).unwrap();
        let log = &logs[victim];
        let with_log = |text: &str| {
            let mut corrupted = logs.clone();
            corrupted[victim] = text.to_string();
            corrupted
        };
        let mut lost_tails = 0;
        for cut in 0..log.len() {
            if let Some(restored) = restore(&manifest, &with_log(&log[..cut])) {
                let epoch = restored.2 as usize;
                assert_eq!(restored, states[epoch], "shard {victim} log cut at {cut}");
                lost_tails += usize::from(epoch < batches.len());
            }
        }
        // Only the two cuts between the unreplicated trailing batches lose a
        // tail; every other cut leaves a replica unmatched or a batch short.
        assert_eq!(lost_tails, 2);
        for (pos, corrupted) in overwrites(log) {
            if let Some(restored) = restore(&manifest, &with_log(&corrupted)) {
                assert_eq!(Some(&restored), states.last(), "shard {victim} overwrite at {pos}");
            }
        }
    }

    #[test]
    fn missing_primary_entries_are_detected_on_merge() {
        let mut service = karate_sharded(2);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        service.ingest(&[EdgeEvent::Add { u: 1, v: 20, weight: 1.0 }]).unwrap();
        let mut workers = parsed_workers(&service);
        // Drop every primary entry of batch 0: the merge must notice the gap.
        for worker in &mut workers {
            worker.entries.retain(|e| !(e.primary && e.batch == 0));
        }
        let err = merge_primary_entries(&workers).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
