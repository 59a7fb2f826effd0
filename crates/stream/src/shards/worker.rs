//! Shard workers and the two-phase (parallel-propose / sequential-commit)
//! refinement driver.
//!
//! # Bit-identity for any shard count
//!
//! The sequential localized refinement is a Gauss–Seidel sweep: nodes are
//! scanned in ascending order and each best-move decision sees every earlier
//! move of the same pass. The two-phase driver reproduces that sweep exactly:
//!
//! 1. **Propose (parallel).** Each live shard worker computes, against the
//!    pass-start state, a proposal for every worklist node whose community it
//!    owns — the node's best move plus its *read set* (the communities whose
//!    labels/aggregates the decision depended on: the node's own community
//!    and every neighbour's community).
//! 2. **Commit (sequential).** All worklist nodes are visited in ascending
//!    order. A cached proposal is used only if none of its read-set
//!    communities was touched by a move committed earlier in this phase —
//!    otherwise the decision is recomputed on the spot, exactly as the
//!    sequential sweep would have. Freshness is sound because a best-move
//!    decision is a pure function of the read set (plus the node's degree and
//!    the total weight, both invariant during refinement), and any committed
//!    move stamps both the source and the target community — and a moved
//!    neighbour's *old* community is always in the read set.
//!
//! Dead shards simply produce no proposals, so every node they own is
//! recomputed sequentially — slower, never different. The commit phase is
//! therefore bit-identical to the sequential sweep for **any** shard count
//! and any pattern of shard deaths, which is the contract the 1/2/8-shard
//! pins in `tests/sharded.rs` enforce.

use super::ownership::OwnershipTable;
use super::router::{entries_to_log, ShardJournalEntry};
use crate::detector::RefineDriver;
use crate::StreamingDetector;
use qhdcd_graph::{modularity, NodeId};
use std::collections::BTreeSet;

/// Per-shard state of a service with more than one shard: the shard's journal
/// slice and its liveness flag.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardWorker {
    /// The shard's journal entries, in application order.
    pub(crate) entries: Vec<ShardJournalEntry>,
    /// Set when the shard's worker panicked; a dead shard accepts no further
    /// events (batches routed to it are rejected atomically) but its
    /// communities keep serving reads from published snapshots.
    pub(crate) dead: bool,
}

impl ShardWorker {
    /// The shard's journal serialized one entry per line.
    pub(crate) fn journal_log(&self) -> String {
        entries_to_log(&self.entries)
    }
}

/// A cached phase-1 decision for one node.
struct Proposal {
    /// The node's best strictly-improving move, if any.
    best: Option<(usize, f64)>,
    /// Community slots the decision read (own community + every neighbour's
    /// community, duplicates harmless).
    read_set: Vec<usize>,
}

/// The [`RefineDriver`] a service with more than one shard refines through.
pub(crate) struct TwoPhaseDriver<'a> {
    ownership: &'a OwnershipTable,
    dead: &'a [bool],
    /// Set when a full re-detect ran: ownership re-derived from the new
    /// partition, for the service to install after the batch.
    pub(crate) rederived: Option<OwnershipTable>,
}

impl<'a> TwoPhaseDriver<'a> {
    pub(crate) fn new(ownership: &'a OwnershipTable, dead: &'a [bool]) -> Self {
        TwoPhaseDriver { ownership, dead, rederived: None }
    }
}

impl RefineDriver for TwoPhaseDriver<'_> {
    fn refine(
        &mut self,
        detector: &mut StreamingDetector,
        frontier: &BTreeSet<NodeId>,
    ) -> (usize, usize) {
        two_phase_refine(detector, frontier, self.ownership, self.dead)
    }

    fn after_full_redetect(&mut self, detector: &StreamingDetector) {
        // The re-detect renumbered every community slot; ownership is
        // re-derived deterministically from the new partition.
        self.rederived = Some(OwnershipTable::derive(
            detector.labels(),
            detector.sigma_tot().len(),
            self.ownership.shards(),
        ));
    }
}

/// The two-phase sweep (see the module docs). Mirrors
/// `StreamingDetector::refine_localized` decision for decision.
fn two_phase_refine(
    detector: &mut StreamingDetector,
    frontier: &BTreeSet<NodeId>,
    ownership: &OwnershipTable,
    dead: &[bool],
) -> (usize, usize) {
    if detector.graph().total_edge_weight() <= 0.0 {
        return (0, 0);
    }
    let refine = detector.config().refine;
    let stop_below = refine
        .quality
        .pass_gain_threshold(refine.min_gain, 2.0 * detector.graph().total_edge_weight());
    let mut worklist = frontier.clone();
    let mut moves = 0usize;
    let mut passes = 0usize;
    // `last_touched[c]` is the commit counter when community `c` last gained
    // or lost a node; slots never grow during refinement.
    let mut last_touched: Vec<u64> = vec![0; detector.sigma_tot().len()];
    let mut move_counter: u64 = 0;
    let mut scan = modularity::NeighborScan::new();
    for _ in 0..refine.max_passes {
        if worklist.is_empty() {
            break;
        }
        passes += 1;
        let nodes: Vec<NodeId> = worklist.iter().copied().collect();
        // Phase 1: parallel proposals against the pass-start state.
        let proposals = propose_phase(detector, &nodes, ownership, dead);
        // Phase 2: sequential commit in ascending node order — the exact
        // Gauss–Seidel schedule of the sequential sweep.
        let counter0 = move_counter;
        let mut pass_gain = 0.0;
        let mut next = BTreeSet::new();
        for (i, &node) in nodes.iter().enumerate() {
            let best = match &proposals[i] {
                Some(p) if p.read_set.iter().all(|&c| last_touched[c] <= counter0) => p.best,
                _ => detector.propose_move(&mut scan, node),
            };
            if let Some((target, gain)) = best {
                let cur = detector.labels()[node];
                detector.apply_move(node, target);
                move_counter += 1;
                last_touched[cur] = move_counter;
                last_touched[target] = move_counter;
                pass_gain += gain;
                moves += 1;
                next.insert(node);
                for (v, _) in detector.graph().neighbors(node) {
                    next.insert(v);
                }
            }
        }
        worklist = next;
        if pass_gain < stop_below {
            break;
        }
    }
    (moves, passes)
}

/// Phase 1: every live shard proposes for the worklist nodes it owns, in
/// parallel (one scoped thread and one scratch scan per shard). Returns one
/// slot per worklist node; `None` for nodes owned by dead shards (or whose
/// worker panicked), which the commit phase recomputes sequentially.
fn propose_phase(
    detector: &StreamingDetector,
    nodes: &[NodeId],
    ownership: &OwnershipTable,
    dead: &[bool],
) -> Vec<Option<Proposal>> {
    let mut out: Vec<Option<Proposal>> = (0..nodes.len()).map(|_| None).collect();
    let labels = detector.labels();
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); ownership.shards()];
    for (i, &node) in nodes.iter().enumerate() {
        per_shard[ownership.owner(labels[node])].push(i);
    }
    let gathered: Vec<Option<Vec<(usize, Proposal)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(shard, indices)| {
                if dead[shard] || indices.is_empty() {
                    return None;
                }
                Some(s.spawn(move || {
                    let mut scan = modularity::NeighborScan::new();
                    indices
                        .iter()
                        .map(|&i| (i, propose_one(detector, &mut scan, nodes[i])))
                        .collect::<Vec<_>>()
                }))
            })
            .collect();
        // An Err from join is a panicked worker: its proposals are dropped
        // (recomputed at commit) instead of poisoning the batch.
        handles.into_iter().map(|handle| handle.and_then(|h| h.join().ok())).collect()
    });
    for batch in gathered.into_iter().flatten() {
        for (i, proposal) in batch {
            out[i] = Some(proposal);
        }
    }
    out
}

/// One proposal: record the read set, then run the shared best-move scan.
fn propose_one(
    detector: &StreamingDetector,
    scan: &mut modularity::NeighborScan,
    node: NodeId,
) -> Proposal {
    let labels = detector.labels();
    let mut read_set = Vec::with_capacity(8);
    read_set.push(labels[node]);
    for (v, _) in detector.graph().neighbors(node) {
        read_set.push(labels[v]);
    }
    Proposal { best: detector.propose_move(scan, node), read_set }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamConfig;
    use qhdcd_graph::{generators, DynamicGraph};

    fn perturbed_detector() -> (StreamingDetector, BTreeSet<NodeId>) {
        // Ground truth with deliberately misplaced nodes, never refined: the
        // drivers under comparison perform the first (non-trivial) repair.
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        let config = StreamConfig {
            frontier_fraction: 1.0,
            drift_threshold: 1e9,
            ..StreamConfig::default()
        };
        let mut labels = pg.ground_truth.labels().to_vec();
        labels.swap(0, 7);
        labels[12] = labels[0];
        labels[19] = labels[5];
        let partition = qhdcd_graph::Partition::from_labels(labels).unwrap();
        let detector = StreamingDetector::from_partition(graph, partition, config).unwrap();
        let frontier: BTreeSet<NodeId> = (0..20).collect();
        (detector, frontier)
    }

    #[test]
    fn two_phase_matches_sequential_for_every_shard_count() {
        // The same frontier refined through the two-phase driver must land on
        // the identical partition/Q bits as the sequential sweep, for 1, 2, 3
        // and 8 shards and with shards marked dead.
        let reference = {
            let (mut detector, frontier) = perturbed_detector();
            let mut driver = crate::detector::LocalizedDriver;
            let (moves, passes) = driver.refine(&mut detector, &frontier);
            (moves, passes, detector.partition(), detector.modularity().to_bits())
        };
        for shards in [1usize, 2, 3, 8] {
            for kill in [None, Some(0)] {
                let (mut detector, frontier) = perturbed_detector();
                let ownership =
                    OwnershipTable::derive(detector.labels(), detector.sigma_tot().len(), shards);
                let mut dead = vec![false; shards];
                if let Some(k) = kill {
                    dead[k] = true;
                }
                let mut driver = TwoPhaseDriver::new(&ownership, &dead);
                let (moves, passes) = driver.refine(&mut detector, &frontier);
                let got = (moves, passes, detector.partition(), detector.modularity().to_bits());
                assert_eq!(got, reference, "shards={shards} kill={kill:?}");
            }
        }
    }
}
