//! Versioned, immutable partition snapshots with a lock-free read path.
//!
//! The streaming service separates its single mutating writer (the
//! [`StreamingDetector`](crate::StreamingDetector) refining the next batch)
//! from any number of concurrent readers. Readers never take a lock: each
//! published epoch is an immutable [`PartitionSnapshot`] behind an [`Arc`],
//! and publication appends to a linked chain whose `next` pointers are
//! [`OnceLock`]s. Advancing a reader is a sequence of atomic acquire loads
//! (`OnceLock::get`) plus `Arc` clones — no mutex, no spinning, and the
//! writer is never blocked by slow readers.
//!
//! A snapshot is *epoch-consistent by construction*: it is built entirely by
//! the writer between batches, frozen, and only then linked into the chain.
//! A reader can therefore never observe a torn partition — it either still
//! sees the complete previous epoch or the complete new one (the property the
//! reader/writer interleaving tests pin).

use qhdcd_graph::{Graph, NodeId, Partition};
use std::sync::{Arc, OnceLock};

/// An immutable, epoch-stamped view of the maintained partition and the graph
/// it covers.
///
/// All queries are pure reads of frozen data: `community_of` and
/// `community_size` are O(1), [`PartitionSnapshot::top_communities_near`] is
/// O(deg · log deg) over the CSR snapshot embedded at publication time.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot {
    epoch: u64,
    graph: Graph,
    labels: Vec<usize>,
    community_sizes: Vec<usize>,
    modularity: f64,
}

impl PartitionSnapshot {
    /// Builds a snapshot from frozen state. `labels` must be renumbered
    /// (contiguous community ids) and cover every node of `graph`.
    pub(crate) fn new(epoch: u64, graph: Graph, labels: Vec<usize>, modularity: f64) -> Self {
        debug_assert_eq!(labels.len(), graph.num_nodes());
        let k = labels.iter().copied().max().map_or(0, |max| max + 1);
        let mut community_sizes = vec![0usize; k];
        for &label in &labels {
            community_sizes[label] += 1;
        }
        PartitionSnapshot { epoch, graph, labels, community_sizes, modularity }
    }

    /// The epoch (generation counter) this snapshot was published at. Strictly
    /// increasing across publications; epoch 0 is the initial partition.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of communities (contiguous ids `0..k`).
    pub fn num_communities(&self) -> usize {
        self.community_sizes.len()
    }

    /// The community of `node`, or `None` if the id is out of range.
    pub fn community_of(&self, node: NodeId) -> Option<usize> {
        self.labels.get(node).copied()
    }

    /// The community label per node (renumbered).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of member nodes per community.
    pub fn community_sizes(&self) -> &[usize] {
        &self.community_sizes
    }

    /// Number of members of `community`, or `None` if the id is out of range.
    pub fn community_size(&self, community: usize) -> Option<usize> {
        self.community_sizes.get(community).copied()
    }

    /// The maintained value of the configured quality function at this epoch
    /// (γ=1 modularity unless the service was configured with
    /// `StreamConfig::with_quality`).
    pub fn modularity(&self) -> f64 {
        self.modularity
    }

    /// The CSR graph snapshot this epoch's partition covers.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The partition as an owned [`Partition`].
    pub fn partition(&self) -> Partition {
        Partition::from_labels(self.labels.to_vec()).expect("snapshots cover at least one node")
    }

    /// The up-to-`k` communities adjacent to `node` ranked by total edge
    /// weight from `node` into them (descending weight, then ascending
    /// community id; the node's own community is included when it has
    /// in-community edges). Returns an empty vector for out-of-range nodes.
    pub fn top_communities_near(&self, node: NodeId, k: usize) -> Vec<(usize, f64)> {
        if node >= self.labels.len() || k == 0 {
            return Vec::new();
        }
        let mut weight_to: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for (v, w) in self.graph.neighbors(node) {
            *weight_to.entry(self.labels[v]).or_insert(0.0) += w;
        }
        let mut ranked: Vec<(usize, f64)> = weight_to.into_iter().collect();
        ranked
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite").then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

/// One node of the publication chain. `next` is set exactly once by the
/// single writer; readers observe it with an atomic acquire load.
#[derive(Debug)]
struct Link {
    snapshot: Arc<PartitionSnapshot>,
    next: OnceLock<Arc<Link>>,
}

impl Drop for Link {
    /// Unlinks the successors iteratively. The derived drop would recurse once
    /// per link, so dropping a reader that lags a long chain would overflow the
    /// stack; this walks forward instead and stops at the first link that
    /// another reader or the publisher still holds.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(link) = next {
            next = match Arc::try_unwrap(link) {
                Ok(mut owned) => owned.next.take(),
                Err(_) => None,
            };
        }
    }
}

/// The writer's handle: publishes a new epoch by appending to the chain.
///
/// There is exactly one publisher per service; publication is an `Arc`
/// allocation plus a single `OnceLock::set` (an atomic release store), so the
/// writer never waits on readers.
#[derive(Debug)]
pub(crate) struct SnapshotPublisher {
    tail: Arc<Link>,
}

impl SnapshotPublisher {
    /// Creates a chain seeded with the initial snapshot and a reader of it.
    pub(crate) fn new(initial: PartitionSnapshot) -> (Self, SnapshotReader) {
        let link = Arc::new(Link { snapshot: Arc::new(initial), next: OnceLock::new() });
        (SnapshotPublisher { tail: Arc::clone(&link) }, SnapshotReader { head: link })
    }

    /// Publishes `snapshot` as the new latest epoch.
    pub(crate) fn publish(&mut self, snapshot: PartitionSnapshot) {
        let link = Arc::new(Link { snapshot: Arc::new(snapshot), next: OnceLock::new() });
        self.tail.next.set(Arc::clone(&link)).expect("single writer owns the tail");
        self.tail = link;
    }

    /// The most recently published snapshot.
    pub(crate) fn latest(&self) -> Arc<PartitionSnapshot> {
        Arc::clone(&self.tail.snapshot)
    }

    /// A new independent reader positioned at the latest epoch.
    pub(crate) fn reader(&self) -> SnapshotReader {
        SnapshotReader { head: Arc::clone(&self.tail) }
    }
}

/// A lock-free reader handle onto the snapshot chain.
///
/// Each clone advances independently; [`SnapshotReader::latest`] walks the
/// chain to the newest published epoch with atomic acquire loads and returns
/// an `Arc` to its immutable snapshot. Dropping or lagging readers never
/// blocks the writer; fully-consumed chain prefixes are freed as the last
/// reader moves past them.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    head: Arc<Link>,
}

impl SnapshotReader {
    /// Advances to and returns the newest published snapshot.
    pub fn latest(&mut self) -> Arc<PartitionSnapshot> {
        while let Some(next) = self.head.next.get() {
            self.head = Arc::clone(next);
        }
        Arc::clone(&self.head.snapshot)
    }

    /// Returns the snapshot at the reader's current position without
    /// advancing (the epoch last returned by [`SnapshotReader::latest`], or
    /// the epoch the reader was created at).
    pub fn current(&self) -> Arc<PartitionSnapshot> {
        Arc::clone(&self.head.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, GraphBuilder};

    fn karate_snapshot(epoch: u64) -> PartitionSnapshot {
        let graph = generators::karate_club();
        let labels = generators::karate_club_communities().renumbered().labels().to_vec();
        let q = qhdcd_graph::modularity::modularity(
            &graph,
            &Partition::from_labels(labels.clone()).unwrap(),
        );
        PartitionSnapshot::new(epoch, graph, labels, q)
    }

    #[test]
    fn snapshot_point_queries() {
        let snap = karate_snapshot(3);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.num_nodes(), 34);
        assert_eq!(snap.community_sizes().iter().sum::<usize>(), 34);
        assert_eq!(snap.community_of(0), Some(snap.labels()[0]));
        assert_eq!(snap.community_of(999), None);
        assert_eq!(snap.community_size(snap.num_communities()), None);
        assert_eq!(snap.partition().num_nodes(), 34);
    }

    #[test]
    fn top_communities_ranked_by_attachment() {
        let snap = karate_snapshot(0);
        let ranked = snap.top_communities_near(0, 10);
        assert!(!ranked.is_empty());
        // Descending weight, ascending id on ties.
        for pair in ranked.windows(2) {
            assert!(pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0));
        }
        // Node 0 is firmly inside its own community.
        assert_eq!(ranked[0].0, snap.community_of(0).unwrap());
        assert_eq!(snap.top_communities_near(0, 1).len(), 1);
        assert!(snap.top_communities_near(999, 3).is_empty());
        assert!(snap.top_communities_near(0, 0).is_empty());
    }

    #[test]
    fn readers_advance_through_published_epochs() {
        let (mut publisher, mut reader) = SnapshotPublisher::new(karate_snapshot(0));
        assert_eq!(reader.latest().epoch(), 0);
        let mut lagging = reader.clone();
        publisher.publish(karate_snapshot(1));
        publisher.publish(karate_snapshot(2));
        assert_eq!(publisher.latest().epoch(), 2);
        assert_eq!(reader.latest().epoch(), 2);
        // The lagging clone still sees its old position until it advances.
        assert_eq!(lagging.current().epoch(), 0);
        assert_eq!(lagging.latest().epoch(), 2);
        assert_eq!(publisher.reader().current().epoch(), 2);
    }

    #[test]
    fn dropping_a_lagging_reader_keeps_the_links_later_readers_hold() {
        let (mut publisher, oldest) = SnapshotPublisher::new(karate_snapshot(0));
        for epoch in 1..=5 {
            publisher.publish(karate_snapshot(epoch));
        }
        let mut middle = publisher.reader();
        for epoch in 6..=10 {
            publisher.publish(karate_snapshot(epoch));
        }
        drop(oldest);
        assert_eq!(middle.current().epoch(), 5);
        assert_eq!(middle.latest().epoch(), 10);
    }

    #[test]
    fn dropping_a_reader_that_lags_a_long_chain_does_not_overflow_the_stack() {
        let empty = || PartitionSnapshot::new(0, GraphBuilder::new(0).build(), Vec::new(), 0.0);
        let (mut publisher, parked) = SnapshotPublisher::new(empty());
        for _ in 0..300_000 {
            publisher.publish(empty());
        }
        // The parked reader is the only holder of every link but the tail.
        drop(parked);
        assert_eq!(publisher.reader().current().num_nodes(), 0);
    }
}
