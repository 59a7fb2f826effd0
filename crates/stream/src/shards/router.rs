//! Deterministic event routing and the per-shard journal entry format.
//!
//! Each event of a batch is routed to the shard(s) owning its endpoints'
//! communities **under the pre-batch labels** (routing happens before the
//! batch mutates anything, so every service with the same state and shard
//! count routes identically). A cross-shard event — endpoints owned by
//! different shards — becomes a *boundary entry* replicated to both owners,
//! with the lowest-id owner marked as the **primary** holder; merging the
//! primary entries of all shards reconstructs the exact global journal. A
//! node deletion is routed to the owner of the node's community plus the
//! owners of every neighbour's community (its edges vanish from all of them).
//!
//! Routing only decides journal placement and fault domains. It never feeds
//! back into refinement, which is pinned bit-identical for any shard count.

use super::ownership::OwnershipTable;
use crate::StreamError;
use qhdcd_graph::{DynamicGraph, EdgeEvent};
use std::collections::BTreeSet;

/// The routing of one batch: per-shard `(position, primary)` entries plus the
/// set of shards that received at least one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoutedBatch {
    /// For each shard, the `(position-in-batch, is-primary)` pairs routed to
    /// it, ascending by position.
    pub(crate) per_shard: Vec<Vec<(usize, bool)>>,
    /// Shards receiving at least one entry, ascending.
    pub(crate) owners: Vec<usize>,
}

/// Routes `events` (already validated against `graph`) under the pre-batch
/// `labels` and `ownership`.
pub(crate) fn route_batch(
    events: &[EdgeEvent],
    labels: &[usize],
    graph: &DynamicGraph,
    ownership: &OwnershipTable,
) -> RoutedBatch {
    let mut per_shard: Vec<Vec<(usize, bool)>> = vec![Vec::new(); ownership.shards()];
    let mut owners = BTreeSet::new();
    for (pos, event) in events.iter().enumerate() {
        let mut set = BTreeSet::new();
        match *event {
            EdgeEvent::Add { u, v, .. }
            | EdgeEvent::Update { u, v, .. }
            | EdgeEvent::Remove { u, v } => {
                set.insert(ownership.owner(labels[u]));
                set.insert(ownership.owner(labels[v]));
            }
            EdgeEvent::RemoveNode { u } => {
                set.insert(ownership.owner(labels[u]));
                for (v, _) in graph.neighbors(u) {
                    set.insert(ownership.owner(labels[v]));
                }
            }
        }
        let primary = *set.iter().next().expect("every event has at least one owner");
        for &shard in &set {
            per_shard[shard].push((pos, shard == primary));
            owners.insert(shard);
        }
    }
    RoutedBatch { per_shard, owners: owners.into_iter().collect() }
}

/// One line of a shard's journal: which global batch and position the event
/// came from, how many events that batch holds, whether this shard is the
/// primary holder, and the event itself.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardJournalEntry {
    /// 0-based global journal batch index.
    pub(crate) batch: u64,
    /// Position of the event within its batch.
    pub(crate) pos: usize,
    /// Number of events in the batch, so that recovery can tell a complete
    /// batch from one whose last primary entries a torn log lost.
    pub(crate) batch_len: usize,
    /// Whether this shard is the primary (lowest-id) owner of the event.
    pub(crate) primary: bool,
    /// The routed event.
    pub(crate) event: EdgeEvent,
}

impl ShardJournalEntry {
    /// Serializes the entry as one line:
    /// `<batch> <pos> <batch_len> <p|r> add <u> <v> <w>` (and `del` / `upd` /
    /// `del_node` like the standard event-log verbs). Weights use `{}`
    /// formatting, which round-trips `f64` values bit-exactly.
    pub(crate) fn to_line(&self) -> String {
        let flag = if self.primary { 'p' } else { 'r' };
        let head = format!("{} {} {} {flag}", self.batch, self.pos, self.batch_len);
        match self.event {
            EdgeEvent::Add { u, v, weight } => format!("{head} add {u} {v} {weight}"),
            EdgeEvent::Remove { u, v } => format!("{head} del {u} {v}"),
            EdgeEvent::Update { u, v, weight } => format!("{head} upd {u} {v} {weight}"),
            EdgeEvent::RemoveNode { u } => format!("{head} del_node {u}"),
        }
    }

    /// Parses one [`ShardJournalEntry::to_line`] line. `line_number` (1-based)
    /// is only used for error context.
    pub(crate) fn parse_line(line: &str, line_number: usize) -> Result<Self, StreamError> {
        let err = |reason: String| StreamError::Manifest { line: line_number, reason };
        let mut tokens = line.split_whitespace();
        let mut next = |what: &str| {
            tokens
                .next()
                .ok_or_else(|| err(format!("shard journal entry is missing its {what}")))
                .map(str::to_string)
        };
        let batch = next("batch index")?
            .parse::<u64>()
            .map_err(|e| err(format!("invalid batch index: {e}")))?;
        let pos = next("position")?
            .parse::<usize>()
            .map_err(|e| err(format!("invalid position: {e}")))?;
        let batch_len = next("batch length")?
            .parse::<usize>()
            .map_err(|e| err(format!("invalid batch length: {e}")))?;
        if pos >= batch_len {
            return Err(err(format!("position {pos} lies outside its {batch_len}-event batch")));
        }
        let primary = match next("primary flag")?.as_str() {
            "p" => true,
            "r" => false,
            other => return Err(err(format!("invalid primary flag `{other}` (expected p or r)"))),
        };
        let verb = next("event verb")?;
        let parse_node = |tok: String| {
            tok.parse::<usize>().map_err(|e| err(format!("invalid node id `{tok}`: {e}")))
        };
        let event = match verb.as_str() {
            "add" | "upd" => {
                let u = parse_node(next("endpoint")?)?;
                let v = parse_node(next("endpoint")?)?;
                let w = next("weight")?;
                let weight =
                    w.parse::<f64>().map_err(|e| err(format!("invalid weight `{w}`: {e}")))?;
                if verb == "add" {
                    EdgeEvent::Add { u, v, weight }
                } else {
                    EdgeEvent::Update { u, v, weight }
                }
            }
            "del" => {
                let u = parse_node(next("endpoint")?)?;
                let v = parse_node(next("endpoint")?)?;
                EdgeEvent::Remove { u, v }
            }
            "del_node" => EdgeEvent::RemoveNode { u: parse_node(next("node id")?)? },
            other => return Err(err(format!("unknown event verb `{other}`"))),
        };
        if let Some(extra) = tokens.next() {
            return Err(err(format!("unexpected trailing token `{extra}`")));
        }
        Ok(ShardJournalEntry { batch, pos, batch_len, primary, event })
    }
}

/// Serializes a shard's journal entries, one line each (terminated by `\n`;
/// an empty journal is the empty string).
pub(crate) fn entries_to_log(entries: &[ShardJournalEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&entry.to_line());
        out.push('\n');
    }
    out
}

/// Parses [`entries_to_log`] output.
///
/// # Errors
///
/// [`StreamError::Manifest`] for a malformed entry, or for a non-empty log
/// whose last line lacks its `\n`: a torn final entry may still parse (a
/// weight cut from `1.25` to `1.2`), so it is never trusted.
pub(crate) fn parse_shard_log(text: &str) -> Result<Vec<ShardJournalEntry>, StreamError> {
    if !text.is_empty() && !text.ends_with('\n') {
        return Err(StreamError::Manifest {
            line: text.lines().count(),
            reason: "shard journal entry is torn (no terminating newline)".into(),
        });
    }
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| ShardJournalEntry::parse_line(line, i + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_lines_round_trip_bit_exactly() {
        let entries = vec![
            ShardJournalEntry {
                batch: 0,
                pos: 0,
                batch_len: 2,
                primary: true,
                event: EdgeEvent::Add { u: 1, v: 2, weight: 0.1 + 0.2 },
            },
            ShardJournalEntry {
                batch: 0,
                pos: 1,
                batch_len: 2,
                primary: false,
                event: EdgeEvent::Remove { u: 3, v: 4 },
            },
            ShardJournalEntry {
                batch: 2,
                pos: 0,
                batch_len: 1,
                primary: true,
                event: EdgeEvent::Update { u: 5, v: 5, weight: 1e-300 },
            },
            ShardJournalEntry {
                batch: 3,
                pos: 7,
                batch_len: 8,
                primary: false,
                event: EdgeEvent::RemoveNode { u: 9 },
            },
        ];
        let log = entries_to_log(&entries);
        let parsed = parse_shard_log(&log).unwrap();
        assert_eq!(parsed, entries);
        // A log cut before its final newline is torn, even though the cut
        // line would parse.
        let err = parse_shard_log(&log[..log.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Weight bits survive the text round trip.
        match (&parsed[0].event, &entries[0].event) {
            (EdgeEvent::Add { weight: a, .. }, EdgeEvent::Add { weight: b, .. }) => {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malformed_entry_lines_are_rejected_with_context() {
        for bad in [
            "0 0 1 p add 1 2",      // missing weight
            "0 0 1 x add 1 2 1.0",  // bad flag
            "0 0 1 p fuse 1 2 1.0", // unknown verb
            "0 1 p add 1 2 1.0",    // missing batch length
            "0 1 1 p del 1 2",      // position outside the batch
            "0 0 1 p del 1 2 junk", // trailing token
        ] {
            let err = ShardJournalEntry::parse_line(bad, 5).unwrap_err();
            assert!(matches!(err, StreamError::Manifest { line: 5, .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn routing_replicates_boundary_events_with_lowest_primary() {
        use qhdcd_graph::generators;
        let graph = DynamicGraph::from_graph(&generators::ring_of_cliques(2, 3).unwrap().graph);
        // Two communities: {0,1,2} and {3,4,5}; slots 0 and 1.
        let labels = vec![0, 0, 0, 1, 1, 1];
        let ownership = OwnershipTable::derive(&labels, 2, 2);
        let (s0, s1) = (ownership.owner(0), ownership.owner(1));
        assert_ne!(s0, s1);
        let events = vec![
            EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }, // inside community 0
            EdgeEvent::Add { u: 0, v: 4, weight: 1.0 }, // boundary
            EdgeEvent::Remove { u: 3, v: 4 },           // inside community 1
        ];
        let routed = route_batch(&events, &labels, &graph, &ownership);
        assert_eq!(routed.owners, vec![0, 1]);
        // The boundary event appears on both shards, primary on the lower id.
        assert_eq!(routed.per_shard[s0], vec![(0, true), (1, s0 < s1)]);
        assert_eq!(routed.per_shard[s1], vec![(1, s1 < s0), (2, true)]);
    }

    #[test]
    fn node_deletion_routes_to_every_touched_owner() {
        use qhdcd_graph::generators;
        // Ring of 3 cliques of 3: node 2 has the inter-clique edge to node 3.
        let pg = generators::ring_of_cliques(3, 3).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        let labels = pg.ground_truth.labels().to_vec();
        let ownership = OwnershipTable::derive(&labels, 3, 3);
        let routed = route_batch(&[EdgeEvent::RemoveNode { u: 2 }], &labels, &graph, &ownership);
        // Node 2's community plus the neighbouring clique's community.
        let mut expected = BTreeSet::new();
        expected.insert(ownership.owner(labels[2]));
        for (v, _) in graph.neighbors(2) {
            expected.insert(ownership.owner(labels[v]));
        }
        assert_eq!(routed.owners, expected.into_iter().collect::<Vec<_>>());
    }
}
