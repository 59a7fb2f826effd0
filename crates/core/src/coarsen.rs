//! Heavy-edge-matching coarsening (the Coarsening phase of Algorithm 2).
//!
//! Vertices are greedily matched along edges with a high score
//!
//! ```text
//! w(e) = α · |N(u) ∩ N(v)| / |N(u) ∪ N(v)|  +  β · A_uv / max_e A_e     (Eq. 6)
//! ```
//!
//! (neighbourhood Jaccard similarity plus normalised edge weight), matched
//! pairs are merged into super-nodes, and the process repeats until the graph
//! has at most `threshold` nodes or stops shrinking. `N(·)` excludes the two
//! endpoints themselves, and `max_e A_e` runs over all edges, including the
//! self-loops that super-nodes carry after the first level.
//!
//! Scoring one level costs one stamp array of `n` entries and
//! `O(Σ_(u,v) deg v)` time, with no allocation per edge: the overlap counts
//! are integers, so the scores do not depend on how the overlap is counted.

use crate::CdError;
use qhdcd_graph::{quotient, Graph, Partition};

/// Configuration of the coarsening phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarsenConfig {
    /// Weight `α` of the neighbourhood-overlap (Jaccard) term in Eq. 6.
    pub alpha: f64,
    /// Weight `β` of the normalised edge-weight term in Eq. 6.
    pub beta: f64,
    /// Stop coarsening once the graph has at most this many nodes.
    pub threshold: usize,
    /// Hard cap on the number of coarsening levels.
    pub max_levels: usize,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig { alpha: 0.5, beta: 0.5, threshold: 200, max_levels: 20 }
    }
}

impl CoarsenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::InvalidConfig`] for non-finite/negative weights, a
    /// zero threshold or a zero level cap.
    pub fn validate(&self) -> Result<(), CdError> {
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if !v.is_finite() || v < 0.0 {
                return Err(CdError::InvalidConfig {
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        if self.threshold == 0 {
            return Err(CdError::InvalidConfig { reason: "threshold must be > 0".into() });
        }
        if self.max_levels == 0 {
            return Err(CdError::InvalidConfig { reason: "max_levels must be > 0".into() });
        }
        Ok(())
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarsened graph at this level.
    pub graph: Graph,
    /// For every node of the *previous (finer)* level, the index of its
    /// super-node in [`CoarseLevel::graph`].
    pub coarse_of: Vec<usize>,
}

/// The full coarsening hierarchy produced by [`coarsen_hierarchy`]. Level 0 is
/// the first coarsened graph; the original graph is not stored.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// The levels, finest to coarsest.
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// The coarsest graph of the hierarchy, or `None` if no coarsening happened.
    pub fn coarsest(&self) -> Option<&Graph> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Number of coarsening levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Projects a partition of the coarsest graph back to the original graph by
    /// walking the hierarchy from coarsest to finest (the Projection step of
    /// Algorithm 2).
    pub fn project_to_finest(&self, coarsest_partition: &Partition) -> Partition {
        let mut partition = coarsest_partition.clone();
        for level in self.levels.iter().rev() {
            partition = partition.project(&level.coarse_of);
        }
        partition
    }
}

/// Scores every non-loop edge of `graph` by Eq. 6, in [`Graph::edges`] order.
///
/// The neighbourhood overlap is counted with one stamp array: the neighbours
/// of `u` are stamped with `u`, then the neighbourhood of each `v > u` is
/// walked once, counting `|N(v) \ {u, v}|` and the neighbours already stamped.
/// `|N(u) \ {u, v}|` comes from the neighbour count (less `v` and a
/// self-loop), since neighbour lists hold each neighbour once.
fn edge_scores(graph: &Graph, config: &CoarsenConfig) -> Vec<(f64, usize, usize)> {
    let n = graph.num_nodes();
    let max_weight = graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
    let mut scored: Vec<(f64, usize, usize)> = Vec::with_capacity(graph.num_edges());
    let mut mark = vec![usize::MAX; n];
    for u in 0..n {
        let mut self_loop = false;
        for (x, _) in graph.neighbors(u) {
            mark[x] = u;
            self_loop |= x == u;
        }
        // |N(u) \ {u}|; each edge below takes `v` off it as well.
        let others = graph.neighbor_count(u) - usize::from(self_loop);
        for (v, w) in graph.neighbors(u) {
            if v <= u {
                continue;
            }
            let (mut dv, mut common) = (0usize, 0usize);
            for (x, _) in graph.neighbors(v) {
                if x != u && x != v {
                    dv += 1;
                    common += usize::from(mark[x] == u);
                }
            }
            let union = (others - 1) + dv - common;
            let jaccard = if union == 0 { 0.0 } else { common as f64 / union as f64 };
            let score = config.alpha * jaccard + config.beta * w / max_weight;
            scored.push((score, u, v));
        }
    }
    scored
}

/// Performs one round of greedy heavy-edge matching on the Eq. 6 scores,
/// returning the super-node index of every node. Unmatched nodes become
/// singleton super-nodes.
fn match_round(graph: &Graph, config: &CoarsenConfig) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut scored = edge_scores(graph, config);
    // Highest score first; ties broken by node ids for determinism.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).expect("scores are finite").then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    });

    let mut matched = vec![false; n];
    let mut partner: Vec<Option<usize>> = vec![None; n];
    for (_, u, v) in scored {
        if !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            partner[u] = Some(v);
            partner[v] = Some(u);
        }
    }
    // Assign super-node ids: each matched pair and each unmatched node gets one.
    let mut super_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for u in 0..n {
        if super_of[u] != usize::MAX {
            continue;
        }
        super_of[u] = next;
        if let Some(v) = partner[u] {
            super_of[v] = next;
        }
        next += 1;
    }
    super_of
}

/// Performs one coarsening step (one matching round + aggregation).
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for invalid configurations and
/// [`CdError::Graph`] if aggregation fails.
pub fn coarsen_once(graph: &Graph, config: &CoarsenConfig) -> Result<CoarseLevel, CdError> {
    config.validate()?;
    coarsen_step(graph, config)
}

/// One matching round + aggregation, for an already validated `config`.
fn coarsen_step(graph: &Graph, config: &CoarsenConfig) -> Result<CoarseLevel, CdError> {
    let super_of = match_round(graph, config);
    let partition = Partition::from_labels(super_of).map_err(CdError::Graph)?;
    let q = quotient::aggregate(graph, &partition).map_err(CdError::Graph)?;
    Ok(CoarseLevel { graph: q.graph, coarse_of: q.coarse_of })
}

/// Coarsens `graph` repeatedly until it has at most `config.threshold` nodes,
/// stops shrinking, or `config.max_levels` levels have been produced
/// (the Coarsening phase of Algorithm 2).
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for invalid configurations and
/// [`CdError::Graph`] if aggregation fails.
///
/// # Example
///
/// ```
/// use qhdcd_core::coarsen::{coarsen_hierarchy, CoarsenConfig};
/// use qhdcd_graph::generators;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let pg = generators::ring_of_cliques(10, 10)?;
/// let config = CoarsenConfig { threshold: 25, ..CoarsenConfig::default() };
/// let hierarchy = coarsen_hierarchy(&pg.graph, &config)?;
/// assert!(hierarchy.coarsest().map(|g| g.num_nodes()).unwrap_or(100) <= 25);
/// # Ok(())
/// # }
/// ```
pub fn coarsen_hierarchy(graph: &Graph, config: &CoarsenConfig) -> Result<Hierarchy, CdError> {
    config.validate()?;
    let mut hierarchy = Hierarchy::default();
    while hierarchy.levels.len() < config.max_levels {
        let current = hierarchy.coarsest().unwrap_or(graph);
        if current.num_nodes() <= config.threshold {
            break;
        }
        let level = coarsen_step(current, config)?;
        if level.graph.num_nodes() >= current.num_nodes() {
            break; // No progress: nothing could be matched.
        }
        hierarchy.levels.push(level);
    }
    Ok(hierarchy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, GraphBuilder};
    use std::collections::HashSet;

    #[test]
    fn config_validation() {
        assert!(CoarsenConfig::default().validate().is_ok());
        assert!(CoarsenConfig { alpha: -1.0, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { beta: f64::NAN, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { threshold: 0, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { max_levels: 0, ..CoarsenConfig::default() }.validate().is_err());
    }

    #[test]
    fn one_round_roughly_halves_the_graph() {
        let pg = generators::ring_of_cliques(8, 8).unwrap();
        let level = coarsen_once(&pg.graph, &CoarsenConfig::default()).unwrap();
        let n0 = pg.graph.num_nodes();
        let n1 = level.graph.num_nodes();
        assert!(n1 < n0);
        assert!(n1 >= n0 / 2);
        assert_eq!(level.coarse_of.len(), n0);
        // Total edge weight and node weight are preserved by aggregation.
        assert!((level.graph.total_edge_weight() - pg.graph.total_edge_weight()).abs() < 1e-9);
        assert!((level.graph.total_node_weight() - n0 as f64).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_reaches_the_threshold() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 300,
            num_communities: 6,
            p_in: 0.25,
            p_out: 0.01,
            seed: 4,
        })
        .unwrap();
        let config = CoarsenConfig { threshold: 60, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        assert!(h.num_levels() >= 1);
        assert!(h.coarsest().unwrap().num_nodes() <= 60);
        // Node weights on the coarsest graph sum to the original node count.
        assert!((h.coarsest().unwrap().total_node_weight() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn small_graphs_are_not_coarsened() {
        let g = generators::karate_club();
        let h = coarsen_hierarchy(&g, &CoarsenConfig::default()).unwrap();
        assert_eq!(h.num_levels(), 0);
        assert!(h.coarsest().is_none());
    }

    #[test]
    fn matching_prefers_dense_neighbourhood_overlap() {
        // Two triangles joined by one bridge: the highest-scoring matches are
        // inside the triangles (Jaccard 1), so the first merged pairs are
        // intra-triangle, never the bridge.
        let g = GraphBuilder::from_unweighted_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap();
        let super_of =
            match_round(&g, &CoarsenConfig { alpha: 1.0, beta: 0.1, ..CoarsenConfig::default() });
        // The two Jaccard-1 pairs (0,1) and (4,5) are matched first; the bridge
        // endpoints 2 and 3 can only pair up with whatever is left.
        assert_eq!(super_of[0], super_of[1]);
        assert_eq!(super_of[4], super_of[5]);
        assert_ne!(super_of[0], super_of[4]);
    }

    #[test]
    fn projection_round_trip_through_the_hierarchy() {
        let pg = generators::ring_of_cliques(12, 6).unwrap();
        let config = CoarsenConfig { threshold: 18, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        let coarsest_nodes = h.coarsest().unwrap().num_nodes();
        let coarsest_partition = Partition::singletons(coarsest_nodes);
        let lifted = h.project_to_finest(&coarsest_partition);
        assert_eq!(lifted.num_nodes(), pg.graph.num_nodes());
        assert_eq!(lifted.num_communities(), coarsest_nodes);
    }

    #[test]
    fn disconnected_nodes_survive_coarsening() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        // Nodes 2, 3, 4 are isolated.
        let g = b.build();
        let level = coarsen_once(&g, &CoarsenConfig::default()).unwrap();
        assert_eq!(level.graph.num_nodes(), 4); // (0,1) merged, 3 singletons.
        assert!((level.graph.total_node_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_is_between_zero_and_one() {
        let g = generators::karate_club();
        let jaccard_only = CoarsenConfig { alpha: 1.0, beta: 0.0, ..CoarsenConfig::default() };
        let scored = edge_scores(&g, &jaccard_only);
        assert_eq!(scored.len(), g.num_edges());
        for (j, _, _) in scored {
            assert!((0.0..=1.0).contains(&j));
        }
    }

    /// Reference Jaccard similarity of the neighbourhoods of `u` and `v`
    /// (excluding `u`, `v` themselves), built from two hash sets.
    fn neighborhood_jaccard(graph: &Graph, u: usize, v: usize) -> f64 {
        let set_u: HashSet<usize> =
            graph.neighbors(u).map(|(x, _)| x).filter(|&x| x != u && x != v).collect();
        let set_v: HashSet<usize> =
            graph.neighbors(v).map(|(x, _)| x).filter(|&x| x != u && x != v).collect();
        let intersection = set_u.intersection(&set_v).count() as f64;
        let union = set_u.union(&set_v).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            intersection / union
        }
    }

    /// Asserts that the stamp-array kernel scores every edge of `graph` to the
    /// bit of the hash-set reference, under a mixed and a Jaccard-only config.
    fn assert_scores_match_reference(graph: &Graph) {
        let max_weight =
            graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
        for config in [
            CoarsenConfig::default(),
            CoarsenConfig { alpha: 1.0, beta: 0.0, ..CoarsenConfig::default() },
        ] {
            let reference: Vec<(u64, usize, usize)> = graph
                .edges()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, w)| {
                    let score = config.alpha * neighborhood_jaccard(graph, u, v)
                        + config.beta * w / max_weight;
                    (score.to_bits(), u, v)
                })
                .collect();
            let kernel: Vec<(u64, usize, usize)> = edge_scores(graph, &config)
                .into_iter()
                .map(|(score, u, v)| (score.to_bits(), u, v))
                .collect();
            assert_eq!(kernel, reference);
        }
    }

    #[test]
    fn edge_scores_match_the_hash_set_reference_on_karate() {
        assert_scores_match_reference(&generators::karate_club());
    }

    #[test]
    fn edge_scores_match_the_hash_set_reference_on_loops_isolates_and_pendants() {
        let mut b = GraphBuilder::new(11);
        // A triangle with a self-loop on 0 and a pendant node 3 hanging off 2.
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (0, 0)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        // An isolated pair (union == 0), and one with self-loops at both ends.
        b.add_edge(4, 5, 2.0).unwrap();
        b.add_edge(6, 7, 1.0).unwrap();
        b.add_edge(6, 6, 3.0).unwrap();
        b.add_edge(7, 7, 0.5).unwrap();
        // A lone self-loop on 8; nodes 9 and 10 are isolated.
        b.add_edge(8, 8, 1.0).unwrap();
        let g = b.build();
        assert_scores_match_reference(&g);
        let jaccard_only = CoarsenConfig { alpha: 1.0, beta: 0.0, ..CoarsenConfig::default() };
        let scores = edge_scores(&g, &jaccard_only);
        assert!(scores.contains(&(0.0, 4, 5)));
        assert!(scores.contains(&(0.0, 6, 7)));
        // N(0) \ {0, 1} = {2} and N(1) \ {0, 1} = {2}.
        assert!(scores.contains(&(1.0, 0, 1)));
    }

    #[test]
    fn edge_scores_match_the_hash_set_reference_on_a_weighted_graph() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 120,
            num_communities: 4,
            p_in: 0.3,
            p_out: 0.03,
            seed: 9,
        })
        .unwrap();
        let mut b = GraphBuilder::new(pg.graph.num_nodes());
        for (u, v, _) in pg.graph.edges() {
            b.add_edge(u, v, 0.25 + ((u * 7 + v * 13) % 5) as f64 * 0.375).unwrap();
        }
        assert_scores_match_reference(&b.build());
    }

    #[test]
    fn edge_scores_match_the_hash_set_reference_at_every_hierarchy_level() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 400,
            num_communities: 8,
            p_in: 0.2,
            p_out: 0.01,
            seed: 11,
        })
        .unwrap();
        let config = CoarsenConfig { threshold: 20, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        assert!(h.num_levels() >= 3);
        assert_scores_match_reference(&pg.graph);
        for level in &h.levels {
            let g = &level.graph;
            assert!((0..g.num_nodes()).any(|u| g.has_edge(u, u)), "super-nodes carry self-loops");
            assert_scores_match_reference(g);
        }
    }

    fn fnv1a(values: &[usize]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &value in values {
            for byte in (value as u64).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn hierarchy_is_pinned_on_the_dense_table_ii_row() {
        // The 4039-node, 88 234-edge matched graph of the dense Table II row.
        // Per level: (nodes, edges, total edge weight bits, FNV-1a of coarse_of).
        const PINNED: [(usize, usize, u64, u64); 5] = [
            (2055, 76928, 0x40f5_9700_0000_0000, 0x7d70_6623_448f_bcdb),
            (1054, 58584, 0x40f5_9700_0000_0000, 0x530c_db60_8426_71ff),
            (551, 33607, 0x40f5_9700_0000_0000, 0xf545_7816_2e49_8232),
            (298, 18468, 0x40f5_9700_0000_0000, 0xa5e3_5fcb_8b64_6722),
            (170, 8576, 0x40f5_9700_0000_0000, 0xfe46_5fdc_d36a_da93),
        ];
        let pg = generators::planted_partition_with_edge_budget(4039, 8, 88234, 0.2, 1).unwrap();
        let h = coarsen_hierarchy(&pg.graph, &CoarsenConfig::default()).unwrap();
        let got: Vec<(usize, usize, u64, u64)> = h
            .levels
            .iter()
            .map(|l| {
                let g = &l.graph;
                (g.num_nodes(), g.num_edges(), g.total_edge_weight().to_bits(), fnv1a(&l.coarse_of))
            })
            .collect();
        assert_eq!(got, PINNED);
    }

    #[test]
    fn max_levels_caps_the_hierarchy_depth() {
        let pg = generators::ring_of_cliques(32, 8).unwrap();
        let config = CoarsenConfig { threshold: 2, max_levels: 2, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        assert!(h.num_levels() <= 2);
    }
}
