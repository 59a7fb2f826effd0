//! Quality-gain refinement (the Refinement step of Algorithm 2).
//!
//! At each level of the multilevel pipeline, nodes are repeatedly moved to the
//! neighbouring community with the highest positive quality gain — under the
//! configured [`QualityFunction`], unit-resolution modularity by default —
//! until no improving move remains or the pass budget is exhausted. The same
//! routine also powers the local phase of the Louvain baseline.
//!
//! Every refinement — the whole-graph sweep of [`refine_partition`], the
//! localized [`refine_frontier`] and the streaming detector's incremental twin
//! — decides each move with the one [`NeighborScan`] best-move scan: a single
//! O(deg) pass accumulates the node's edge weight into every neighbouring
//! community, candidates are priced by the Louvain gain
//! ([`QualityFunction::gain_weighted`]) from the per-community aggregates
//! [`ModularityState`] maintains, and the strictly best gain above
//! [`QualityFunction::move_tolerance`] wins, exact ties keeping the candidate
//! seen first. A sweep stops once a pass gains less than
//! [`QualityFunction::pass_gain_threshold`].

use crate::CdError;
use qhdcd_graph::{
    modularity::{ModularityState, NeighborScan},
    Graph, Partition, QualityFunction,
};
use std::collections::BTreeSet;

/// Configuration of the quality-gain refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Maximum number of full passes over the nodes.
    pub max_passes: usize,
    /// Minimum total quality gain per pass to keep iterating, in modularity
    /// units; scaled to the configured quality function's gain units by
    /// [`QualityFunction::pass_gain_threshold`].
    pub min_gain: f64,
    /// The quality function whose gain drives the moves (unit-resolution
    /// modularity by default).
    pub quality: QualityFunction,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { max_passes: 20, min_gain: 1e-7, quality: QualityFunction::default() }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined partition (renumbered).
    pub partition: Partition,
    /// Total quality gain (in the configured quality function's units)
    /// accumulated over all applied moves.
    pub total_gain: f64,
    /// Number of single-node moves applied.
    pub moves: usize,
    /// Number of full passes performed.
    pub passes: usize,
}

/// Refines `partition` on `graph` by greedy single-node quality-gain moves
/// under `config.quality` (unit-resolution modularity by default).
///
/// The refined partition's quality is never lower than the input's.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the nodes
/// of `graph`, or [`CdError::InvalidConfig`] if `config.max_passes` is zero.
///
/// # Example
///
/// ```
/// use qhdcd_core::refine::{refine_partition, RefineConfig};
/// use qhdcd_graph::{generators, modularity, Partition};
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let g = generators::karate_club();
/// let start = Partition::singletons(g.num_nodes());
/// let out = refine_partition(&g, &start, &RefineConfig::default())?;
/// assert!(modularity::modularity(&g, &out.partition) > 0.3);
/// # Ok(())
/// # }
/// ```
pub fn refine_partition(
    graph: &Graph,
    partition: &Partition,
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    if config.max_passes == 0 {
        return Err(CdError::InvalidConfig { reason: "max_passes must be > 0".into() });
    }
    partition.check_matches(graph).map_err(CdError::Graph)?;
    let mut state = ModularityState::with_quality(graph, partition, config.quality);
    let mut scan = NeighborScan::new();
    let stop_below = config.quality.pass_gain_threshold(config.min_gain, state.two_m());
    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        passes += 1;
        let mut pass_gain = 0.0;
        let pass_start = moves;
        for node in 0..graph.num_nodes() {
            if let Some((target, gain)) = best_move(&mut scan, graph, &state, node) {
                state.apply_move(graph, node, target);
                pass_gain += gain;
                moves += 1;
            }
        }
        total_gain += pass_gain;
        // A pass without moves is a fixed point, whatever the threshold (it
        // is 0 for CPM on an edgeless graph).
        if moves == pass_start || pass_gain < stop_below {
            break;
        }
    }
    Ok(RefineOutcome { partition: state.to_partition().renumbered(), total_gain, moves, passes })
}

/// The one move decision of every refinement sweep: `node`'s best strictly
/// positive-gain move under `state`'s quality function, from the shared
/// one-pass [`NeighborScan`].
fn best_move(
    scan: &mut NeighborScan,
    graph: &Graph,
    state: &ModularityState,
    node: usize,
) -> Option<(usize, f64)> {
    scan.best_move_with_quality_weighted(
        node,
        graph.neighbors(node),
        state.labels(),
        graph.degree(node),
        graph.node_weight(node),
        state.two_m(),
        state.sigma_tot(),
        state.quality_function(),
    )
}

/// Refines only a *frontier* of nodes (plus whatever the moves reach), leaving
/// the rest of the partition untouched.
///
/// This is the localized counterpart of [`refine_partition`] used by the
/// streaming subsystem: after a batch of edge events perturbs a neighbourhood,
/// only the touched nodes and their surroundings can profit from moving, so
/// the move scan is restricted to a worklist seeded with `frontier`. Whenever
/// a node moves, it and its neighbours are re-enqueued for the next pass, so
/// improvements propagate outward exactly as far as they keep paying off.
///
/// Each move is decided by the same [`NeighborScan`] scan as the whole-graph
/// sweep; the traversal is fully deterministic — the worklist is scanned in
/// ascending node order and candidate communities in ascending neighbour
/// order, strict-improvement tie-breaks — which the streaming determinism
/// contract relies on.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the
/// nodes of `graph` or a frontier node is out of range, and
/// [`CdError::InvalidConfig`] if `config.max_passes` is zero.
pub fn refine_frontier(
    graph: &Graph,
    partition: &Partition,
    frontier: &[usize],
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    if config.max_passes == 0 {
        return Err(CdError::InvalidConfig { reason: "max_passes must be > 0".into() });
    }
    partition.check_matches(graph).map_err(CdError::Graph)?;
    for &node in frontier {
        graph.check_node(node).map_err(CdError::Graph)?;
    }
    let mut state = ModularityState::with_quality(graph, partition, config.quality);
    let mut scan = NeighborScan::new();
    let stop_below = config.quality.pass_gain_threshold(config.min_gain, state.two_m());
    let mut worklist: BTreeSet<usize> = frontier.iter().copied().collect();
    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        if worklist.is_empty() {
            break;
        }
        passes += 1;
        let mut pass_gain = 0.0;
        let mut next = BTreeSet::new();
        for &node in &worklist {
            if let Some((target, gain)) = best_move(&mut scan, graph, &state, node) {
                state.apply_move(graph, node, target);
                pass_gain += gain;
                moves += 1;
                next.insert(node);
                for (v, _) in graph.neighbors(node) {
                    next.insert(v);
                }
            }
        }
        total_gain += pass_gain;
        worklist = next;
        if pass_gain < stop_below {
            break;
        }
    }
    Ok(RefineOutcome { partition: state.to_partition().renumbered(), total_gain, moves, passes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, modularity};

    #[test]
    fn refinement_never_decreases_modularity() {
        let planted = |num_nodes, num_communities, p_in, p_out, seed| {
            generators::planted_partition(&generators::PlantedPartitionConfig {
                num_nodes,
                num_communities,
                p_in,
                p_out,
                seed,
            })
            .unwrap()
        };
        let small = planted(120, 4, 0.3, 0.02, 1);
        let large = planted(600, 6, 0.1, 0.005, 4);
        let starts = [
            (&small.graph, Partition::singletons(120)),
            (&small.graph, Partition::all_in_one(120)),
            (&small.graph, small.ground_truth.clone()),
            (&large.graph, Partition::singletons(600)),
        ];
        for (graph, start) in starts {
            let before = modularity::modularity(graph, &start);
            let out = refine_partition(graph, &start, &RefineConfig::default()).unwrap();
            let after = modularity::modularity(graph, &out.partition);
            assert!(after >= before - 1e-12, "before={before} after={after}");
            assert!((after - before - out.total_gain).abs() < 1e-6);
            if start.num_communities() == graph.num_nodes() {
                assert!(after > before && out.moves > 0, "singletons must merge");
            }
        }
    }

    #[test]
    fn refinement_from_singletons_finds_community_structure() {
        let g = generators::karate_club();
        let out =
            refine_partition(&g, &Partition::singletons(34), &RefineConfig::default()).unwrap();
        let q = modularity::modularity(&g, &out.partition);
        assert!(q > 0.30, "q={q}");
        assert!(out.moves > 0);
        assert!(out.partition.num_communities() < 34);
    }

    #[test]
    fn refinement_of_a_local_optimum_is_a_no_op() {
        let g = generators::karate_club();
        let first =
            refine_partition(&g, &Partition::singletons(34), &RefineConfig::default()).unwrap();
        let second = refine_partition(&g, &first.partition, &RefineConfig::default()).unwrap();
        assert!(second.total_gain.abs() < 1e-6);
        assert_eq!(second.partition, first.partition);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = generators::karate_club();
        let p = Partition::singletons(10);
        assert!(refine_partition(&g, &p, &RefineConfig::default()).is_err());
        let p = Partition::singletons(34);
        let bad = RefineConfig { max_passes: 0, ..RefineConfig::default() };
        assert!(refine_partition(&g, &p, &bad).is_err());
    }

    #[test]
    fn pass_budget_is_respected() {
        let pg = generators::ring_of_cliques(20, 5).unwrap();
        let config = RefineConfig { max_passes: 1, ..RefineConfig::default() };
        let out = refine_partition(&pg.graph, &Partition::singletons(100), &config).unwrap();
        assert_eq!(out.passes, 1);
    }

    #[test]
    fn generalized_refinement_never_decreases_its_quality() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 60,
            num_communities: 3,
            p_in: 0.3,
            p_out: 0.03,
            seed: 11,
        })
        .unwrap();
        for quality in [
            QualityFunction::modularity(0.5),
            QualityFunction::modularity(2.0),
            QualityFunction::cpm(0.05),
        ] {
            let config = RefineConfig { quality, ..RefineConfig::default() };
            for start in [Partition::singletons(60), pg.ground_truth.clone()] {
                let before = modularity::quality(&pg.graph, &start, quality);
                let out = refine_partition(&pg.graph, &start, &config).unwrap();
                let after = modularity::quality(&pg.graph, &out.partition, quality);
                assert!(after >= before - 1e-9, "{quality:?}: before={before} after={after}");
                assert!(
                    (after - before - out.total_gain).abs() < 1e-6,
                    "{quality:?}: gain accounting off: delta={} total_gain={}",
                    after - before,
                    out.total_gain
                );
            }
        }
    }

    #[test]
    fn one_pass_best_move_matches_the_per_candidate_scan() {
        // The one-pass NeighborScan must reproduce the decisions of the
        // original per-candidate formulation (first-seen candidate order,
        // ModularityState::gain per candidate) bit for bit.
        let naive = |graph: &Graph, state: &ModularityState, node: usize| {
            let cur = state.community_of(node);
            let mut seen: Vec<usize> = Vec::new();
            let mut best: Option<(usize, f64)> = None;
            for (v, _) in graph.neighbors(node) {
                if v == node {
                    continue;
                }
                let c = state.community_of(v);
                if c == cur || seen.contains(&c) {
                    continue;
                }
                seen.push(c);
                let g = state.gain(graph, node, c);
                let tolerance = state.quality_function().move_tolerance(state.two_m());
                if g > best.map_or(0.0, |(_, bg)| bg) && g > tolerance {
                    best = Some((c, g));
                }
            }
            best
        };
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 70,
            num_communities: 4,
            p_in: 0.3,
            p_out: 0.05,
            seed: 23,
        })
        .unwrap();
        let mut scan = NeighborScan::new();
        for start in [pg.ground_truth.clone(), Partition::singletons(70)] {
            let state = ModularityState::new(&pg.graph, &start.renumbered());
            for node in 0..70 {
                let fast = scan.best_move(
                    node,
                    pg.graph.neighbors(node),
                    state.labels(),
                    pg.graph.degree(node),
                    state.two_m(),
                    state.sigma_tot(),
                );
                let slow = naive(&pg.graph, &state, node);
                match (fast, slow) {
                    (None, None) => {}
                    (Some((cf, gf)), Some((cs, gs))) => {
                        assert_eq!(cf, cs, "node {node}");
                        assert_eq!(gf.to_bits(), gs.to_bits(), "node {node}");
                    }
                    other => panic!("node {node}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn frontier_refinement_only_moves_reachable_nodes() {
        // Start from the ground truth with one node misplaced; a frontier
        // containing just that node must fix it without touching the rest.
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let mut start = pg.ground_truth.clone();
        start.assign(0, start.community_of(7));
        let out = refine_frontier(&pg.graph, &start, &[0], &RefineConfig::default()).unwrap();
        assert!(out.moves >= 1);
        let q_truth = modularity::modularity(&pg.graph, &pg.ground_truth);
        let q_out = modularity::modularity(&pg.graph, &out.partition);
        assert!((q_out - q_truth).abs() < 1e-12, "q_out={q_out} q_truth={q_truth}");
        // An empty frontier is a no-op.
        let noop = refine_frontier(&pg.graph, &start, &[], &RefineConfig::default()).unwrap();
        assert_eq!(noop.moves, 0);
        assert_eq!(noop.total_gain, 0.0);
        assert_eq!(noop.partition, start.renumbered());
    }

    #[test]
    fn frontier_refinement_never_decreases_modularity() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 150,
            num_communities: 5,
            p_in: 0.25,
            p_out: 0.02,
            seed: 3,
        })
        .unwrap();
        let frontier: Vec<usize> = (0..30).collect();
        for start in [Partition::singletons(150), pg.ground_truth.clone()] {
            let before = modularity::modularity(&pg.graph, &start);
            let out =
                refine_frontier(&pg.graph, &start, &frontier, &RefineConfig::default()).unwrap();
            let after = modularity::modularity(&pg.graph, &out.partition);
            assert!(after >= before - 1e-12, "before={before} after={after}");
            assert!((after - before - out.total_gain).abs() < 1e-9);
        }
    }

    #[test]
    fn full_frontier_matches_whole_graph_quality() {
        // With every node in the frontier, the localized refinement must reach
        // the same quality ballpark as refine_partition from the same start.
        let g = generators::karate_club();
        let frontier: Vec<usize> = (0..34).collect();
        let local =
            refine_frontier(&g, &Partition::singletons(34), &frontier, &RefineConfig::default())
                .unwrap();
        let q = modularity::modularity(&g, &local.partition);
        assert!(q > 0.30, "q={q}");
    }

    #[test]
    fn frontier_refinement_rejects_invalid_inputs() {
        let g = generators::karate_club();
        let p = Partition::singletons(34);
        assert!(refine_frontier(&g, &p, &[40], &RefineConfig::default()).is_err());
        assert!(
            refine_frontier(&g, &Partition::singletons(3), &[0], &RefineConfig::default()).is_err()
        );
        let bad = RefineConfig { max_passes: 0, ..RefineConfig::default() };
        assert!(refine_frontier(&g, &p, &[0], &bad).is_err());
    }

    #[test]
    fn pass_stop_is_invariant_under_weight_rescaling() {
        // Rescaling every edge weight by s (and CPM's γ, a weight per node
        // pair, with it) rescales every CPM gain by s. The pass-stop threshold
        // must follow, or tiny-weight graphs stop sweeping early on a
        // different partition. s is a power of two so that every gain scales
        // exactly: under an inexact factor such as 1e-9, gains that tie up to
        // rounding at one scale break the other way at the other, and the
        // sweeps part on tie order rather than on the stop rule.
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 300,
            num_communities: 6,
            p_in: 0.2,
            p_out: 0.02,
            seed: 5,
        })
        .unwrap();
        let refine = |s: f64| {
            let mut builder = qhdcd_graph::GraphBuilder::new(300);
            for (u, v, w) in pg.graph.edges() {
                builder.add_edge(u, v, w * s).unwrap();
            }
            let graph = builder.build();
            let config =
                RefineConfig { quality: QualityFunction::cpm(0.05 * s), ..RefineConfig::default() };
            let start = Partition::singletons(300);
            let all: Vec<usize> = (0..300).collect();
            let whole = refine_partition(&graph, &start, &config).unwrap();
            let local = refine_frontier(&graph, &start, &all, &config).unwrap();
            (whole.passes, local.passes, whole.partition, local.partition)
        };
        let (unit, tiny) = (refine(1.0), refine(2f64.powi(-30)));
        assert!(unit.0 > 5 && unit.1 > 5, "premise: the unit-weight sweeps run past 5 passes");
        assert_eq!((unit.0, unit.1), (tiny.0, tiny.1), "rescaling changed the pass counts");
        assert!(unit == tiny, "rescaling changed the refined partitions");
    }
}
