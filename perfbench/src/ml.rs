//! The multilevel workloads: `multilevel::detect` with a pinned-thread QHD
//! base solver on a synthetic graph matched to a Table II row.
//!
//! The untraced run times whole `detect` calls. The traced run rebuilds the
//! pipeline from the library's public calls ([`traced_detect`]), times each
//! layer from outside, and checks that the rebuild reproduces the untraced
//! call bit for bit.

use crate::report::{
    another_round, instance_seed, median, peak_rss_mb, secs, Report, REFINE_LEVEL_SLOTS,
};
use qhdcd_core::coarsen::coarsen_hierarchy;
use qhdcd_core::formulation::build_qubo;
use qhdcd_core::multilevel::{self, MultilevelConfig, MultilevelOutcome};
use qhdcd_core::refine::refine_partition;
use qhdcd_core::CdError;
use qhdcd_graph::{modularity, Graph, Partition};
use qhdcd_qhd::QhdSolver;
use qhdcd_qubo::{Budget, QuboSolver, SolveStatus};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker threads of the QHD base solver, fixed rather than taken from the host.
pub const QHD_THREADS: usize = 2;

/// One multilevel workload: the matched graph and the detector settings.
#[derive(Debug, Clone, Copy)]
pub struct MlSpec {
    pub nodes: usize,
    pub edges: usize,
    pub communities: usize,
    pub qhd_samples: usize,
    pub qhd_steps: usize,
    /// Graphs per run, each from its own seed derived from the workload seed;
    /// averaging over them keeps one unlucky graph from setting the figures.
    pub instances: usize,
}

impl MlSpec {
    /// A Table II row under the `CommunityDetector::qhd()` solver defaults
    /// (8 samples, 120 steps, θ = 200) with k = 8.
    pub const fn table2(nodes: usize, edges: usize, instances: usize) -> Self {
        MlSpec { nodes, edges, communities: 8, qhd_samples: 8, qhd_steps: 120, instances }
    }

    fn solver(&self, seed: u64) -> QhdSolver {
        QhdSolver::builder()
            .samples(self.qhd_samples)
            .steps(self.qhd_steps)
            .threads(QHD_THREADS)
            .seed(seed)
            .build()
    }

    fn config(&self) -> MultilevelConfig {
        MultilevelConfig::with_communities(self.communities)
    }
}

/// Per-layer measurements of one [`traced_detect`] call.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    pub partition: Partition,
    pub modularity: f64,
    pub levels: usize,
    pub coarsest_nodes: usize,
    pub solver_status: SolveStatus,
    pub coarsen: Duration,
    pub formulate: Duration,
    pub variables: usize,
    pub couplings: usize,
    pub solve: Duration,
    pub iterations: u64,
    pub decode: Duration,
    /// Projection plus refinement per graph depth (0 is the input graph).
    pub refine_levels: Vec<Duration>,
    pub refine_moves: usize,
    pub refine_passes: usize,
    pub final_refine: Duration,
    pub final_moves: usize,
    pub quality: Duration,
    pub total: Duration,
}

/// `multilevel::detect` rebuilt from public calls, with each layer timed:
/// `coarsen_hierarchy`, `build_qubo`, `solve_bounded`, `CdQubo::decode`,
/// `Partition::project` + `refine_partition` per level, the final
/// `refine_partition`, and `modularity::quality`.
///
/// # Errors
///
/// Propagates the library's errors.
///
/// # Panics
///
/// If `config` carries a warm-start hint, which the rebuild does not push
/// through the hierarchy.
pub fn traced_detect<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    config: &MultilevelConfig,
) -> Result<LayerTrace, CdError> {
    assert!(config.hint.is_none(), "the traced rebuild covers unhinted detection only");
    config.validate()?;
    let start = Instant::now();

    let t = Instant::now();
    let hierarchy = coarsen_hierarchy(graph, &config.coarsen)?;
    let coarsen = t.elapsed();
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    let coarsest_nodes = coarsest.num_nodes();

    let t = Instant::now();
    let mut formulation = config.formulation.clone();
    formulation.num_communities = config.num_communities.min(coarsest_nodes.max(1));
    let qubo = build_qubo(coarsest, &formulation)?;
    let formulate = t.elapsed();

    let t = Instant::now();
    let report = solver.solve_bounded(qubo.model(), None, &Budget::unlimited())?;
    let solve = t.elapsed();

    let t = Instant::now();
    let mut partition = qubo.decode(coarsest, &report.solution)?;
    let decode = t.elapsed();

    let depth = hierarchy.levels.len();
    let mut refine_levels = vec![Duration::ZERO; depth + 1];
    let t = Instant::now();
    let out = refine_partition(coarsest, &partition, &config.refine)?;
    refine_levels[depth] = t.elapsed();
    let (mut refine_moves, mut refine_passes) = (out.moves, out.passes);
    partition = out.partition;
    for level_index in (0..depth).rev() {
        let t = Instant::now();
        let projected = partition.project(&hierarchy.levels[level_index].coarse_of);
        let finer = if level_index == 0 { graph } else { &hierarchy.levels[level_index - 1].graph };
        let out = refine_partition(finer, &projected, &config.refine)?;
        refine_levels[level_index] = t.elapsed();
        partition = out.partition;
        refine_moves += out.moves;
        refine_passes += out.passes;
    }

    let (mut final_refine, mut final_moves) = (Duration::ZERO, 0);
    if config.final_refine {
        let t = Instant::now();
        let out = refine_partition(graph, &partition, &config.refine)?;
        final_refine = t.elapsed();
        partition = out.partition;
        final_moves = out.moves;
    }

    let t = Instant::now();
    let q = modularity::quality(graph, &partition, config.formulation.quality);
    let quality = t.elapsed();
    Ok(LayerTrace {
        partition,
        modularity: q,
        levels: hierarchy.num_levels(),
        coarsest_nodes,
        solver_status: report.status,
        coarsen,
        formulate,
        variables: qubo.model().num_variables(),
        couplings: qubo.model().num_quadratic_terms(),
        solve,
        iterations: report.iterations,
        decode,
        refine_levels,
        refine_moves,
        refine_passes,
        final_refine,
        final_moves,
        quality,
        total: start.elapsed(),
    })
}

/// Output checks of one `detect` call: the partition covers every node, the
/// reported Q is `modularity::quality` recomputed bit for bit, and the call is
/// bit-identical to `reference` (the run's first call) when given.
pub fn check_outcome(
    graph: &Graph,
    config: &MultilevelConfig,
    out: &MultilevelOutcome,
    reference: Option<&MultilevelOutcome>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if out.partition.num_nodes() != graph.num_nodes() {
        problems.push(format!(
            "partition covers {} of {} nodes",
            out.partition.num_nodes(),
            graph.num_nodes()
        ));
    } else {
        let q = modularity::quality(graph, &out.partition, config.formulation.quality);
        if q.to_bits() != out.modularity.to_bits() {
            problems.push(format!("reported Q {} != recomputed Q {q}", out.modularity));
        }
    }
    if let Some(first) = reference {
        if first.partition != out.partition
            || first.modularity.to_bits() != out.modularity.to_bits()
        {
            problems.push(format!(
                "repeated detect differs: Q {} vs first call {}",
                out.modularity, first.modularity
            ));
        }
    }
    problems
}

/// The first layer at which a traced rebuild diverges from the untraced call,
/// or `None` when partition and Q bits match.
pub fn divergence(trace: &LayerTrace, out: &MultilevelOutcome) -> Option<String> {
    if trace.levels != out.levels || trace.coarsest_nodes != out.coarsest_nodes {
        return Some(format!(
            "coarsen: {} levels / {} coarsest nodes, detect built {} / {}",
            trace.levels, trace.coarsest_nodes, out.levels, out.coarsest_nodes
        ));
    }
    if trace.solver_status != out.solver_status {
        return Some(format!(
            "solve: status {:?}, detect reported {:?}",
            trace.solver_status, out.solver_status
        ));
    }
    if trace.partition != out.partition {
        return Some("decode/refine: the rebuilt partition differs from detect's".into());
    }
    if trace.modularity.to_bits() != out.modularity.to_bits() {
        return Some(format!("quality: Q {} vs detect's {}", trace.modularity, out.modularity));
    }
    None
}

/// Generations of each instance graph; `setup_s` is the median over all of
/// them, and the repeats must produce the same graph.
const GENERATIONS: usize = 2;

/// The run's graphs, one per instance seed, and the time each generation took.
fn setup(spec: &MlSpec, seed: u64) -> Result<(Vec<Instance>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(spec.instances * GENERATIONS);
    let mut instances = Vec::with_capacity(spec.instances);
    for index in 0..spec.instances {
        let seed = instance_seed(seed, index);
        let mut graph: Option<Graph> = None;
        for _ in 0..GENERATIONS {
            let t = Instant::now();
            let pg = qhdcd_bench::matched_graph(spec.nodes, spec.edges, seed)
                .map_err(|e| format!("graph generation failed: {e}"))?;
            times.push(secs(t.elapsed()));
            if graph.as_ref().is_some_and(|g| *g != pg.graph) {
                return Err(format!("graph generation is not deterministic in seed {seed}"));
            }
            graph = Some(pg.graph);
        }
        let graph = graph.expect("GENERATIONS > 0");
        instances.push(Instance { graph, solver: spec.solver(seed) });
    }
    Ok((instances, times))
}

struct Instance {
    graph: Graph,
    solver: QhdSolver,
}

/// Untraced run: rounds of one `detect` call per instance, until `seconds`
/// would be exceeded by another round (at least two rounds, so repeated calls
/// can be compared).
pub fn run(spec: &MlSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let (instances, setup_times) = setup(spec, seed)?;
    let config = spec.config();
    let mut report = Report::default();
    let mut times = vec![Vec::new(); instances.len()];
    let mut first: Vec<Option<MultilevelOutcome>> = vec![None; instances.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while another_round(start, rounds, 2, seconds) {
        for (index, instance) in instances.iter().enumerate() {
            let t = Instant::now();
            let result = multilevel::detect(black_box(&instance.graph), &instance.solver, &config);
            times[index].push(secs(t.elapsed()));
            match result {
                Ok(out) => {
                    let problems =
                        check_outcome(&instance.graph, &config, &out, first[index].as_ref());
                    report.record(problems);
                    first[index].get_or_insert(out);
                }
                Err(e) => report.record(vec![format!("detect failed: {e}")]),
            }
        }
        rounds += 1;
    }
    let mut quality = 0.0;
    for out in &first {
        quality += out.as_ref().ok_or("an instance had no successful detect call")?.modularity;
    }
    // Instances differ in cost, so each is summarised over its own calls and
    // the summaries are averaged: every instance weighs the same.
    let per_instance = |summary: fn(&[f64]) -> f64| {
        times.iter().map(|t| summary(t)).sum::<f64>() / times.len() as f64
    };
    report.set("setup_s", median(&setup_times));
    report.set("request_p50_ms", per_instance(median) * 1e3);
    report.set("request_tail_ms", per_instance(|t| t.iter().copied().fold(0.0, f64::max)) * 1e3);
    report.set("modularity", quality / instances.len() as f64);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.set("ok_ratio", report.ok_ratio());
    Ok(report)
}

/// Traced run: rounds in which every instance gets one untraced `detect` call
/// followed by one traced rebuild, until `seconds` would be exceeded by another
/// round (at least one). A rebuild that diverges from the untraced call fails
/// naming its layer. Layer values are means over the rebuilds, so every
/// instance weighs the same; the overhead is the mean rebuild time minus the
/// mean untraced time.
pub fn run_traced(spec: &MlSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let (instances, _) = setup(spec, seed)?;
    let config = spec.config();
    let mut report = Report::default();
    let mut detects = Vec::new();
    let mut traces = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while report.failed == 0 && another_round(start, rounds, 1, seconds) {
        for instance in &instances {
            let graph = black_box(&instance.graph);
            let t = Instant::now();
            let reference = multilevel::detect(graph, &instance.solver, &config)
                .map_err(|e| format!("untraced detect failed: {e}"))?;
            detects.push(secs(t.elapsed()));
            report.record(check_outcome(graph, &config, &reference, None));
            let trace = traced_detect(graph, &instance.solver, &config)
                .map_err(|e| format!("traced rebuild failed: {e}"))?;
            let diverged = divergence(&trace, &reference);
            report.record(
                diverged.map(|d| format!("traced rebuild diverged at {d}")).into_iter().collect(),
            );
            traces.push(trace);
        }
        rounds += 1;
    }
    let mean =
        |f: &dyn Fn(&LayerTrace) -> f64| traces.iter().map(f).sum::<f64>() / traces.len() as f64;
    report.set("coarsen.time_s", mean(&|t| secs(t.coarsen)));
    report.set("coarsen.levels", mean(&|t| t.levels as f64));
    report.set("coarsen.coarsest_nodes", mean(&|t| t.coarsest_nodes as f64));
    report.set("formulate.time_s", mean(&|t| secs(t.formulate)));
    report.set("formulate.variables", mean(&|t| t.variables as f64));
    report.set("formulate.couplings", mean(&|t| t.couplings as f64));
    report.set("solve.time_s", mean(&|t| secs(t.solve)));
    report.set("solve.iterations", mean(&|t| t.iterations as f64));
    report.set("decode.time_s", mean(&|t| secs(t.decode)));
    report.set("refine.time_s", mean(&|t| secs(t.refine_levels.iter().sum())));
    for slot in 0..REFINE_LEVEL_SLOTS {
        // The last slot also holds every deeper level.
        let last_slot = slot + 1 == REFINE_LEVEL_SLOTS;
        let levels = |t: &LayerTrace| -> f64 {
            let at = |d: &usize| *d == slot || (last_slot && *d > slot);
            t.refine_levels.iter().enumerate().filter(|(d, _)| at(d)).map(|(_, &d)| secs(d)).sum()
        };
        report.set(&format!("refine.level{slot}.time_s"), mean(&levels));
    }
    report.set("refine.moves", mean(&|t| t.refine_moves as f64));
    report.set("refine.passes", mean(&|t| t.refine_passes as f64));
    report.set("refine.final.time_s", mean(&|t| secs(t.final_refine)));
    report.set("refine.final.moves", mean(&|t| t.final_moves as f64));
    report.set("quality.time_s", mean(&|t| secs(t.quality)));
    let untraced = detects.iter().sum::<f64>() / detects.len() as f64;
    report.set("trace.overhead_s", mean(&|t| secs(t.total)) - untraced);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: MlSpec = MlSpec {
        nodes: 600,
        edges: 3_000,
        communities: 8,
        qhd_samples: 2,
        qhd_steps: 20,
        instances: 2,
    };

    #[test]
    fn traced_rebuild_matches_detect_bit_for_bit() {
        let graph = qhdcd_bench::matched_graph(TINY.nodes, TINY.edges, 3).unwrap().graph;
        let (solver, config) = (TINY.solver(3), TINY.config());
        let out = multilevel::detect(&graph, &solver, &config).unwrap();
        let trace = traced_detect(&graph, &solver, &config).unwrap();
        assert!(trace.levels >= 1, "the tiny graph must still be coarsened");
        assert_eq!(divergence(&trace, &out), None);
        assert_eq!(trace.refine_levels.len(), trace.levels + 1);
    }

    #[test]
    fn divergence_names_the_layer() {
        let graph = qhdcd_bench::matched_graph(TINY.nodes, TINY.edges, 4).unwrap().graph;
        let (solver, config) = (TINY.solver(4), TINY.config());
        let out = multilevel::detect(&graph, &solver, &config).unwrap();
        let trace = traced_detect(&graph, &solver, &config).unwrap();
        let mut bad = trace.clone();
        bad.levels += 1;
        assert!(divergence(&bad, &out).unwrap().starts_with("coarsen"));
        let mut bad = trace.clone();
        bad.partition = Partition::from_labels(vec![0; graph.num_nodes()]).unwrap();
        assert!(divergence(&bad, &out).unwrap().starts_with("decode/refine"));
        let mut bad = trace;
        bad.modularity += 1e-12;
        assert!(divergence(&bad, &out).unwrap().starts_with("quality"));
    }

    #[test]
    fn output_checks_catch_bad_outcomes() {
        let graph = qhdcd_bench::matched_graph(TINY.nodes, TINY.edges, 5).unwrap().graph;
        let (solver, config) = (TINY.solver(5), TINY.config());
        let out = multilevel::detect(&graph, &solver, &config).unwrap();
        assert!(check_outcome(&graph, &config, &out, Some(&out)).is_empty());
        let mut off = out.clone();
        off.modularity = f64::from_bits(off.modularity.to_bits() ^ 1);
        assert_eq!(check_outcome(&graph, &config, &off, None).len(), 1);
        assert_eq!(check_outcome(&graph, &config, &out, Some(&off)).len(), 1);
        let mut short = out;
        short.partition = Partition::from_labels(vec![0; 10]).unwrap();
        assert_eq!(check_outcome(&graph, &config, &short, None).len(), 1);
    }

    #[test]
    fn runs_report_every_metric_at_a_tiny_size() {
        let report = run(&TINY, 1, 0.0).unwrap();
        assert_eq!((report.attempted, report.failed), (4, 0), "two rounds of two instances");
        report.result_line(&crate::end_to_end_table(), None).unwrap();
        let traced = run_traced(&TINY, 1, 0.0).unwrap();
        assert_eq!((traced.attempted, traced.failed), (4, 0), "one detect and one rebuild each");
        assert!(traced.metrics["coarsen.levels"] >= 1.0);
        traced.result_line(&crate::report::per_layer(), Some(0.0)).unwrap();
    }
}
