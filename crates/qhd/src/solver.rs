//! The high-level QHD QUBO solver.
//!
//! [`QhdSolver`] drives many independent QHD samples (different random initial
//! wave packets and measurement seeds), each followed by classical descent
//! refinement, and returns the best solution found. Samples run on the shared
//! restart runtime ([`qhdcd_solvers::runtime`]), the same one the classical
//! portfolio uses: contiguous batches of samples per worker thread (the CPU
//! stand-in for the multi-GPU batching described in the paper, see DESIGN.md,
//! "Substitutions"), one refinement engine per worker, panic isolation, and a
//! reduction by `(energy, sample index)`. The solver implements
//! [`QuboSolver`], so it is a drop-in replacement for the classical baselines
//! everywhere in the workspace.

use crate::grid::Grid;
use crate::meanfield::{self, MeanFieldConfig};
use crate::schedule::Schedule;
use crate::statevector::{self, StateVectorConfig, MAX_EXACT_VARIABLES};
use qhdcd_qubo::{
    Budget, LocalFieldState, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus,
};
use qhdcd_solvers::local_search;
use qhdcd_solvers::runtime::{self, RestartRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Which simulation backend the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Choose automatically: exact state-vector simulation for instances with
    /// at most [`MAX_EXACT_VARIABLES`] variables, mean-field otherwise.
    #[default]
    Auto,
    /// Always use the exact hypercube state-vector simulation (small instances only).
    Exact,
    /// Always use the scalable mean-field simulation.
    MeanField,
}

/// Full configuration of a [`QhdSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct QhdConfig {
    /// Simulation backend selection policy.
    pub backend: Backend,
    /// Number of independent QHD samples (trajectories).
    pub samples: usize,
    /// Worker threads used to run samples in parallel. `1` disables threading.
    pub threads: usize,
    /// Total evolution time of the Schrödinger dynamics.
    pub total_time: f64,
    /// Number of integration time steps per trajectory.
    pub steps: usize,
    /// Grid resolution of the mean-field backend.
    pub grid_resolution: usize,
    /// Measurement shots per trajectory.
    pub shots: usize,
    /// Maximum sweeps of the classical greedy refinement (0 disables refinement).
    pub refine_sweeps: usize,
    /// Base RNG seed; sample `k` uses `seed + k`.
    pub seed: u64,
}

impl Default for QhdConfig {
    fn default() -> Self {
        QhdConfig {
            backend: Backend::Auto,
            samples: 8,
            threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8),
            total_time: 10.0,
            steps: 150,
            grid_resolution: 32,
            shots: 16,
            refine_sweeps: 50,
            seed: 0,
        }
    }
}

/// Builder for [`QhdConfig`] / [`QhdSolver`].
///
/// # Example
///
/// ```
/// use qhdcd_qhd::{Backend, QhdSolver};
///
/// let solver = QhdSolver::builder()
///     .backend(Backend::MeanField)
///     .samples(4)
///     .steps(80)
///     .seed(3)
///     .build();
/// assert_eq!(solver.config().samples, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QhdConfigBuilder {
    config: QhdConfig,
}

impl QhdConfigBuilder {
    /// Sets the simulation backend policy.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the number of independent QHD samples.
    pub fn samples(mut self, samples: usize) -> Self {
        self.config.samples = samples.max(1);
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Sets the total Schrödinger evolution time.
    pub fn total_time(mut self, total_time: f64) -> Self {
        self.config.total_time = total_time;
        self
    }

    /// Sets the number of integration steps per trajectory.
    pub fn steps(mut self, steps: usize) -> Self {
        self.config.steps = steps.max(1);
        self
    }

    /// Sets the mean-field grid resolution.
    pub fn grid_resolution(mut self, resolution: usize) -> Self {
        self.config.grid_resolution = resolution;
        self
    }

    /// Sets the number of measurement shots per trajectory.
    pub fn shots(mut self, shots: usize) -> Self {
        self.config.shots = shots;
        self
    }

    /// Sets the classical refinement sweep budget (0 disables refinement).
    pub fn refine_sweeps(mut self, sweeps: usize) -> Self {
        self.config.refine_sweeps = sweeps;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder and produces the solver.
    pub fn build(self) -> QhdSolver {
        QhdSolver { config: self.config }
    }
}

/// Quantum Hamiltonian Descent QUBO solver with parallel multi-sample execution.
///
/// See the [crate-level documentation](crate) for the algorithm description and
/// an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct QhdSolver {
    config: QhdConfig,
}

impl QhdSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver from an explicit configuration.
    pub fn with_config(config: QhdConfig) -> Self {
        QhdSolver { config }
    }

    /// Starts a configuration builder.
    pub fn builder() -> QhdConfigBuilder {
        QhdConfigBuilder::default()
    }

    /// The solver's configuration.
    pub fn config(&self) -> &QhdConfig {
        &self.config
    }

    /// Resolves the backend policy for a concrete model.
    pub fn backend_for(&self, model: &QuboModel) -> Backend {
        match self.config.backend {
            Backend::Auto => {
                if model.num_variables() <= MAX_EXACT_VARIABLES.min(12) {
                    Backend::Exact
                } else {
                    Backend::MeanField
                }
            }
            other => other,
        }
    }

    /// Runs a single QHD sample with the given per-sample seed, refining its
    /// candidates on the worker's engine `state`.
    ///
    /// Mirrors QHDOPT's hybrid structure: the quantum(-inspired) evolution
    /// produces a measurement distribution, several candidate roundings are
    /// drawn from it, and each is projected to a nearby local minimum by the
    /// classical refinement step; the best refined candidate wins.
    /// Returns the refined sample plus whether the trajectory was cut short by
    /// the budget (the exact backend's short dense evolutions are not
    /// interruptible mid-trajectory; they observe the budget between samples).
    /// Refinement itself never observes the budget, so a sample that completed
    /// its evolution does not depend on wall-clock time.
    fn run_sample(
        &self,
        model: &QuboModel,
        backend: Backend,
        seed: u64,
        state: &mut LocalFieldState<'_>,
        budget: &Budget,
    ) -> RestartRun {
        use rand::Rng;
        const VALIDATED: &str = "QHD configuration is validated before the samples run";
        let sweeps = self.config.refine_sweeps;
        // The pair-aware search costs O(nnz · average degree) per sweep, which is
        // the right tool for small and medium instances but too expensive for the
        // largest dense QUBOs; those fall back to the linear-time 1-opt descent.
        let pair_aware = model.num_quadratic_terms() <= 200_000;
        let mut refine = |mut solution: Vec<bool>| -> (Vec<bool>, f64) {
            if sweeps == 0 {
                let energy = model.evaluate(&solution).expect(VALIDATED);
                return (solution, energy);
            }
            state.set_solution(&solution).expect(VALIDATED);
            let unlimited = Budget::unlimited();
            if pair_aware {
                local_search::pair_aware_descend_state(state, sweeps, &unlimited);
            } else {
                local_search::descend_state(state, sweeps, &unlimited);
            }
            state.debug_validate();
            solution.copy_from_slice(state.solution());
            (solution, state.energy())
        };
        let (solution, energy, interrupted) = match backend {
            Backend::Exact => {
                let out = statevector::evolve(model, &self.exact_config(seed)).expect(VALIDATED);
                let (solution, energy) = refine(out.best_solution);
                (solution, energy, false)
            }
            Backend::MeanField | Backend::Auto => {
                let out = meanfield::evolve_bounded(model, &self.mean_field_config(seed), budget)
                    .expect(VALIDATED);
                let interrupted = out.steps_completed < self.config.steps;
                let (mut best, mut best_energy) = refine(out.best_solution);
                // Refine additional roundings drawn from the final measurement
                // distribution (capped so the classical work stays bounded).
                let extra = self.config.shots.min(8);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                for _ in 0..extra {
                    let candidate: Vec<bool> =
                        out.probabilities.iter().map(|&p| rng.gen::<f64>() < p).collect();
                    let (candidate, energy) = refine(candidate);
                    if energy < best_energy {
                        best = candidate;
                        best_energy = energy;
                    }
                }
                (best, best_energy, interrupted)
            }
        };
        RestartRun { solution, energy, iterations: 1, interrupted }
    }

    /// Exact-backend configuration of the sample seeded with `seed`.
    fn exact_config(&self, seed: u64) -> StateVectorConfig {
        StateVectorConfig {
            schedule: Schedule::default_qhd(self.config.total_time),
            steps: self.config.steps.max(50),
            shots: self.config.shots.max(1),
            seed,
        }
    }

    /// Mean-field configuration of the sample seeded with `seed`.
    fn mean_field_config(&self, seed: u64) -> MeanFieldConfig {
        MeanFieldConfig {
            schedule: Schedule::default_qhd(self.config.total_time),
            steps: self.config.steps,
            grid_resolution: self.config.grid_resolution,
            shots: self.config.shots,
            seed,
            randomize_initial_state: true,
            // Samples are already distributed over worker threads; keep each
            // trajectory's variable sweep serial rather than oversubscribing
            // with nested parallelism.
            threads: 1,
        }
    }

    /// Shared implementation behind [`QuboSolver::solve`] and
    /// [`QuboSolver::solve_bounded`].
    ///
    /// Sample `k` is restart `k` of the restart runtime, seeded with
    /// `seed + k` (the runtime's per-restart stream is unused). The runtime
    /// reduces completed samples by `(energy, sample index)`, so the result is
    /// a pure function of the set of completed samples, independent of worker
    /// count and completion order. The budget is observed between samples and
    /// inside each mean-field trajectory; a budget-interrupted sample only
    /// stands in when no sample completed, and a restart cap truncates the
    /// sample schedule itself. A panicking sample is isolated;
    /// [`QuboError::RestartPanicked`] is returned only when every sample that
    /// ran panicked.
    ///
    /// A sample's errors depend only on the configuration and the model, so
    /// they are checked once here, before any sample runs.
    fn solve_impl(&self, model: &QuboModel, budget: &Budget) -> Result<SolveReport, QuboError> {
        let start = Instant::now();
        let backend = self.backend_for(model);
        match backend {
            Backend::Exact => statevector::validate(model, &self.exact_config(0))?,
            Backend::MeanField | Backend::Auto => {
                meanfield::validate(model, &self.mean_field_config(0))?;
                Grid::new(self.config.grid_resolution)?;
            }
        }
        let kernel = |k: usize,
                      _rng: &mut ChaCha8Rng,
                      state: &mut LocalFieldState<'_>,
                      budget: &Budget| {
            self.run_sample(model, backend, self.config.seed.wrapping_add(k as u64), state, budget)
        };
        let run = runtime::run_restarts(
            model,
            self.config.samples,
            self.config.threads.max(1),
            self.config.seed,
            budget,
            &kernel,
        )?;
        let completion = run.completion();
        Ok(SolveReport {
            solution: run.solution,
            objective: run.energy,
            status: SolveStatus::Heuristic,
            elapsed: start.elapsed(),
            iterations: run.restarts_completed.max(1),
            completion,
        })
    }
}

impl QuboSolver for QhdSolver {
    fn name(&self) -> &str {
        "qhd"
    }

    fn solve(&self, model: &QuboModel) -> Result<SolveReport, QuboError> {
        self.solve_impl(model, &Budget::unlimited())
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        // QHD samples start from their own randomized wave packets; a hint
        // cannot seed the quantum(-inspired) evolution.
        let _ = hint;
        self.solve_impl(model, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    fn brute_force_minimum(model: &QuboModel) -> f64 {
        let n = model.num_variables();
        (0..1usize << n)
            .map(|bits| {
                let x: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                model.evaluate(&x).unwrap()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn builder_sets_every_knob() {
        let solver = QhdSolver::builder()
            .backend(Backend::Exact)
            .samples(3)
            .threads(2)
            .total_time(5.0)
            .steps(60)
            .grid_resolution(16)
            .shots(9)
            .refine_sweeps(7)
            .seed(11)
            .build();
        let c = solver.config();
        assert_eq!(c.backend, Backend::Exact);
        assert_eq!(c.samples, 3);
        assert_eq!(c.threads, 2);
        assert_eq!(c.total_time, 5.0);
        assert_eq!(c.steps, 60);
        assert_eq!(c.grid_resolution, 16);
        assert_eq!(c.shots, 9);
        assert_eq!(c.refine_sweeps, 7);
        assert_eq!(c.seed, 11);
        assert_eq!(solver.name(), "qhd");
    }

    #[test]
    fn auto_backend_switches_on_size() {
        let solver = QhdSolver::new();
        let small = QuboBuilder::new(6).build();
        let large = QuboBuilder::new(100).build();
        assert_eq!(solver.backend_for(&small), Backend::Exact);
        assert_eq!(solver.backend_for(&large), Backend::MeanField);
        let forced = QhdSolver::builder().backend(Backend::MeanField).build();
        assert_eq!(forced.backend_for(&small), Backend::MeanField);
    }

    #[test]
    fn finds_the_optimum_of_small_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 8,
                density: 0.5,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let solver = QhdSolver::builder().samples(4).steps(120).seed(seed).build();
            let report = solver.solve(&model).unwrap();
            let optimum = brute_force_minimum(&model);
            assert!(
                (report.objective - optimum).abs() < 1e-9,
                "seed={seed}: qhd={} optimum={optimum}",
                report.objective
            );
            assert_eq!(report.status, SolveStatus::Heuristic);
            assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_serial_execution_agree_on_the_result_quality() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 77,
        })
        .unwrap();
        let serial = QhdSolver::builder().samples(4).threads(1).seed(5).steps(60).build();
        let parallel = QhdSolver::builder().samples(4).threads(4).seed(5).steps(60).build();
        let rs = serial.solve(&model).unwrap();
        let rp = parallel.solve(&model).unwrap();
        // Same seeds and same per-sample work ⇒ identical best energies.
        assert_eq!(rs.objective, rp.objective);
    }

    #[test]
    fn refinement_only_improves_solutions() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 40,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 13,
        })
        .unwrap();
        let raw = QhdSolver::builder().samples(3).refine_sweeps(0).seed(2).steps(60).build();
        let refined = QhdSolver::builder().samples(3).refine_sweeps(50).seed(2).steps(60).build();
        let r_raw = raw.solve(&model).unwrap();
        let r_ref = refined.solve(&model).unwrap();
        assert!(r_ref.objective <= r_raw.objective + 1e-9);
    }

    #[test]
    fn exact_backend_rejects_oversized_models_cleanly() {
        let model = QuboBuilder::new(30).build();
        let solver = QhdSolver::builder().backend(Backend::Exact).samples(1).build();
        assert!(solver.solve(&model).is_err());
    }

    #[test]
    fn degenerate_configurations_are_rejected_before_any_sample_runs() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 20,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 1,
        })
        .unwrap();
        let mean_field = QhdConfig { backend: Backend::MeanField, ..QhdConfig::default() };
        for config in [
            QhdConfig { steps: 0, ..mean_field.clone() },
            QhdConfig { grid_resolution: 3, ..mean_field.clone() },
        ] {
            let err = QhdSolver::with_config(config).solve(&model).unwrap_err();
            assert!(matches!(err, QuboError::InvalidConfig { .. }), "{err}");
        }
        let empty = QuboBuilder::new(0).build();
        for backend in [Backend::Auto, Backend::Exact, Backend::MeanField] {
            let solver = QhdSolver::builder().backend(backend).build();
            assert!(matches!(solver.solve(&empty), Err(QuboError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn an_expired_budget_yields_a_best_effort_truncated_report() {
        use qhdcd_qubo::CancelToken;
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 9,
        })
        .unwrap();
        let solver = QhdSolver::builder().samples(4).threads(2).steps(60).seed(1).build();
        assert!(solver.solve(&model).unwrap().completion.is_full());
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = Budget::unlimited().cancelled_by(&cancel);
        let report = solver.solve_bounded(&model, None, &budget).unwrap();
        // Sample 0 still runs (with its evolution cut short), so the report
        // carries a valid incumbent marked truncated.
        assert!(!report.completion.is_full());
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
    }

    #[test]
    fn sample_k_is_the_single_sample_run_seeded_with_seed_plus_k() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 4,
        })
        .unwrap();
        let single = |seed: u64| {
            QhdSolver::builder().samples(1).steps(40).seed(seed).build().solve(&model).unwrap()
        };
        // Best of samples 10, 11, 12 by (energy, index).
        let best =
            (10..13u64).map(single).reduce(|a, b| if b.objective < a.objective { b } else { a });
        let best = best.unwrap();
        let run = QhdSolver::builder().samples(3).threads(2).steps(40).seed(10).build();
        let report = run.solve(&model).unwrap();
        assert_eq!(report.solution, best.solution);
        assert_eq!(report.objective.to_bits(), best.objective.to_bits());
        assert_eq!(report.iterations, 3);
    }

    #[test]
    fn report_iterations_count_samples() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 10,
            density: 0.4,
            coefficient_range: 1.0,
            seed: 0,
        })
        .unwrap();
        let solver = QhdSolver::builder().samples(5).steps(40).build();
        let report = solver.solve(&model).unwrap();
        assert_eq!(report.iterations, 5);
    }
}
