//! Classical QUBO baseline solvers.
//!
//! The paper benchmarks its QHD solver against GUROBI, using GUROBI purely as
//! "an exact solver that either proves optimality or stops at a time limit with
//! its best incumbent". This crate provides that role plus the usual heuristic
//! baselines, all implementing the shared [`QuboSolver`] trait:
//!
//! * [`BranchAndBound`] — exact best-first/depth-first branch-and-bound with a
//!   wall-clock time limit and an `Optimal` / `TimeLimit` status, the stand-in
//!   for GUROBI in every experiment (see DESIGN.md, "Substitutions").
//! * [`ExhaustiveSearch`] — brute force over all assignments, the ground truth
//!   for small instances in tests.
//! * [`PortfolioSolver`] — the one front-end for the heuristic families:
//!   restarts of descent from random starts ([`Strategy::Greedy`]),
//!   single-flip Metropolis annealing with geometric cooling
//!   ([`Strategy::Annealing`]) and single-flip tabu search with aspiration
//!   ([`Strategy::Tabu`]), interleaved round-robin. A one-member portfolio is
//!   the plain multi-start solver of that family.
//!
//! Every restart-style solver batches its restarts through the shared
//! [`runtime`] — the portfolio here and the QHD sampler in `qhdcd-qhd`: one
//! [`LocalFieldState`](qhdcd_qubo::LocalFieldState) per worker thread, a
//! private ChaCha stream per restart derived from the root seed, and a
//! reduction ordered by `(energy, restart index)`, so results are
//! bit-identical for every thread count. Their descents share the loops in
//! [`local_search`].
//!
//! # Example
//!
//! ```
//! use qhdcd_qubo::{QuboBuilder, QuboSolver, SolveStatus};
//! use qhdcd_solvers::BranchAndBound;
//!
//! # fn main() -> Result<(), qhdcd_qubo::QuboError> {
//! let mut b = QuboBuilder::new(3);
//! b.add_linear(0, -1.0)?;
//! b.add_quadratic(0, 1, 2.0)?;
//! let model = b.build();
//! let report = BranchAndBound::default().solve(&model)?;
//! assert_eq!(report.status, SolveStatus::Optimal);
//! assert_eq!(report.objective, -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod exhaustive;
pub mod portfolio;
pub mod runtime;
mod simulated_annealing;
mod tabu;

pub use branch_bound::BranchAndBound;
pub use exhaustive::ExhaustiveSearch;
pub use portfolio::{MoveSet, PortfolioConfig, PortfolioSolver, Strategy};

pub mod local_search {
    //! Shared descent loops used to seed and polish incumbents and to refine
    //! QHD samples, built on the engine's
    //! [`LocalFieldState::single_flip_sweep`] /
    //! [`LocalFieldState::coupled_pair_sweep`] primitives.

    use qhdcd_qubo::{Budget, LocalFieldState, QuboModel};

    /// What a descent loop reports back: sweeps performed and whether the
    /// budget cut the descent short (as opposed to converging or hitting the
    /// sweep cap — only a budget interruption makes the trajectory depend on
    /// wall clock).
    #[derive(Debug, Clone, Copy)]
    pub struct SweepOutcome {
        /// Number of sweeps performed.
        pub sweeps: u64,
        /// `true` if the budget expired while improvement was still possible.
        pub interrupted: bool,
    }

    /// First-improvement single-flip descent on an existing engine state. A
    /// candidate flip costs O(1) from the cached fields and a sweep costs O(n)
    /// plus O(deg) per accepted move. The budget is checked between sweeps.
    pub fn descend_state(
        state: &mut LocalFieldState<'_>,
        max_sweeps: usize,
        budget: &Budget,
    ) -> SweepOutcome {
        let mut sweeps = 0u64;
        for _ in 0..max_sweeps {
            if budget.is_exhausted() {
                return SweepOutcome { sweeps, interrupted: true };
            }
            let improved = state.single_flip_sweep();
            sweeps += 1;
            if !improved {
                break;
            }
        }
        SweepOutcome { sweeps, interrupted: false }
    }

    /// Descent alternating single-flip sweeps with coupled pair sweeps (one-set
    /// one-clear pairs applied as native reassignments). The budget is checked
    /// between sweeps.
    pub fn pair_aware_descend_state(
        state: &mut LocalFieldState<'_>,
        max_sweeps: usize,
        budget: &Budget,
    ) -> SweepOutcome {
        let mut sweeps = 0u64;
        for _ in 0..max_sweeps {
            if budget.is_exhausted() {
                return SweepOutcome { sweeps, interrupted: true };
            }
            let improved = state.single_flip_sweep() | state.coupled_pair_sweep();
            sweeps += 1;
            if !improved {
                break;
            }
        }
        SweepOutcome { sweeps, interrupted: false }
    }

    /// Owned-solution wrapper around [`descend_state`]: builds a fresh engine,
    /// descends to convergence (no budget), and returns the improved solution
    /// and its energy.
    pub fn descend(model: &QuboModel, x: Vec<bool>, max_sweeps: usize) -> (Vec<bool>, f64) {
        let mut state = LocalFieldState::new(model, x);
        descend_state(&mut state, max_sweeps, &Budget::unlimited());
        state.debug_validate();
        state.into_solution()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
        use qhdcd_qubo::QuboBuilder;

        #[test]
        fn descend_reaches_a_single_flip_local_minimum() {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 30,
                density: 0.3,
                coefficient_range: 1.0,
                seed: 5,
            })
            .unwrap();
            let (x, e) = descend(&model, vec![false; 30], 100);
            assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
            for i in 0..30 {
                assert!(model.flip_delta(&x, i) >= -1e-9);
            }
        }

        #[test]
        fn first_improvement_never_worsens_and_matches_energy() {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 60,
                density: 0.1,
                coefficient_range: 2.0,
                seed: 21,
            })
            .unwrap();
            let start = vec![true; 60];
            let start_energy = model.evaluate(&start).unwrap();
            let (x, e) = descend(&model, start, 50);
            assert!(e <= start_energy + 1e-9);
            assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
        }

        #[test]
        fn descent_on_an_already_optimal_solution_is_a_no_op() {
            let mut b = QuboBuilder::new(2);
            b.add_linear(0, -1.0).unwrap();
            b.add_linear(1, 1.0).unwrap();
            let model = b.build();
            let (x, e) = descend(&model, vec![true, false], 5);
            assert_eq!(x, vec![true, false]);
            assert_eq!(e, -1.0);
        }

        #[test]
        fn pass_limit_bounds_the_work() {
            // A chain where each flip enables the one before it in sweep
            // order; with one sweep only the last variable flips.
            let mut b = QuboBuilder::new(3);
            b.add_linear(0, 1.0).unwrap();
            b.add_linear(1, 1.0).unwrap();
            b.add_linear(2, -1.0).unwrap();
            b.add_quadratic(1, 2, -2.0).unwrap();
            b.add_quadratic(0, 1, -2.0).unwrap();
            let model = b.build();
            let (x, _) = descend(&model, vec![false; 3], 1);
            assert_eq!(x, vec![false, false, true]);
            let (x, _) = descend(&model, vec![false; 3], 10);
            assert_eq!(x, vec![true, true, true]);
        }

        #[test]
        fn descents_stop_at_an_exhausted_budget() {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 30,
                density: 0.3,
                coefficient_range: 1.0,
                seed: 5,
            })
            .unwrap();
            let cancel = qhdcd_qubo::CancelToken::new();
            cancel.cancel();
            let expired = Budget::unlimited().cancelled_by(&cancel);
            let mut state = LocalFieldState::new(&model, vec![false; 30]);
            let single = descend_state(&mut state, 100, &expired);
            let pair = pair_aware_descend_state(&mut state, 100, &expired);
            for outcome in [single, pair] {
                assert!(outcome.interrupted);
                assert_eq!(outcome.sweeps, 0);
            }
            assert_eq!(state.solution(), &[false; 30][..]);
        }

        #[test]
        #[should_panic(expected = "must match the model")]
        fn mismatched_length_panics() {
            let model = QuboBuilder::new(3).build();
            descend(&model, vec![false; 2], 1);
        }

        fn pair_aware_descend(model: &QuboModel, x: Vec<bool>, sweeps: usize) -> (Vec<bool>, f64) {
            let mut state = LocalFieldState::new(model, x);
            pair_aware_descend_state(&mut state, sweeps, &Budget::unlimited());
            state.into_solution()
        }

        #[test]
        fn pair_aware_descent_escapes_one_hot_traps() {
            // A one-hot group {0,1} (a "node" with two community slots) and a
            // reward for putting the node in slot 1 (coupling with the
            // already-set bit 2). From the valid assignment "slot 0", every
            // single flip breaks the one-hot constraint, so plain 1-opt is
            // stuck; the pair move (clear slot 0, set slot 1) is exactly the
            // reassignment the pair-aware search finds.
            let mut b = QuboBuilder::new(3);
            b.add_penalty_exactly_one(&[0, 1], 10.0).unwrap();
            b.add_quadratic(1, 2, -2.0).unwrap();
            let model = b.build();
            let start = vec![true, false, true]; // valid, but misses the −2 reward
            let (stuck, stuck_e) = descend(&model, start.clone(), 50);
            assert_eq!(stuck, start, "plain 1-opt must be stuck");
            assert_eq!(stuck_e, 0.0);
            let (escaped, escaped_e) = pair_aware_descend(&model, start, 50);
            assert_eq!(escaped, vec![false, true, true]);
            assert!((escaped_e - (-2.0)).abs() < 1e-12);
        }

        #[test]
        fn pair_aware_descent_never_worsens_random_instances() {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 40,
                density: 0.2,
                coefficient_range: 1.0,
                seed: 30,
            })
            .unwrap();
            let start = vec![false; 40];
            let start_energy = model.evaluate(&start).unwrap();
            let (x, e) = pair_aware_descend(&model, start, 50);
            assert!(e <= start_energy + 1e-9);
            assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
            // The result is at least as good as plain 1-opt from the same start.
            let (_, e1) = descend(&model, vec![false; 40], 50);
            assert!(e <= e1 + 1e-9);
        }
    }
}
