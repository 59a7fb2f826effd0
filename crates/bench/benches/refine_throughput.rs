//! Throughput gate for the incremental local-field engine.
//!
//! Compares every rewritten single-flip loop against a verbatim copy of the
//! seed implementation (naive per-candidate `QuboModel::flip_delta` scans,
//! kept here as the reference) on a 5 000-variable, 1 %-density random QUBO.
//! The two variants execute *identical trajectories* (same accept/reject
//! decisions, same RNG consumption), so the ratio is a pure engine-overhead
//! measurement. The PR acceptance gate is a ≥ 5× speedup for
//! first-improvement descent and simulated annealing.
//!
//! Besides the criterion groups, the bench prints a machine-readable summary
//! between `BENCH_JSON_BEGIN` / `BENCH_JSON_END` markers (captured into
//! `BENCH_refine.json` at the repo root).

use criterion::{criterion_group, criterion_main, measure, BenchmarkId, Criterion, Summary};
use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
use qhdcd_qubo::{LocalFieldState, QuboModel};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const NUM_VARIABLES: usize = 5_000;
const DENSITY: f64 = 0.01;
const SA_SWEEPS: usize = 20;
// The production solver's geometric schedule: 2.0 → 0.01 (× the coefficient
// scale, which is 1.0 for this instance) over the sweep budget. The cold tail
// is where annealing spends most of its time in real runs — and where almost
// every proposal is rejected, i.e. where delta-query cost dominates.
const SA_T_START: f64 = 2.0;
const SA_T_END: f64 = 0.01;

fn gate_instance() -> QuboModel {
    random_qubo(&RandomQuboConfig {
        num_variables: NUM_VARIABLES,
        density: DENSITY,
        coefficient_range: 1.0,
        seed: 2025,
    })
    .expect("valid generator configuration")
}

/// Seed (naive) first-improvement descent: O(deg) per candidate flip.
fn naive_first_improvement(
    model: &QuboModel,
    mut x: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    let mut energy = model.evaluate(&x).expect("length matches");
    for _ in 0..max_sweeps {
        let mut improved = false;
        for i in 0..x.len() {
            let delta = model.flip_delta(&x, i);
            if delta < -1e-15 {
                x[i] = !x[i];
                energy += delta;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (x, energy)
}

/// Engine-based first-improvement descent: O(1) per candidate flip.
fn engine_first_improvement(
    model: &QuboModel,
    x: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    let mut state = LocalFieldState::new(model, x);
    for _ in 0..max_sweeps {
        let mut improved = false;
        for i in 0..state.num_variables() {
            if state.flip_delta(i) < -1e-15 {
                state.apply_flip(i);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    state.into_solution()
}

/// Seed (naive) Metropolis annealing loop, single restart.
fn naive_annealing(model: &QuboModel, sweeps: usize, seed: u64) -> f64 {
    let n = model.num_variables();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut e = model.evaluate(&x).expect("length matches");
    let cooling = (SA_T_END / SA_T_START).powf(1.0 / sweeps.max(1) as f64);
    let mut temperature = SA_T_START;
    for _ in 0..sweeps {
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            let delta = model.flip_delta(&x, i);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                x[i] = !x[i];
                e += delta;
            }
        }
        temperature *= cooling;
    }
    e
}

/// Engine-based Metropolis annealing loop, identical trajectory to the naive one.
fn engine_annealing(model: &QuboModel, sweeps: usize, seed: u64) -> f64 {
    let n = model.num_variables();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut state = LocalFieldState::new(model, x);
    let cooling = (SA_T_END / SA_T_START).powf(1.0 / sweeps.max(1) as f64);
    let mut temperature = SA_T_START;
    for _ in 0..sweeps {
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            let delta = state.flip_delta(i);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                state.apply_flip(i);
            }
        }
        temperature *= cooling;
    }
    state.energy()
}

fn bench_refine_throughput(c: &mut Criterion) {
    let model = gate_instance();
    println!(
        "instance: {} variables, {} quadratic terms (density {:.4})",
        model.num_variables(),
        model.num_quadratic_terms(),
        model.density(),
    );

    // Sanity gate before timing anything: both variants walk identical paths.
    let (naive_x, naive_e) = naive_first_improvement(&model, vec![false; NUM_VARIABLES], 50);
    let (engine_x, engine_e) = engine_first_improvement(&model, vec![false; NUM_VARIABLES], 50);
    assert_eq!(naive_x, engine_x, "descent trajectories diverged");
    assert!((naive_e - engine_e).abs() < 1e-6, "descent energies diverged");
    let ne = naive_annealing(&model, 2, 7);
    let ee = engine_annealing(&model, 2, 7);
    assert!((ne - ee).abs() < 1e-6, "annealing trajectories diverged: {ne} vs {ee}");

    let mut group = c.benchmark_group("refine_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.bench_with_input(
        BenchmarkId::new("first_improvement_naive", NUM_VARIABLES),
        &model,
        |b, m| b.iter(|| naive_first_improvement(m, vec![false; NUM_VARIABLES], 50)),
    );
    group.bench_with_input(
        BenchmarkId::new("first_improvement_incremental", NUM_VARIABLES),
        &model,
        |b, m| b.iter(|| engine_first_improvement(m, vec![false; NUM_VARIABLES], 50)),
    );
    group.bench_with_input(
        BenchmarkId::new("simulated_annealing_naive", NUM_VARIABLES),
        &model,
        |b, m| b.iter(|| naive_annealing(m, SA_SWEEPS, 3)),
    );
    group.bench_with_input(
        BenchmarkId::new("simulated_annealing_incremental", NUM_VARIABLES),
        &model,
        |b, m| b.iter(|| engine_annealing(m, SA_SWEEPS, 3)),
    );
    group.finish();

    // Machine-readable speedup summary (the PR gate).
    let warm = Duration::from_millis(200);
    let window = Duration::from_secs(1);
    let time = |s: Summary| s.median.as_secs_f64() * 1e3;
    let fi_naive = time(measure(
        || naive_first_improvement(&model, vec![false; NUM_VARIABLES], 50),
        warm,
        window,
        10,
    ));
    let fi_engine = time(measure(
        || engine_first_improvement(&model, vec![false; NUM_VARIABLES], 50),
        warm,
        window,
        10,
    ));
    let sa_naive = time(measure(|| naive_annealing(&model, SA_SWEEPS, 3), warm, window, 10));
    let sa_engine = time(measure(|| engine_annealing(&model, SA_SWEEPS, 3), warm, window, 10));
    let fi_speedup = fi_naive / fi_engine;
    let sa_speedup = sa_naive / sa_engine;
    println!("BENCH_JSON_BEGIN");
    println!(
        concat!(
            "{{\n",
            "  \"bench\": \"refine_throughput\",\n",
            "  \"instance\": {{ \"num_variables\": {}, \"density\": {}, ",
            "\"quadratic_terms\": {}, \"seed\": 2025 }},\n",
            "  \"first_improvement\": {{ \"naive_ms\": {:.3}, ",
            "\"incremental_ms\": {:.3}, \"speedup\": {:.2} }},\n",
            "  \"simulated_annealing\": {{ \"naive_ms\": {:.3}, ",
            "\"incremental_ms\": {:.3}, \"speedup\": {:.2}, \"sweeps\": {} }},\n",
            "  \"gate\": {{ \"required_speedup\": 5.0, \"passed\": {} }}\n",
            "}}"
        ),
        NUM_VARIABLES,
        DENSITY,
        model.num_quadratic_terms(),
        fi_naive,
        fi_engine,
        fi_speedup,
        sa_naive,
        sa_engine,
        sa_speedup,
        SA_SWEEPS,
        fi_speedup >= 5.0 && sa_speedup >= 5.0,
    );
    println!("BENCH_JSON_END");
    assert!(
        fi_speedup >= 5.0,
        "first-improvement descent speedup {fi_speedup:.2}x below the 5x gate"
    );
    assert!(sa_speedup >= 5.0, "simulated_annealing speedup {sa_speedup:.2}x below the 5x gate");
}

criterion_group!(benches, bench_refine_throughput);
criterion_main!(benches);
