//! Compute kernels of the batched mean-field engine.
//!
//! Every per-step kernel of [`crate::grid`] is one of the five loops below,
//! over `n` wavefunctions held as split re/im planes in grid-point-major
//! order (row `k` holds point `k` of every variable, contiguously). Each
//! kernel is column-independent: the recurrences (the potential-phase
//! rotation and the Thomas sweep) couple *grid rows*, never variables, so the
//! inner loops run unit-stride across variables and every reduction
//! accumulates in ascending grid order per variable. The single-wavefunction
//! kernels of [`crate::grid`] are these same functions at `n = 1`.
//!
//! Callers check the shapes: the planes hold `res` rows of `n` columns and
//! every per-variable buffer holds `n` entries.

use crate::complex::cmul_parts;
use crate::grid::ThomasFactors;

/// Potential-phase rotation recurrence: row `k` is multiplied by the running
/// per-variable power `u_i^k` (row 0 sits at `x = 0` where the phase is
/// exactly 1). See [`crate::grid::Grid::apply_prepared_potential_phase_batch`]
/// for the maths.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_prepared_phase(
    re: &mut [f64],
    im: &mut [f64],
    u_re: &[f64],
    u_im: &[f64],
    cur_re: &mut [f64],
    cur_im: &mut [f64],
    n: usize,
    res: usize,
) {
    // Start the running power at u so row 1 is the first one rotated.
    cur_re.copy_from_slice(u_re);
    cur_im.copy_from_slice(u_im);
    for k in 1..res {
        let row_re = &mut re[k * n..(k + 1) * n];
        let row_im = &mut im[k * n..(k + 1) * n];
        for i in 0..n {
            let (zr, zi) = (row_re[i], row_im[i]);
            let (cr, ci) = (cur_re[i], cur_im[i]);
            let (pr, pi) = cmul_parts(zr, zi, cr, ci);
            row_re[i] = pr;
            row_im[i] = pi;
            let (nr, ni) = cmul_parts(cr, ci, u_re[i], u_im[i]);
            cur_re[i] = nr;
            cur_im[i] = ni;
        }
    }
}

/// Fused trailing half-phase + expectation reduction: rotates every row like
/// [`apply_prepared_phase`] and accumulates `Σ|ψ|²·x` / `Σ|ψ|²` into
/// `num`/`den` in the same pass — one read traversal over both planes instead
/// of two per step. Row 0 is only accumulated (its phase is exactly 1); every
/// later row is rotated first and its probability read from the exact
/// post-rotation values, so the accumulators match a separate
/// [`expectation_rows`] pass bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_prepared_phase_expectation(
    re: &mut [f64],
    im: &mut [f64],
    u_re: &[f64],
    u_im: &[f64],
    cur_re: &mut [f64],
    cur_im: &mut [f64],
    points: &[f64],
    num: &mut [f64],
    den: &mut [f64],
    n: usize,
) {
    let res = points.len();
    let x0 = points[0];
    for i in 0..n {
        num[i] = 0.0;
        den[i] = 0.0;
        let p = re[i] * re[i] + im[i] * im[i];
        num[i] += p * x0;
        den[i] += p;
    }
    cur_re.copy_from_slice(u_re);
    cur_im.copy_from_slice(u_im);
    for k in 1..res {
        let x = points[k];
        let row_re = &mut re[k * n..(k + 1) * n];
        let row_im = &mut im[k * n..(k + 1) * n];
        for i in 0..n {
            let (zr, zi) = (row_re[i], row_im[i]);
            let (cr, ci) = (cur_re[i], cur_im[i]);
            let (pr, pi) = cmul_parts(zr, zi, cr, ci);
            row_re[i] = pr;
            row_im[i] = pi;
            let p = pr * pr + pi * pi;
            num[i] += p * x;
            den[i] += p;
            let (nr, ni) = cmul_parts(cr, ci, u_re[i], u_im[i]);
            cur_re[i] = nr;
            cur_im[i] = ni;
        }
    }
}

/// Crank–Nicolson tridiagonal solve with the rhs fused into the Thomas
/// forward sweep; see [`crate::grid::Grid::kinetic_step_batch`].
///
/// The coefficients have fixed structure: the diagonals are `1 ± i·d` and
/// the off-diagonals `±i·a` with *real* `d`, `a` (see
/// [`ThomasFactors::factor`]). Multiplying by a purely imaginary scalar is a
/// swap-and-negate, so the specialised forms below do the same complex
/// arithmetic with ~40 % fewer multiplications than the general-coefficient
/// products:
///
/// ```text
/// b_diag·z          = (z.re + d·z.im,  z.im − d·z.re)
/// b_off·s = −i·a·s  = (a·s.im,        −a·s.re)
/// a_off·w =  i·a·w  = (−a·w.im,        a·w.re)
/// ```
///
/// At row `k` the original ψ rows `k−1`, `k`, `k+1` are still intact (ψ is
/// only overwritten during the back substitution), so
/// `rhs_k = b_diag·ψ_k + b_off·(ψ_{k−1} + ψ_{k+1})` is computed on the fly —
/// no rhs buffer.
pub(crate) fn thomas_sweep(
    re: &mut [f64],
    im: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    factors: &ThomasFactors,
    n: usize,
) {
    let res = factors.resolution();
    let (d, a) = (factors.d, factors.a);
    {
        // Row 0 (no ψ_{−1}).
        let (inv_r, inv_i) = (factors.inv_re[0], factors.inv_im[0]);
        for i in 0..n {
            let (cr, ci) = (re[i], im[i]);
            let (xr, xi) = (re[n + i], im[n + i]);
            let rr = cr + d * ci + a * xi;
            let ri = ci - d * cr - a * xr;
            let (pr, pi) = cmul_parts(rr, ri, inv_r, inv_i);
            d_re[i] = pr;
            d_im[i] = pi;
        }
    }
    for k in 1..res {
        let (inv_r, inv_i) = (factors.inv_re[k], factors.inv_im[k]);
        let interior = k + 1 < res;
        let prev_re = &re[(k - 1) * n..k * n];
        let prev_im = &im[(k - 1) * n..k * n];
        let cur_re = &re[k * n..(k + 1) * n];
        let cur_im = &im[k * n..(k + 1) * n];
        let (dh_re, dt_re) = d_re.split_at_mut(k * n);
        let (dh_im, dt_im) = d_im.split_at_mut(k * n);
        let dp_re = &dh_re[(k - 1) * n..];
        let dp_im = &dh_im[(k - 1) * n..];
        let dc_re = &mut dt_re[..n];
        let dc_im = &mut dt_im[..n];
        if interior {
            let next_re = &re[(k + 1) * n..(k + 2) * n];
            let next_im = &im[(k + 1) * n..(k + 2) * n];
            for i in 0..n {
                let sr = prev_re[i] + next_re[i];
                let si = prev_im[i] + next_im[i];
                // t = rhs − a_off·d′_{k−1} with rhs = b_diag·ψ_k + b_off·s.
                let tr = cur_re[i] + d * cur_im[i] + a * si + a * dp_im[i];
                let ti = cur_im[i] - d * cur_re[i] - a * sr - a * dp_re[i];
                let (pr, pi) = cmul_parts(tr, ti, inv_r, inv_i);
                dc_re[i] = pr;
                dc_im[i] = pi;
            }
        } else {
            // Last row (no ψ_{res}).
            for i in 0..n {
                let tr = cur_re[i] + d * cur_im[i] + a * prev_im[i] + a * dp_im[i];
                let ti = cur_im[i] - d * cur_re[i] - a * prev_re[i] - a * dp_re[i];
                let (pr, pi) = cmul_parts(tr, ti, inv_r, inv_i);
                dc_re[i] = pr;
                dc_im[i] = pi;
            }
        }
    }

    // Back substitution: ψ_{res−1} = d′_{res−1}, ψ_k = d′_k − c′_k ψ_{k+1}.
    let last = (res - 1) * n;
    re[last..last + n].copy_from_slice(&d_re[last..last + n]);
    im[last..last + n].copy_from_slice(&d_im[last..last + n]);
    for k in (0..res - 1).rev() {
        let (c_r, c_i) = (factors.c_re[k], factors.c_im[k]);
        let dr = &d_re[k * n..(k + 1) * n];
        let di = &d_im[k * n..(k + 1) * n];
        let (head_re, tail_re) = re.split_at_mut((k + 1) * n);
        let (head_im, tail_im) = im.split_at_mut((k + 1) * n);
        let psi_re = &mut head_re[k * n..];
        let psi_im = &mut head_im[k * n..];
        let next_re = &tail_re[..n];
        let next_im = &tail_im[..n];
        for i in 0..n {
            let (qr, qi) = cmul_parts(c_r, c_i, next_re[i], next_im[i]);
            psi_re[i] = dr[i] - qr;
            psi_im[i] = di[i] - qi;
        }
    }
}

/// `⟨x⟩` reduction accumulators, ascending grid order per variable
/// (finalisation — the `num/den` divide and the zero-state default — stays
/// with the caller).
pub(crate) fn expectation_rows(
    re: &[f64],
    im: &[f64],
    points: &[f64],
    num: &mut [f64],
    den: &mut [f64],
    n: usize,
) {
    num.fill(0.0);
    den.fill(0.0);
    for (k, &x) in points.iter().enumerate() {
        let row_re = &re[k * n..(k + 1) * n];
        let row_im = &im[k * n..(k + 1) * n];
        for i in 0..n {
            let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
            num[i] += p * x;
            den[i] += p;
        }
    }
}

/// Upper-half probability mass accumulators, ascending grid order per
/// variable (finalisation stays with the caller).
pub(crate) fn probability_rows(
    re: &[f64],
    im: &[f64],
    points: &[f64],
    upper: &mut [f64],
    total: &mut [f64],
    n: usize,
) {
    upper.fill(0.0);
    total.fill(0.0);
    for (k, &x) in points.iter().enumerate() {
        let row_re = &re[k * n..(k + 1) * n];
        let row_im = &im[k * n..(k + 1) * n];
        if x > 0.5 {
            for i in 0..n {
                let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
                total[i] += p;
                upper[i] += p;
            }
        } else {
            for i in 0..n {
                total[i] += row_re[i] * row_re[i] + row_im[i] * row_im[i];
            }
        }
    }
}
