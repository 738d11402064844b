//! Eigendecomposition of complex Hermitian matrices.
//!
//! Smoothed MUSIC (paper §5.2) needs the eigensystem of the w′×w′
//! correlation matrix `R = E[h·h^H]`: eigenvalues to split signal from
//! noise subspace, eigenvectors to project steering vectors onto the noise
//! subspace. The matrices are Hermitian positive semi-definite and small
//! (w′ = 50 at the paper's parameters). The solver is the dense
//! symmetric route of Golub & Van Loan §8.3 (LAPACK's `zhetrd` +
//! `zsteqr`), in three allocation-free steps over an [`EigWorkspace`]:
//!
//! 1. **Householder tridiagonalization.** `n − 2` Hermitian reflectors
//!    `H_k = I − τ_k·w_k·w_k^H` reduce `A` to a Hermitian tridiagonal
//!    `T_c = Q^H·A·Q`, `Q = H_0⋯H_{n−3}`. A diagonal unitary
//!    `D = diag(δ_k)` of unit phases turns the complex off-diagonal
//!    real and non-negative: `T = D^H·T_c·D`.
//! 2. **Implicit QL with Wilkinson shifts** on the real symmetric `T`,
//!    accumulating its plane rotations into `Z` (`T = Z·Λ·Z^T`), stored
//!    transposed so each rotation touches two contiguous rows. An
//!    off-diagonal deflates when it is at most `ε·‖A‖_F`. The test is
//!    relative to the whole matrix on purpose: the local test
//!    `ε·(|d_m| + |d_{m+1}|)` keeps iterating on the rounding-level
//!    entries of a rank-deficient matrix's null block and doubles the
//!    cost on exactly the low-rank inputs MUSIC feeds it.
//! 3. **Back-transformation** `U = Q·D·Z` through the stored reflectors.
//!
//! The cost is `O(n³)` with a small constant and, unlike cyclic Jacobi,
//! no data-dependent sweep count. Eigenvalues are accurate to
//! `O(ε·‖A‖)` and the eigenvectors are orthonormal to `O(ε)`; the
//! separation of an eigenvector from the rest of the spectrum bounds
//! its accuracy as for any backward-stable method.
//!
//! **Bitwise identical at every SIMD level.** The reflector sums and
//! back-transformation run through the bitwise-pinned
//! [`simd::caxpy`]; everything else is plain scalar code. Results do
//! not depend on the dispatch level (never route this through the
//! reassociating [`simd::cdot`]).
//!
//! **Stateless.** Every call is a cold solve. A basis warm-started from
//! the previous call would converge faster on the overlapping windows
//! of one MUSIC stream, but a serving shard shares one `MusicEngine`
//! (and its workspace) across the sessions it interleaves, so a warm
//! start would make one session's output depend on its neighbours'.

use crate::{simd, CMatrix, Complex64};

/// The result of [`hermitian_eig`]: `A = U·diag(λ)·U^H`.
///
/// Eigenvalues are returned in **descending** order (MUSIC convention:
/// signal eigenvalues first), with `vectors.col(i)` the unit-norm
/// eigenvector for `values[i]`.
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Real eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMatrix,
}

impl HermitianEig {
    /// Reconstructs `U·diag(λ)·U^H`; used by tests to validate round-trips.
    pub fn reconstruct(&self) -> CMatrix {
        let n = self.values.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &lambda) in self.values.iter().enumerate() {
            let v = self.vectors.col(i);
            m.add_outer(&v, lambda);
        }
        m
    }

    /// Number of eigenvalues exceeding `threshold` — MUSIC's signal-subspace
    /// dimension for a given noise floor estimate.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.values.iter().filter(|&&v| v > threshold).count()
    }
}

/// Implicit-QL iterations allowed per eigenvalue before the solver
/// declares non-convergence (LAPACK `zsteqr` uses the same budget).
/// Wilkinson-shifted QL converges cubically; real inputs need one to
/// three iterations per eigenvalue.
const MAX_QL_ITERATIONS_PER_VALUE: usize = 30;

/// Reusable scratch for [`hermitian_eig_in`]: the reduction's working
/// matrix and reflectors, the tridiagonal, the QL rotations, and the
/// sorted output buffers.
///
/// The streaming MUSIC tracker eigendecomposes one `w′ × w′` correlation
/// matrix per analysis window at the channel rate. A workspace is
/// created once per tracker and reused for every window with **zero
/// per-call heap allocation**. No state carries from one call to the
/// next: results are bitwise identical to [`hermitian_eig`].
#[derive(Clone, Debug)]
pub struct EigWorkspace {
    n: usize,
    /// Working copy of the matrix; after the reduction, row `k` holds
    /// the Householder vector `w_k` in its columns `k+1..n`.
    m: CMatrix,
    /// Reflector scales `τ_k` (0 marks an identity reflector).
    tau: Vec<f64>,
    /// Unit phases `δ_k` of the diagonal similarity `D`.
    phase: Vec<Complex64>,
    /// Tridiagonal diagonal; unsorted eigenvalues after QL.
    d: Vec<f64>,
    /// Tridiagonal off-diagonal (`e[k]` couples `k` and `k+1`).
    e: Vec<f64>,
    /// `Z^T`, row-major: row `k` is the eigenvector of `T` that QL
    /// leaves at diagonal position `k`.
    zt: Vec<f64>,
    /// Reflector product scratch.
    p: Vec<Complex64>,
    /// Descending-eigenvalue permutation.
    order: Vec<usize>,
    /// Sorted eigenvalues (the public output).
    values: Vec<f64>,
    /// Sorted eigenvectors (the public output).
    vectors: CMatrix,
}

impl EigWorkspace {
    /// Creates a workspace for `n × n` problems.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            m: CMatrix::zeros(n, n),
            tau: vec![0.0; n],
            phase: vec![Complex64::ONE; n],
            d: vec![0.0; n],
            e: vec![0.0; n],
            zt: vec![0.0; n * n],
            p: vec![Complex64::ZERO; n],
            order: (0..n).collect(),
            values: vec![0.0; n],
            vectors: CMatrix::zeros(n, n),
        }
    }

    /// The problem dimension this workspace serves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Eigenvalues of the most recent [`hermitian_eig_in`] call, descending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvector matrix of the most recent call (column `i` pairs with
    /// `values()[i]`).
    pub fn vectors(&self) -> &CMatrix {
        &self.vectors
    }

    /// Number of eigenvalues exceeding `threshold` (MUSIC's signal-subspace
    /// dimension test, mirroring [`HermitianEig::count_above`]).
    pub fn count_above(&self, threshold: f64) -> usize {
        self.values.iter().filter(|&&v| v > threshold).count()
    }

    /// Copies the current result out as an owned [`HermitianEig`].
    pub fn to_eig(&self) -> HermitianEig {
        HermitianEig {
            values: self.values.clone(),
            vectors: self.vectors.clone(),
        }
    }
}

/// Computes the eigendecomposition of a Hermitian matrix (Householder
/// tridiagonalization, implicit QL, back-transformation — see the
/// [module docs](self)), reusing `ws` for all scratch and output storage
/// (zero heap allocation per call). Results land in
/// [`EigWorkspace::values`] / [`EigWorkspace::vectors`].
///
/// The input is **assumed Hermitian**: the solver reads its upper
/// triangle and the real part of its diagonal, and only numerical
/// (rounding-level) deviation is tolerated. Use
/// [`CMatrix::hermitian_deviation`] upstream if the provenance of the
/// matrix is in doubt.
///
/// # Panics
/// Panics if `a` is not square, if its dimension differs from the
/// workspace's, if it deviates from Hermitian symmetry by more than
/// `1e-8 · ‖A‖_F`, or if QL fails to converge (not observed on finite
/// input).
pub fn hermitian_eig_in(a: &CMatrix, ws: &mut EigWorkspace) {
    assert!(a.is_square(), "eigendecomposition requires a square matrix");
    let n = a.rows();
    assert_eq!(n, ws.n, "workspace dimension mismatch");
    let norm = a.frobenius_norm();
    let deviation = a.hermitian_deviation();
    assert!(
        deviation <= 1e-8 * norm,
        "matrix is not Hermitian (deviation {deviation} vs norm {norm})"
    );
    if n == 0 {
        return;
    }

    tridiagonalize(a, ws);
    let (iterations, rotations) =
        implicit_ql(&mut ws.d, &mut ws.e, &mut ws.zt, f64::EPSILON * norm);
    crate::probe::count_eig(iterations, rotations);

    for (i, o) in ws.order.iter_mut().enumerate() {
        *o = i;
    }
    let d = &ws.d;
    ws.order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    for (v, &o) in ws.values.iter_mut().zip(&ws.order) {
        *v = ws.d[o];
    }
    back_transform(ws);
}

/// Computes the eigendecomposition of a Hermitian matrix. Convenience
/// wrapper over [`hermitian_eig_in`] that allocates a fresh workspace;
/// hot paths should hold an [`EigWorkspace`] instead.
///
/// # Panics
/// As [`hermitian_eig_in`].
pub fn hermitian_eig(a: &CMatrix) -> HermitianEig {
    let mut ws = EigWorkspace::new(a.rows());
    hermitian_eig_in(a, &mut ws);
    HermitianEig {
        values: ws.values,
        vectors: ws.vectors,
    }
}

/// Step 1: reduces `a` to the real tridiagonal `(ws.d, ws.e)`, leaving
/// the reflectors in `ws.m`/`ws.tau` and the phases in `ws.phase`.
///
/// The working copy is made Hermitian in bits (upper triangle mirrored),
/// and every rank-2 update keeps it so: entry `(j,i)` is computed as the
/// exact conjugate of entry `(i,j)`. Column `k` below the diagonal can
/// therefore be read as the conjugate of the contiguous row `k`, and
/// `A₂₂·w` as a sum of conjugated rows.
fn tridiagonalize(a: &CMatrix, ws: &mut EigWorkspace) {
    let n = ws.n;
    for r in 0..n {
        ws.m[(r, r)] = Complex64::from_re(a[(r, r)].re);
        for c in (r + 1)..n {
            let z = a[(r, c)];
            ws.m[(r, c)] = z;
            ws.m[(c, r)] = z.conj();
        }
    }

    let mut delta = Complex64::ONE;
    for k in 0..n - 1 {
        let (head, tail) = ws.m.as_mut_slice().split_at_mut((k + 1) * n);
        let row_k = &mut head[k * n..];
        ws.d[k] = row_k[k].re;
        ws.phase[k] = delta;

        // x = A[k+1.., k] = conj(A[k, k+1..]); w is built in place.
        let w = &mut row_k[k + 1..];
        for z in w.iter_mut() {
            *z = z.conj();
        }
        let x0 = w[0];
        let abs_x0 = x0.abs();
        let unit_x0 = if abs_x0 > 0.0 {
            x0.scale(1.0 / abs_x0)
        } else {
            Complex64::ONE
        };
        let sigma: f64 = w[1..].iter().map(|z| z.norm_sqr()).sum();
        if sigma == 0.0 {
            // Column already reduced: T_c[k+1][k] = x0.
            ws.tau[k] = 0.0;
            ws.e[k] = abs_x0;
            delta *= unit_x0;
            continue;
        }
        // H·x = β·e₁ with β = −(x0/|x0|)·‖x‖, w = x − β·e₁.
        let norm_x = (abs_x0 * abs_x0 + sigma).sqrt();
        w[0] = x0 + unit_x0.scale(norm_x);
        let tau = 1.0 / (norm_x * (norm_x + abs_x0));
        ws.tau[k] = tau;
        ws.e[k] = norm_x;
        delta *= -unit_x0;

        // p = τ·A₂₂·w, accumulated conjugated: conj(p) = τ·Σ_j conj(w_j)·A₂₂[j, :].
        let p = &mut ws.p[..n - k - 1];
        p.fill(Complex64::ZERO);
        for (j, &wj) in w.iter().enumerate() {
            simd::caxpy(p, &tail[j * n + k + 1..(j + 1) * n], wj.conj());
        }
        // q = p − (τ/2)·(w^H·p)·w, held in p.
        let mut whp = 0.0;
        for (pj, wj) in p.iter_mut().zip(w.iter()) {
            *pj = pj.conj().scale(tau);
            whp += (wj.conj() * *pj).re;
        }
        let half = 0.5 * tau * whp;
        for (pj, wj) in p.iter_mut().zip(w.iter()) {
            *pj -= wj.scale(half);
        }
        // A₂₂ ← A₂₂ − w·q^H − q·w^H.
        for (i, (&wi, &qi)) in w.iter().zip(p.iter()).enumerate() {
            let row = &mut tail[i * n + k + 1..(i + 1) * n];
            for ((z, &wj), &qj) in row.iter_mut().zip(w.iter()).zip(p.iter()) {
                *z -= wi * qj.conj() + qi * wj.conj();
            }
        }
    }
    ws.d[n - 1] = ws.m[(n - 1, n - 1)].re;
    ws.e[n - 1] = 0.0;
    ws.phase[n - 1] = delta;
}

/// Step 2: implicit Wilkinson-shift QL on the symmetric tridiagonal
/// `(d, e)` (`e[k]` couples `k` and `k+1`), deflating an off-diagonal
/// once `|e[k]| ≤ tol`. On return `d` holds the eigenvalues (unsorted)
/// and row `k` of `zt` the eigenvector for `d[k]`. Returns the QL
/// iterations and plane rotations performed.
fn implicit_ql(d: &mut [f64], e: &mut [f64], zt: &mut [f64], tol: f64) -> (u64, u64) {
    let n = d.len();
    zt.fill(0.0);
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }
    let (mut iterations, mut rotations) = (0u64, 0u64);
    for l in 0..n {
        let mut iterations_l = 0;
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > tol {
                m += 1;
            }
            if m == l {
                break;
            }
            iterations_l += 1;
            assert!(
                iterations_l <= MAX_QL_ITERATIONS_PER_VALUE,
                "implicit QL did not converge"
            );
            iterations += 1;

            // Wilkinson shift from the leading 2×2 block of the unreduced
            // segment l..=m, folded into the first rotation's g.
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = g.hypot(1.0);
            let mut g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // The chase underflowed: deflate here and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                let g2 = d[i + 1] - p;
                let r = (d[i] - g2) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g2 + p;
                g = c * r - b;
                let (lo, hi) = zt.split_at_mut((i + 1) * n);
                for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
                rotations += 1;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    (iterations, rotations)
}

/// Step 3: writes the sorted eigenvectors `U = Q·D·Z` into
/// `ws.vectors`: column `c` starts as `D·z_{order[c]}`, then the
/// reflectors apply last to first, each as two row-contiguous caxpy
/// passes (`r = w^H·Y`, then `Y −= τ·w·r`).
fn back_transform(ws: &mut EigWorkspace) {
    let n = ws.n;
    let y = ws.vectors.as_mut_slice();
    for (i, row) in y.chunks_exact_mut(n).enumerate() {
        let delta = ws.phase[i];
        for (z, &o) in row.iter_mut().zip(&ws.order) {
            *z = delta.scale(ws.zt[o * n + i]);
        }
    }
    for k in (0..n - 1).rev() {
        let tau = ws.tau[k];
        if tau == 0.0 {
            continue;
        }
        let w = &ws.m.row(k)[k + 1..];
        let below = &mut y[(k + 1) * n..];
        let r = &mut ws.p[..];
        r.fill(Complex64::ZERO);
        for (&wi, row) in w.iter().zip(below.chunks_exact(n)) {
            simd::caxpy(r, row, wi.conj());
        }
        for (&wi, row) in w.iter().zip(below.chunks_exact_mut(n)) {
            simd::caxpy(row, r, -wi.scale(tau));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_hermitian(n: usize, seed: u64) -> CMatrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut a = CMatrix::zeros(n, n);
        for r in 0..n {
            a[(r, r)] = Complex64::from_re(rng.gen_range(-2.0, 2.0));
            for c in (r + 1)..n {
                let z = Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
                a[(r, c)] = z;
                a[(c, r)] = z.conj();
            }
        }
        a
    }

    /// Largest `‖A·u_i − λ_i·u_i‖` over all eigenpairs, relative to
    /// `‖A‖_F`, and `‖U^H·U − I‖_F`.
    fn residuals(a: &CMatrix, e: &HermitianEig) -> (f64, f64) {
        let n = a.rows();
        let mut worst: f64 = 0.0;
        for i in 0..n {
            let v = e.vectors.col(i);
            let av = a.mul_vec(&v);
            let r: f64 = av
                .iter()
                .zip(&v)
                .map(|(&x, &y)| (x - y.scale(e.values[i])).norm_sqr())
                .sum();
            worst = worst.max(r.sqrt());
        }
        let gram = &e.vectors.hermitian() * &e.vectors;
        let orth = (&gram - &CMatrix::identity(n)).frobenius_norm();
        (worst / a.frobenius_norm().max(f64::MIN_POSITIVE), orth)
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation_bitwise() {
        // One workspace across many different matrices must behave exactly
        // like allocating fresh buffers per call — no state may leak from
        // one decomposition into the next.
        let mut ws = EigWorkspace::new(8);
        for seed in 0..6 {
            let a = random_hermitian(8, seed);
            hermitian_eig_in(&a, &mut ws);
            let fresh = hermitian_eig(&a);
            assert_eq!(
                ws.values(),
                fresh.values.as_slice(),
                "values differ at seed {seed}"
            );
            assert_eq!(
                *ws.vectors(),
                fresh.vectors,
                "vectors differ at seed {seed}"
            );
        }
    }

    #[test]
    fn workspace_accessors_are_consistent() {
        let a = random_hermitian(5, 42);
        let mut ws = EigWorkspace::new(5);
        hermitian_eig_in(&a, &mut ws);
        assert_eq!(ws.n(), 5);
        let owned = ws.to_eig();
        assert_eq!(owned.values, ws.values());
        let thresh = ws.values()[2];
        assert_eq!(ws.count_above(thresh), owned.count_above(thresh));
    }

    #[test]
    #[should_panic(expected = "workspace dimension mismatch")]
    fn workspace_dimension_checked() {
        let a = random_hermitian(4, 1);
        let mut ws = EigWorkspace::new(5);
        hermitian_eig_in(&a, &mut ws);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let mut d = CMatrix::zeros(3, 3);
        d[(0, 0)] = Complex64::from_re(3.0);
        d[(1, 1)] = Complex64::from_re(-1.0);
        d[(2, 2)] = Complex64::from_re(0.5);
        let e = hermitian_eig(&d);
        assert_eq!(e.values, vec![3.0, 0.5, -1.0]);
    }

    #[test]
    fn one_by_one_and_empty_matrices() {
        let mut a = CMatrix::zeros(1, 1);
        a[(0, 0)] = Complex64::from_re(-2.5);
        let e = hermitian_eig(&a);
        assert_eq!(e.values, vec![-2.5]);
        assert_eq!(e.vectors[(0, 0)], Complex64::ONE);
        let e = hermitian_eig(&CMatrix::zeros(0, 0));
        assert!(e.values.is_empty());
    }

    #[test]
    fn zero_matrix_has_zero_spectrum_and_identity_vectors() {
        let e = hermitian_eig(&CMatrix::zeros(4, 4));
        assert_eq!(e.values, vec![0.0; 4]);
        assert_eq!(e.vectors, CMatrix::identity(4));
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex64::from_re(2.0);
        a[(0, 1)] = Complex64::I;
        a[(1, 0)] = -Complex64::I;
        a[(1, 1)] = Complex64::from_re(2.0);
        let e = hermitian_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_by_three_known_eigenvalues() {
        // Tridiagonal Toeplitz [1 on the off-diagonals, 0 on the
        // diagonal] has eigenvalues 2·cos(kπ/4): √2, 0, −√2. A complex
        // unit phase on the off-diagonal pair leaves them unchanged.
        let mut a = CMatrix::zeros(3, 3);
        let ph = Complex64::cis(0.7);
        a[(0, 1)] = ph;
        a[(1, 0)] = ph.conj();
        a[(1, 2)] = Complex64::ONE;
        a[(2, 1)] = Complex64::ONE;
        let e = hermitian_eig(&a);
        let s2 = 2f64.sqrt();
        for (got, want) in e.values.iter().zip([s2, 0.0, -s2]) {
            assert!((got - want).abs() < 1e-14, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenpairs_satisfy_definition_and_are_orthonormal() {
        for n in [2usize, 3, 4, 7] {
            let a = random_hermitian(n, 40 + n as u64);
            let e = hermitian_eig(&a);
            let (res, orth) = residuals(&a, &e);
            assert!(res < 1e-13, "n={n}: ‖Av−λv‖/‖A‖ = {res}");
            assert!(orth < 1e-13, "n={n}: ‖UᴴU−I‖ = {orth}");
            let rec = (&e.reconstruct() - &a).frobenius_norm();
            assert!(rec < 1e-13 * a.frobenius_norm(), "n={n}: err {rec}");
            assert!(e.values.windows(2).all(|v| v[0] >= v[1]), "not descending");
        }
    }

    #[test]
    fn accuracy_is_relative_to_the_matrix_norm() {
        // A pipeline correlation matrix has ‖A‖_F between 1e-9 and 1e-5;
        // the same matrix scaled down must solve to the same relative
        // accuracy, not to an absolute floor.
        let a = random_hermitian(6, 5);
        let mut small = a.clone();
        small.scale_mut(1e-8);
        let (res, orth) = residuals(&a, &hermitian_eig(&a));
        let (res_s, orth_s) = residuals(&small, &hermitian_eig(&small));
        for (what, r) in [("unit", res), ("1e-8", res_s)] {
            assert!(r < 1e-13, "{what}: relative residual {r}");
        }
        assert!(orth < 1e-13 && orth_s < 1e-13, "{orth} {orth_s}");
        let e = hermitian_eig(&a);
        let es = hermitian_eig(&small);
        for (x, y) in e.values.iter().zip(&es.values) {
            assert!((x * 1e-8 - y).abs() <= 1e-13 * small.frobenius_norm());
        }
    }

    #[test]
    fn rank_one_outer_product_has_single_nonzero_eigenvalue() {
        let v = vec![
            Complex64::new(1.0, 0.5),
            Complex64::new(-0.5, 0.2),
            Complex64::new(0.0, 1.0),
        ];
        let norm_sq: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let mut a = CMatrix::zeros(3, 3);
        a.add_outer(&v, 1.0);
        let e = hermitian_eig(&a);
        assert!((e.values[0] - norm_sq).abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
    }

    #[test]
    fn count_above_splits_signal_from_noise() {
        let mut a = CMatrix::zeros(4, 4);
        a.add_outer(
            &[Complex64::ONE, Complex64::I, Complex64::ONE, Complex64::I],
            10.0,
        );
        for i in 0..4 {
            a[(i, i)] += Complex64::from_re(0.01);
        }
        let e = hermitian_eig(&a);
        assert_eq!(e.count_above(1.0), 1);
        assert_eq!(e.count_above(0.001), 4);
    }

    #[test]
    #[should_panic(expected = "not Hermitian")]
    fn rejects_non_hermitian_input() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        // a[(1,0)] left at zero: not Hermitian.
        let _ = hermitian_eig(&a);
    }

    #[test]
    #[should_panic(expected = "not Hermitian")]
    fn rejects_a_defect_that_is_small_only_in_absolute_terms() {
        // At pipeline scale a 1e-10 asymmetry is a tenth of the whole
        // matrix; an absolute threshold would wave it through.
        let mut a = random_hermitian(4, 9);
        a.scale_mut(1e-9);
        a[(0, 1)] += Complex64::new(1e-10, 0.0);
        let _ = hermitian_eig(&a);
    }

    #[test]
    fn psd_correlation_matrix_has_nonnegative_spectrum() {
        let mut rng = Rng64::seed_from_u64(99);
        let mut r = CMatrix::zeros(10, 10);
        for _ in 0..25 {
            let v: Vec<Complex64> = (0..10)
                .map(|_| Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                .collect();
            r.add_outer(&v, 1.0);
        }
        let e = hermitian_eig(&r);
        for &lambda in &e.values {
            assert!(
                lambda > -1e-9,
                "PSD matrix produced negative eigenvalue {lambda}"
            );
        }
    }
}
