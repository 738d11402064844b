//! The Hermitian eigensolver against an independent reference: a plain
//! scalar cyclic Jacobi, the algorithm the library used before
//! Householder tridiagonalization + implicit QL replaced it.
//!
//! Every case checks the solver's eigenvalues against the reference and
//! its own residual `‖AU − UΛ‖` and orthogonality `‖UᴴU − I‖`, all
//! relative to `‖A‖_F` so that pipeline-scale matrices (‖A‖_F between
//! 1e-9 and 1e-5) are held to the same accuracy as unit-scale ones.
//! Where the top of the spectrum is separated from the rest, the
//! eigenvectors spanning it are unique up to rotation within the
//! cluster, so their projectors are compared directly.

use std::sync::{Mutex, MutexGuard};

use wivi_num::rng::Rng64;
use wivi_num::{hermitian_eig, probe, CMatrix, Complex64, HermitianEig};

/// The dimensions exercised, including the MUSIC subarray size 50.
const SIZES: &[usize] = &[1, 2, 3, 7, 20, 50];

/// Serializes the tests of this file: the QL-iteration check reads the
/// process-wide probe counters, which any concurrent solve would bump.
fn solver_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Test-only reference: textbook cyclic Jacobi with complex Givens
/// rotations on the full matrix, converged to the relative threshold
/// `1e-14·‖A‖_F`. Returns eigenvalues descending with their vectors.
fn jacobi_reference(a: &CMatrix) -> HermitianEig {
    let n = a.rows();
    let mut m = a.clone();
    let mut u = CMatrix::identity(n);
    let tol = 1e-14 * a.frobenius_norm();
    for _sweep in 0..64 {
        let mut off = 0.0;
        for r in 0..n {
            for c in 0..n {
                if r != c {
                    off += m[(r, c)].norm_sqr();
                }
            }
        }
        if off.sqrt() <= tol * n as f64 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let r = apq.abs();
                if r <= tol {
                    continue;
                }
                let tau = (m[(q, q)].re - m[(p, p)].re) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let e_pos = Complex64::cis(apq.arg());
                let e_neg = e_pos.conj();
                // A ← A·V (columns p, q), then A ← V^H·A (rows p, q),
                // then U ← U·V.
                for k in 0..n {
                    let (akp, akq) = (m[(k, p)], m[(k, q)]);
                    m[(k, p)] = akp.scale(c) - (e_neg * akq).scale(s);
                    m[(k, q)] = (e_pos * akp).scale(s) + akq.scale(c);
                }
                for k in 0..n {
                    let (apk, aqk) = (m[(p, k)], m[(q, k)]);
                    m[(p, k)] = apk.scale(c) - (e_pos * aqk).scale(s);
                    m[(q, k)] = (e_neg * apk).scale(s) + aqk.scale(c);
                }
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;
                m[(p, p)] = Complex64::from_re(m[(p, p)].re);
                m[(q, q)] = Complex64::from_re(m[(q, q)].re);
                for k in 0..n {
                    let (ukp, ukq) = (u[(k, p)], u[(k, q)]);
                    u[(k, p)] = ukp.scale(c) - (e_neg * ukq).scale(s);
                    u[(k, q)] = (e_pos * ukp).scale(s) + ukq.scale(c);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].re.partial_cmp(&m[(i, i)].re).unwrap());
    HermitianEig {
        values: order.iter().map(|&i| m[(i, i)].re).collect(),
        vectors: CMatrix::from_fn(n, n, |r, c| u[(r, order[c])]),
    }
}

fn random_complex(rng: &mut Rng64) -> Complex64 {
    Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0))
}

fn random_hermitian(n: usize, rng: &mut Rng64) -> CMatrix {
    let a = CMatrix::from_fn(n, n, |_, _| random_complex(rng));
    let mut h = &a + &a.hermitian();
    h.scale_mut(0.5);
    h
}

/// `Σ_i v_i·v_iᴴ / count` over `count` random vectors: a correlation
/// matrix of rank `min(count, n)`, built like the pipeline's.
fn correlation(n: usize, count: usize, rng: &mut Rng64) -> CMatrix {
    let mut r = CMatrix::zeros(n, n);
    for _ in 0..count {
        let v: Vec<Complex64> = (0..n).map(|_| random_complex(rng)).collect();
        r.add_outer(&v, 1.0 / count as f64);
    }
    r
}

/// `V·diag(λ)·Vᴴ` with a random unitary `V` (the reference's
/// eigenvectors of a random Hermitian matrix).
fn with_spectrum(lambda: &[f64], rng: &mut Rng64) -> CMatrix {
    let n = lambda.len();
    let v = jacobi_reference(&random_hermitian(n, rng)).vectors;
    let mut a = CMatrix::zeros(n, n);
    for (j, &l) in lambda.iter().enumerate() {
        a.add_outer(&v.col(j), l);
    }
    a
}

/// The input families of the comparison at dimension `n`.
fn cases(n: usize, rng: &mut Rng64) -> Vec<(String, CMatrix)> {
    let mut out = vec![
        ("random".to_string(), random_hermitian(n, rng)),
        (
            "diagonal".to_string(),
            CMatrix::from_fn(n, n, |r, c| {
                if r == c {
                    Complex64::from_re((r as f64 * 0.7).sin())
                } else {
                    Complex64::ZERO
                }
            }),
        ),
        ("zero".to_string(), CMatrix::zeros(n, n)),
        ("rank-1".to_string(), correlation(n, 1, rng)),
        (
            "rank-deficient".to_string(),
            correlation(n, n.div_ceil(3), rng),
        ),
    ];
    let repeated: Vec<f64> = (0..n).map(|i| [2.0, 2.0, 2.0, 0.5, 0.5][i % 5]).collect();
    out.push(("repeated".to_string(), with_spectrum(&repeated, rng)));
    for scale in [1e-9, 1e-5] {
        let mut r = correlation(n, 2 * n, rng);
        r.scale_mut(scale);
        out.push((format!("correlation×{scale:e}"), r));
    }
    out
}

/// `(‖AU − UΛ‖_F, ‖UᴴU − I‖_F)` of a decomposition.
fn residuals(a: &CMatrix, e: &HermitianEig) -> (f64, f64) {
    let n = a.rows();
    let au = a * &e.vectors;
    let u_lambda = CMatrix::from_fn(n, n, |r, c| e.vectors[(r, c)].scale(e.values[c]));
    let gram = &e.vectors.hermitian() * &e.vectors;
    (
        (&au - &u_lambda).frobenius_norm(),
        (&gram - &CMatrix::identity(n)).frobenius_norm(),
    )
}

/// `‖UₖUₖᴴ − VₖVₖᴴ‖_F` for the leading `k` columns.
fn projector_distance(u: &CMatrix, v: &CMatrix, k: usize) -> f64 {
    let n = u.rows();
    let mut d = CMatrix::zeros(n, n);
    for j in 0..k {
        d.add_outer(&u.col(j), 1.0);
        d.add_outer(&v.col(j), -1.0);
    }
    d.frobenius_norm()
}

#[test]
fn matches_the_jacobi_reference_on_every_input_family() {
    let _l = solver_lock();
    let mut rng = Rng64::seed_from_u64(0xE1C0);
    for &n in SIZES {
        for (what, a) in cases(n, &mut rng) {
            let norm = a.frobenius_norm();
            let got = hermitian_eig(&a);
            let want = jacobi_reference(&a);
            for (i, (x, y)) in got.values.iter().zip(&want.values).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-12 * norm,
                    "{what} n={n}: eigenvalue {i} is {x:e}, reference {y:e} (‖A‖ {norm:e})"
                );
            }
            let (res, orth) = residuals(&a, &got);
            assert!(
                res <= 1e-12 * norm,
                "{what} n={n}: ‖AU−UΛ‖ = {res:e} (‖A‖ {norm:e})"
            );
            assert!(orth <= 1e-12, "{what} n={n}: ‖UᴴU−I‖ = {orth:e}");
        }
    }
}

#[test]
fn separated_signal_subspace_matches_the_reference() {
    let _l = solver_lock();
    let mut rng = Rng64::seed_from_u64(0x5EB5);
    for &n in &[7usize, 20, 50] {
        for k in [1usize, 3, 6] {
            // k strong sources over a noise floor 30 dB down, like a
            // MUSIC window's correlation matrix, at pipeline scale.
            let lambda: Vec<f64> = (0..n)
                .map(|i| {
                    if i < k {
                        1e-6 * (1.0 + i as f64)
                    } else {
                        1e-9 * (1.0 + 0.1 * i as f64)
                    }
                })
                .collect();
            let a = with_spectrum(&lambda, &mut rng);
            let got = hermitian_eig(&a);
            let want = jacobi_reference(&a);
            let d = projector_distance(&got.vectors, &want.vectors, k);
            assert!(d <= 1e-9, "n={n} k={k}: projector distance {d:e}");
        }
    }
}

#[test]
fn rank_one_50x50_deflates_in_a_few_ql_iterations() {
    // A local deflation test, |e_m| ≤ ε·(|d_m| + |d_m+1|), keeps
    // iterating on the rounding-level null block of a rank-deficient
    // matrix; the solver's test relative to ‖A‖ deflates it at once.
    let _l = solver_lock();
    let mut rng = Rng64::seed_from_u64(0x0001);
    let a = correlation(50, 1, &mut rng);
    probe::set_enabled(Some(true));
    let before = probe::snapshot();
    let e = hermitian_eig(&a);
    let spent = probe::snapshot().since(&before);
    probe::set_enabled(None);
    assert_eq!(spent.eig_calls, 1);
    assert!(
        spent.eig_sweeps <= 10,
        "rank-1 50×50 took {} QL iterations",
        spent.eig_sweeps
    );
    assert!(e.values[1].abs() <= 1e-12 * a.frobenius_norm());
}
