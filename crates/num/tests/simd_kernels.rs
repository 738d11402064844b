//! Property tests pinning the SIMD complex kernels to their scalar
//! references — the contract that lets the golden traces survive
//! vectorization.
//!
//! The container has no third-party crates, so instead of `proptest`
//! these drive each invariant over a deterministic [`Rng64`] sample
//! sweep. Every dispatched kernel is exercised at every SIMD level the
//! host supports, across odd lengths, unaligned sub-slices, and
//! denormal-adjacent magnitudes:
//!
//! * **bitwise** for the dispatch-stable kernels (caxpy, outer-product
//!   rows, butterflies, focus sums) and for the whole eigensolver end to
//!   end;
//! * **≤ 1e-12 relative** for `cdot`, whose FMA lanes reassociate.
//!
//! Forcing a SIMD level mutates process-global state, so every test
//! serializes on one mutex and restores auto-detection on drop.

use std::sync::{Mutex, MutexGuard, OnceLock};

use wivi_num::rng::Rng64;
use wivi_num::simd::{self, SimdLevel};
use wivi_num::{hermitian_eig, CMatrix, Complex64};

/// Serializes tests that force a global SIMD level.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores auto-detection when a forcing test exits (even on panic).
struct ForcedGuard;
impl Drop for ForcedGuard {
    fn drop(&mut self) {
        simd::set_forced(None);
    }
}

fn force(level: SimdLevel) -> ForcedGuard {
    simd::set_forced(Some(level));
    ForcedGuard
}

/// Every level the host can actually run (scalar always).
fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if simd::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    if simd::avx512_supported() {
        levels.push(SimdLevel::Avx512);
    }
    levels
}

/// Odd, prime, power-of-two, and routing-boundary lengths: covers the
/// vector body, the scalar tail, and the `AVX512_MIN_N` length split.
const LENGTHS: &[usize] = &[1, 2, 3, 5, 7, 8, 13, 31, 50, 64, 127, 255, 256, 257, 625];

/// Magnitude scales: normal-range values and denormal-adjacent ones
/// whose products underflow — SIMD lanes must flush identically to the
/// scalar loop (Rust never enables FTZ/DAZ).
const SCALES: &[f64] = &[1.0, 1e-300];

fn signal(rng: &mut Rng64, len: usize, scale: f64) -> Vec<Complex64> {
    (0..len)
        .map(|_| {
            Complex64::new(
                scale * rng.gen_range(-10.0, 10.0),
                scale * rng.gen_range(-10.0, 10.0),
            )
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} drifted: {x:?} vs {y:?}"
        );
    }
}

/// Runs `op` once per (level, length, scale, alignment-offset) case,
/// handing it a fresh deterministic RNG so SIMD and scalar see the same
/// inputs.
fn sweep(mut op: impl FnMut(SimdLevel, usize, f64, usize, &mut Rng64)) {
    for &level in &available_levels() {
        for &len in LENGTHS {
            for &scale in SCALES {
                // Offset 1 breaks 32- and 64-byte vector alignment
                // (Complex64 keeps 16-byte alignment).
                for offset in [0usize, 1] {
                    let mut rng = Rng64::seed_from_u64(
                        0x51AD ^ (len as u64) << 16 ^ scale.to_bits() >> 32 ^ offset as u64,
                    );
                    op(level, len, scale, offset, &mut rng);
                }
            }
        }
    }
}

#[test]
fn caxpy_and_outer_row_are_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    sweep(|level, len, scale, offset, rng| {
        let acc0 = signal(rng, len + offset, scale);
        let x = signal(rng, len + offset, scale);
        let a = Complex64::new(rng.gen_range(-2.0, 2.0), rng.gen_range(-2.0, 2.0));
        let s = rng.gen_range(0.0, 2.0);

        let mut acc_s = acc0.clone();
        simd::caxpy_scalar(&mut acc_s[offset..], &x[offset..], a);
        let mut row_s = acc0.clone();
        simd::accumulate_outer_row_scalar(&mut row_s[offset..], &x[offset..], a, s);

        let _g = force(level);
        let mut acc_v = acc0.clone();
        simd::caxpy(&mut acc_v[offset..], &x[offset..], a);
        let mut row_v = acc0;
        simd::accumulate_outer_row(&mut row_v[offset..], &x[offset..], a, s);
        let what = format!("{} n={len} scale={scale:e} off={offset}", level.name());
        assert_bits_eq(&acc_v, &acc_s, &format!("caxpy {what}"));
        assert_bits_eq(&row_v, &row_s, &format!("accumulate_outer_row {what}"));
    });
}

#[test]
fn butterflies_and_focus_are_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    sweep(|level, len, scale, offset, rng| {
        let lo0 = signal(rng, len + offset, scale);
        let hi0 = signal(rng, len + offset, scale);
        let w = signal(rng, len + offset, 1.0);
        let t2 = signal(rng, len + offset, 1.0);

        let (mut lo_s, mut hi_s) = (lo0.clone(), hi0.clone());
        simd::butterflies_scalar(&mut lo_s[offset..], &mut hi_s[offset..], &w[offset..]);
        let focus_s = simd::focus_accumulate_scalar(&lo0[offset..], &w[offset..], &t2[offset..]);

        let _g = force(level);
        let (mut lo_v, mut hi_v) = (lo0.clone(), hi0.clone());
        simd::butterflies(&mut lo_v[offset..], &mut hi_v[offset..], &w[offset..]);
        let focus_v = simd::focus_accumulate(&lo0[offset..], &w[offset..], &t2[offset..]);
        let what = format!("{} n={len} scale={scale:e} off={offset}", level.name());
        assert_bits_eq(&lo_v, &lo_s, &format!("butterflies lo {what}"));
        assert_bits_eq(&hi_v, &hi_s, &format!("butterflies hi {what}"));
        assert_bits_eq(&focus_v, &focus_s, &format!("focus_accumulate {what}"));
    });
}

#[test]
fn cdot_matches_scalar_to_1e12_at_every_level() {
    let _l = force_lock();
    sweep(|level, len, scale, offset, rng| {
        let a = signal(rng, len + offset, scale);
        let b = signal(rng, len + offset, scale);
        let want = simd::cdot_scalar(&a[offset..], &b[offset..]);

        let _g = force(level);
        let got = simd::cdot(&a[offset..], &b[offset..]);
        let norm: f64 = a[offset..]
            .iter()
            .zip(&b[offset..])
            .map(|(x, y)| x.abs() * y.abs())
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        assert!(
            (got - want).abs() <= 1e-12 * norm,
            "cdot {} n={len} scale={scale:e} off={offset}: {got:?} vs {want:?}",
            level.name()
        );
    });
}

#[test]
fn whole_eigensolver_is_bitwise_identical_at_every_level() {
    let _l = force_lock();
    for &n in &[5usize, 13, 50] {
        let mut rng = Rng64::seed_from_u64(0xE16 ^ n as u64);
        let a = CMatrix::from_fn(n, n, |_, _| {
            Complex64::new(rng.gen_range(-10.0, 10.0), rng.gen_range(-10.0, 10.0))
        });
        // (A + A^H)/2 is bit-Hermitian: both (i,j) and (j,i) fold the
        // same two values through one commuting add, exactly as real
        // correlation matrices are.
        let mut h = &a + &a.hermitian();
        h.scale_mut(0.5);

        let reference = {
            let _g = force(SimdLevel::Scalar);
            hermitian_eig(&h)
        };
        for &level in &available_levels()[1..] {
            let _g = force(level);
            let got = hermitian_eig(&h);
            for (i, (ev_ref, ev_got)) in reference.values.iter().zip(&got.values).enumerate() {
                assert_eq!(
                    ev_ref.to_bits(),
                    ev_got.to_bits(),
                    "eigenvalue {i} drifted at {} (n={n})",
                    level.name()
                );
            }
            assert_bits_eq(
                got.vectors.as_slice(),
                reference.vectors.as_slice(),
                &format!("eigenvectors at {} (n={n})", level.name()),
            );
        }
    }
}
