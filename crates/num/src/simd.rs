//! Runtime-dispatched SIMD kernels for the complex hot loops.
//!
//! The whole pipeline funnels into a handful of inner loops — the
//! correlation outer-product accumulation, the FFT butterflies, the
//! MUSIC steering projection (also the eigensolver's reflector and
//! back-transformation sums), and the imaging focus sweep. This module
//! vectorizes exactly those, with a dispatch contract the golden-trace
//! suite depends on:
//!
//! **Bitwise pinning.** Every kernel in this module except [`cdot`]
//! produces output *bit-identical* to its `*_scalar` reference on every
//! input, on every dispatch level. This is achievable because the
//! kernels vectorize across *independent outputs* (different matrix
//! entries, different accumulators, different cells) while keeping each
//! output's arithmetic sequence — operand order, rounding points, no
//! FMA contraction — exactly the scalar one. Two IEEE-754 facts carry
//! the proofs: `a·b` and `b·a` round identically (so complex
//! multiplication commutes bitwise), and negation is a sign-bit flip (so
//! conjugation via XOR mask equals the scalar `-im`). The AVX2/AVX-512
//! paths therefore use explicit `mul`/`add`/`sub`/`addsub` — never
//! `fma` (the AVX-512 paths emulate `addsub` with an add, a sub, and a
//! lane blend, each lane still one IEEE operation) — and the golden
//! fixtures pass unchanged whichever level dispatch lands on.
//!
//! **Epsilon pinning.** [`cdot`] is the one reassociated kernel: four
//! interleaved accumulators plus FMA, ≈ 4× faster on long vectors but
//! only ≤ 1e-12-relatively equal to the sequential fold. It is kept off
//! the golden path (benches, diagnostics, and callers that tolerate
//! reassociation) — see DESIGN.md §12 for the per-kernel policy table.
//!
//! **Dispatch.** [`level`] detects AVX2 once (`is_x86_feature_detected!`)
//! and honours two overrides: the `WIVI_NO_SIMD=1` environment variable
//! (read once, for CI's forced-scalar leg) and the runtime
//! [`set_forced`] hook (for in-process scalar-vs-SIMD comparisons in
//! tests and the kernels bench). On non-x86 targets everything resolves
//! to the portable scalar fallbacks, which are unrolled four-wide where
//! it helps the autovectorizer but remain per-output sequential.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::Complex64;

/// The instruction set a kernel call will use. Levels are ordered:
/// forcing a level above what the CPU supports clamps down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar fallback (always available, the reference).
    Scalar,
    /// AVX2 256-bit paths (x86-64 with runtime-detected support).
    Avx2,
    /// AVX-512 512-bit paths (requires `avx512f` + `avx512dq`).
    Avx512,
}

impl SimdLevel {
    /// Stable lower-case name for reports
    /// (`"scalar"` / `"avx2"` / `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// 0 = auto (detected), 1 = force scalar, 2 = force AVX2, 3 = force
/// AVX-512 (forced levels are clamped to what the CPU supports).
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

fn detected() -> SimdLevel {
    *DETECTED.get_or_init(|| {
        if std::env::var("WIVI_NO_SIMD").is_ok_and(|v| v == "1") {
            return SimdLevel::Scalar;
        }
        // `WIVI_SIMD_LEVEL=scalar|avx2|avx512` caps auto-detection — the
        // benchmarking knob for comparing levels across processes.
        let cap = match std::env::var("WIVI_SIMD_LEVEL").as_deref() {
            Ok("scalar") => SimdLevel::Scalar,
            Ok("avx2") => SimdLevel::Avx2,
            _ => SimdLevel::Avx512,
        };
        #[allow(unused_mut)]
        let mut hw = SimdLevel::Scalar;
        #[cfg(target_arch = "x86_64")]
        {
            // The AVX-512 level also requires AVX2: some of its kernels
            // delegate to the 256-bit implementations.
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                hw = SimdLevel::Avx512;
            } else if std::arch::is_x86_feature_detected!("avx2") {
                hw = SimdLevel::Avx2;
            }
        }
        hw.min(cap)
    })
}

/// The dispatch level kernel calls resolve to right now.
pub fn level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => detected().min(SimdLevel::Avx2),
        3 => detected(), // "force AVX-512" still requires hardware support
        _ => detected(),
    }
}

/// Overrides dispatch at runtime: `Some(Scalar)` forces the reference
/// path, `Some(Avx2)`/`Some(Avx512)` request that level (clamped to
/// hardware support), `None` restores auto-detection. Intended for the
/// kernels bench and the scalar-vs-SIMD property tests; affects all
/// threads.
pub fn set_forced(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx2) => 2,
        Some(SimdLevel::Avx512) => 3,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// `true` if the CPU supports the AVX2 paths (regardless of overrides).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` if the CPU supports the AVX-512 paths (regardless of
/// overrides).
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` if the CPU additionally supports FMA (used only by [`cdot`]).
pub fn fma_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Minimum element count for which the 512-bit paths beat the 256-bit
/// ones on contiguous kernels (measured with the kernels bench: at
/// length-50 matrix rows AVX-512 loses ~2× to AVX2 — wider-vector
/// startup and remainder overhead dominates — while at the 625-element
/// aperture it wins ~1.4×). Length-dependent *routing* only; every
/// route is bitwise pinned to the same scalar reference.
const AVX512_MIN_N: usize = 256;

// ---------------------------------------------------------------------------
// caxpy (the MUSIC steering projection)
// ---------------------------------------------------------------------------

/// `acc[k] += a·x[k]` — the accumulation step of the loop-interchanged
/// MUSIC projection (one signal-row scalar against the angle-contiguous
/// steering table). Bitwise pinned to [`caxpy_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
    assert_eq!(acc.len(), x.len(), "caxpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    match level() {
        SimdLevel::Avx512 if acc.len() >= AVX512_MIN_N => {
            // SAFETY: level() reports this tier only after runtime CPU
            // detection confirmed the kernel's target features.
            return unsafe { avx512::caxpy(acc, x, a) };
        }
        // SAFETY: level() reports this tier only after runtime CPU
        // detection confirmed the kernel's target features.
        SimdLevel::Avx512 | SimdLevel::Avx2 => return unsafe { avx2::caxpy(acc, x, a) },
        SimdLevel::Scalar => {}
    }
    caxpy_scalar(acc, x, a);
}

/// Scalar reference for [`caxpy`] (4-wide unrolled; per-element results
/// are independent so the unroll is bitwise-neutral).
pub fn caxpy_scalar(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
    assert_eq!(acc.len(), x.len(), "caxpy length mismatch");
    let mut ai = acc.chunks_exact_mut(4);
    let mut xi = x.chunks_exact(4);
    for (ac, xc) in ai.by_ref().zip(xi.by_ref()) {
        ac[0] += a * xc[0];
        ac[1] += a * xc[1];
        ac[2] += a * xc[2];
        ac[3] += a * xc[3];
    }
    for (ac, &xk) in ai.into_remainder().iter_mut().zip(xi.remainder()) {
        *ac += a * xk;
    }
}

// ---------------------------------------------------------------------------
// Outer-product row accumulation (smoothed correlation)
// ---------------------------------------------------------------------------

/// `row[k] += (x·conj(v[k]))·s` — one row of the correlation
/// accumulation `R += s·h·h^H` (`x = h[r]`, `v = h`). Bitwise pinned to
/// [`accumulate_outer_row_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn accumulate_outer_row(row: &mut [Complex64], v: &[Complex64], x: Complex64, s: f64) {
    assert_eq!(row.len(), v.len(), "outer-row length mismatch");
    #[cfg(target_arch = "x86_64")]
    match level() {
        SimdLevel::Avx512 if row.len() >= AVX512_MIN_N => {
            // SAFETY: level() reports this tier only after runtime CPU
            // detection confirmed the kernel's target features.
            return unsafe { avx512::accumulate_outer_row(row, v, x, s) };
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 => {
            // SAFETY: level() reports this tier only after runtime CPU
            // detection confirmed the kernel's target features.
            return unsafe { avx2::accumulate_outer_row(row, v, x, s) };
        }
        SimdLevel::Scalar => {}
    }
    accumulate_outer_row_scalar(row, v, x, s);
}

/// Scalar reference for [`accumulate_outer_row`].
pub fn accumulate_outer_row_scalar(row: &mut [Complex64], v: &[Complex64], x: Complex64, s: f64) {
    assert_eq!(row.len(), v.len(), "outer-row length mismatch");
    for (rc, &vc) in row.iter_mut().zip(v) {
        *rc += (x * vc.conj()).scale(s);
    }
}

// ---------------------------------------------------------------------------
// FFT butterflies
// ---------------------------------------------------------------------------

/// One radix-2 butterfly stage over a block split into its low and high
/// halves: `lo[k], hi[k] ← lo[k] + hi[k]·w[k], lo[k] − hi[k]·w[k]`.
/// Bitwise pinned to [`butterflies_scalar`].
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn butterflies(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
    assert!(
        lo.len() == hi.len() && lo.len() == w.len(),
        "butterfly length mismatch"
    );
    // FFT stages here are at most 32 butterflies (64-point OFDM), too
    // short for 512-bit lanes to pay off — AVX-512 reuses the 256-bit
    // path.
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: level() reports this tier only after runtime CPU
        // detection confirmed the kernel's target features.
        SimdLevel::Avx512 | SimdLevel::Avx2 => return unsafe { avx2::butterflies(lo, hi, w) },
        SimdLevel::Scalar => {}
    }
    butterflies_scalar(lo, hi, w);
}

/// Scalar reference for [`butterflies`].
pub fn butterflies_scalar(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
    for ((l, h), &wk) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
        let u = *l;
        let v = *h * wk;
        *l = u + v;
        *h = u - v;
    }
}

// ---------------------------------------------------------------------------
// Imaging focus accumulation
// ---------------------------------------------------------------------------

/// The per-cell backprojection inner loop: correlates the centred
/// window `h` against the two TX steering tables `t1`, `t2`, traversed
/// forward and reversed, returning `[a1f, a2f, a1r, a2r]` where
///
/// ```text
/// a1f = Σ_i h[i]·t1[i]          a2f = Σ_i h[i]·t2[i]
/// a1r = Σ_i h[n−1−i]·t1[i]      a2r = Σ_i h[n−1−i]·t2[i]
/// ```
///
/// Each accumulator's addition sequence is the scalar loop's, so the
/// result is bitwise pinned to [`focus_accumulate_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn focus_accumulate(h: &[Complex64], t1: &[Complex64], t2: &[Complex64]) -> [Complex64; 4] {
    assert!(
        h.len() == t1.len() && h.len() == t2.len(),
        "focus length mismatch"
    );
    crate::probe::count_kernel(crate::probe::Kernel::Focus, 1);
    // The four accumulators fill exactly one ymm pair; a 512-bit version
    // would change the (pinned) per-accumulator addition order, so the
    // AVX-512 level reuses the 256-bit path.
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: level() reports this tier only after runtime CPU
        // detection confirmed the kernel's target features.
        SimdLevel::Avx512 | SimdLevel::Avx2 => return unsafe { avx2::focus_accumulate(h, t1, t2) },
        SimdLevel::Scalar => {}
    }
    focus_accumulate_scalar(h, t1, t2)
}

/// Scalar reference for [`focus_accumulate`].
pub fn focus_accumulate_scalar(
    h: &[Complex64],
    t1: &[Complex64],
    t2: &[Complex64],
) -> [Complex64; 4] {
    let n = h.len();
    let mut a1f = Complex64::ZERO;
    let mut a2f = Complex64::ZERO;
    let mut a1r = Complex64::ZERO;
    let mut a2r = Complex64::ZERO;
    for i in 0..n {
        let hf = h[i];
        let hr = h[n - 1 - i];
        a1f += hf * t1[i];
        a2f += hf * t2[i];
        a1r += hr * t1[i];
        a2r += hr * t2[i];
    }
    [a1f, a2f, a1r, a2r]
}

// ---------------------------------------------------------------------------
// cdot — the one reassociated kernel
// ---------------------------------------------------------------------------

/// Conjugated dot product `Σ a[k]·conj(b[k])`, **reassociated**: four
/// interleaved accumulators and (where supported) FMA. Matches
/// [`cdot_scalar`] only to ≤ 1e-12 relative error — keep it off
/// bitwise-pinned paths (see the module docs).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cdot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    crate::probe::count_kernel(crate::probe::Kernel::Cdot, 1);
    #[cfg(target_arch = "x86_64")]
    if level() >= SimdLevel::Avx2 && fma_supported() {
        // SAFETY: the guard above confirmed AVX2 and FMA at runtime.
        return unsafe { avx2::cdot(a, b) };
    }
    // Portable reassociated fallback: 4 lanes, same accumulator
    // structure as the AVX2 path minus the FMA contraction.
    let mut acc = [Complex64::ZERO; 4];
    let mut ai = a.chunks_exact(4);
    let mut bi = b.chunks_exact(4);
    for (ac, bc) in ai.by_ref().zip(bi.by_ref()) {
        for l in 0..4 {
            acc[l] += ac[l] * bc[l].conj();
        }
    }
    let mut tail = Complex64::ZERO;
    for (&ak, &bk) in ai.remainder().iter().zip(bi.remainder()) {
        tail += ak * bk.conj();
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Sequential-fold reference for [`cdot`].
pub fn cdot_scalar(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter()
        .zip(b)
        .fold(Complex64::ZERO, |acc, (&x, &y)| acc + x * y.conj())
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex64;
    use std::arch::x86_64::*;

    /// `[w.re, w.im, w.re, w.im]` — one complex broadcast to both slots.
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX2 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn broadcast(w: Complex64) -> __m256d {
        _mm256_setr_pd(w.re, w.im, w.re, w.im)
    }

    /// Per-slot complex multiply of two ymm registers holding two
    /// interleaved complexes each. No FMA: `addsub(x·wr, swap(x)·wi)`
    /// reproduces the scalar operator's products and rounding exactly
    /// (the scalar `im` sums the same two products in the commuted
    /// order, which rounds identically).
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX2 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn cmul(x: __m256d, w: __m256d) -> __m256d {
        let wr = _mm256_movedup_pd(w); //          [w0r, w0r, w1r, w1r]
        let wi = _mm256_permute_pd(w, 0b1111); //  [w0i, w0i, w1i, w1i]
        let xs = _mm256_permute_pd(x, 0b0101); //  [x0i, x0r, x1i, x1r]
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn caxpy(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
        let n = acc.len();
        let av = broadcast(a);
        let ap = acc.as_mut_ptr() as *mut f64;
        let xp = x.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let xv = _mm256_loadu_pd(xp.add(4 * k));
            let av0 = _mm256_loadu_pd(ap.add(4 * k));
            _mm256_storeu_pd(ap.add(4 * k), _mm256_add_pd(av0, cmul(xv, av)));
        }
        if n % 2 == 1 {
            acc[n - 1] += a * x[n - 1];
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_outer_row(
        row: &mut [Complex64],
        v: &[Complex64],
        x: Complex64,
        s: f64,
    ) {
        let n = row.len();
        let xb = broadcast(x);
        let sv = _mm256_set1_pd(s);
        // Conjugation = flipping the imaginary sign bits (IEEE negation).
        let conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        let rp = row.as_mut_ptr() as *mut f64;
        let vp = v.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let vv = _mm256_xor_pd(_mm256_loadu_pd(vp.add(4 * k)), conj_mask);
            let prod = _mm256_mul_pd(cmul(vv, xb), sv);
            let r0 = _mm256_loadu_pd(rp.add(4 * k));
            _mm256_storeu_pd(rp.add(4 * k), _mm256_add_pd(r0, prod));
        }
        if n % 2 == 1 {
            row[n - 1] += (x * v[n - 1].conj()).scale(s);
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn butterflies(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
        let n = lo.len();
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let wp = w.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let u = _mm256_loadu_pd(lp.add(4 * k));
            let hv = _mm256_loadu_pd(hp.add(4 * k));
            let wv = _mm256_loadu_pd(wp.add(4 * k));
            let v = cmul(hv, wv);
            _mm256_storeu_pd(lp.add(4 * k), _mm256_add_pd(u, v));
            _mm256_storeu_pd(hp.add(4 * k), _mm256_sub_pd(u, v));
        }
        if n % 2 == 1 {
            let u = lo[n - 1];
            let v = hi[n - 1] * w[n - 1];
            lo[n - 1] = u + v;
            hi[n - 1] = u - v;
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn focus_accumulate(
        h: &[Complex64],
        t1: &[Complex64],
        t2: &[Complex64],
    ) -> [Complex64; 4] {
        let n = h.len();
        // accf = [a1f, a2f], accr = [a1r, a2r]: lane pairing keeps each
        // accumulator's own (scalar) addition order.
        let mut accf = _mm256_setzero_pd();
        let mut accr = _mm256_setzero_pd();
        let t1p = t1.as_ptr() as *const f64;
        let t2p = t2.as_ptr() as *const f64;
        for i in 0..n {
            let hf = broadcast(*h.get_unchecked(i));
            let hr = broadcast(*h.get_unchecked(n - 1 - i));
            let tv = _mm256_set_m128d(_mm_loadu_pd(t2p.add(2 * i)), _mm_loadu_pd(t1p.add(2 * i)));
            accf = _mm256_add_pd(accf, cmul(tv, hf));
            accr = _mm256_add_pd(accr, cmul(tv, hr));
        }
        let mut out = [Complex64::ZERO; 4];
        let op = out.as_mut_ptr() as *mut f64;
        _mm256_storeu_pd(op, accf);
        _mm256_storeu_pd(op.add(4), accr);
        // accf layout: [a1f, a2f]; accr: [a1r, a2r] — already the
        // documented return order.
        out
    }

    // SAFETY: callable only with AVX2 and FMA present — the dispatch
    // guard proves both at runtime. Every pointer offset below stays
    // inside the argument slices (whole pairs, then a scalar tail).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn cdot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        let n = a.len();
        let conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        let ap = a.as_ptr() as *const f64;
        let bp = b.as_ptr() as *const f64;
        // Four independent 2-complex accumulator pairs (8 complexes per
        // iteration) — reassociated by construction. The `a·b.re` and
        // `a_swapped·b.im` halves of each complex product accumulate in
        // separate FMA chains; one addsub at the end combines them with
        // the complex-multiply sign pattern (even: p − s, odd: p + s).
        let mut acc_p = [_mm256_setzero_pd(); 4];
        let mut acc_s = [_mm256_setzero_pd(); 4];
        let mut k = 0;
        while k + 8 <= n {
            for (l, (p, s)) in acc_p.iter_mut().zip(acc_s.iter_mut()).enumerate() {
                let av = _mm256_loadu_pd(ap.add(2 * (k + 2 * l)));
                let bv = _mm256_xor_pd(_mm256_loadu_pd(bp.add(2 * (k + 2 * l))), conj_mask);
                let br = _mm256_movedup_pd(bv);
                let bi = _mm256_permute_pd(bv, 0b1111);
                let asw = _mm256_permute_pd(av, 0b0101);
                *p = _mm256_fmadd_pd(av, br, *p);
                *s = _mm256_fmadd_pd(asw, bi, *s);
            }
            k += 8;
        }
        let psum = _mm256_add_pd(
            _mm256_add_pd(acc_p[0], acc_p[1]),
            _mm256_add_pd(acc_p[2], acc_p[3]),
        );
        let ssum = _mm256_add_pd(
            _mm256_add_pd(acc_s[0], acc_s[1]),
            _mm256_add_pd(acc_s[2], acc_s[3]),
        );
        let acc = _mm256_addsub_pd(psum, ssum);
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let sum2 = _mm_add_pd(lo, hi);
        let mut pair = [0.0f64; 2];
        _mm_storeu_pd(pair.as_mut_ptr(), sum2);
        let mut total = Complex64::new(pair[0], pair[1]);
        while k < n {
            total += *a.get_unchecked(k) * b.get_unchecked(k).conj();
            k += 1;
        }
        total
    }
}

// ---------------------------------------------------------------------------
// AVX-512 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Complex64;
    use std::arch::x86_64::*;

    /// `[w.re, w.im]` repeated to all four complex slots.
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX-512 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn broadcast512(w: Complex64) -> __m512d {
        _mm512_set4_pd(w.im, w.re, w.im, w.re)
    }

    /// `addsub` (even lanes `a − b`, odd lanes `a + b`) emulated for
    /// zmm: one add, one sub, one lane blend — each lane still exactly
    /// one IEEE operation, so it is bitwise equal to
    /// `_mm256_addsub_pd` on the corresponding halves.
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX-512 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn addsub512(a: __m512d, b: __m512d) -> __m512d {
        let dif = _mm512_sub_pd(a, b);
        let sum = _mm512_add_pd(a, b);
        _mm512_mask_blend_pd(0b1010_1010, dif, sum)
    }

    /// Per-slot complex multiply of four interleaved complexes — the
    /// 512-bit analogue of the AVX2 `cmul`, same operand order and
    /// rounding points, no FMA.
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX-512 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn cmul512(x: __m512d, w: __m512d) -> __m512d {
        let wr = _mm512_movedup_pd(w);
        let wi = _mm512_permute_pd(w, 0xFF);
        let xs = _mm512_permute_pd(x, 0x55);
        addsub512(_mm512_mul_pd(x, wr), _mm512_mul_pd(xs, wi))
    }

    // SAFETY: callable only with AVX-512 F/DQ present — the level()
    // dispatch proves that at runtime. Every pointer offset below
    // stays inside the argument slices: the vector body covers whole
    // quads of complexes and the tail is handled separately.
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    pub(super) unsafe fn caxpy(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
        let n = acc.len();
        let av = broadcast512(a);
        let ap = acc.as_mut_ptr() as *mut f64;
        let xp = x.as_ptr() as *const f64;
        let quads = n / 4;
        for k in 0..quads {
            let xv = _mm512_loadu_pd(xp.add(8 * k));
            let av0 = _mm512_loadu_pd(ap.add(8 * k));
            _mm512_storeu_pd(ap.add(8 * k), _mm512_add_pd(av0, cmul512(xv, av)));
        }
        for k in quads * 4..n {
            acc[k] += a * x[k];
        }
    }

    // SAFETY: callable only with AVX-512 F/DQ present — the level()
    // dispatch proves that at runtime. Every pointer offset below
    // stays inside the argument slices: the vector body covers whole
    // quads of complexes and the tail is handled separately.
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    pub(super) unsafe fn accumulate_outer_row(
        row: &mut [Complex64],
        v: &[Complex64],
        x: Complex64,
        s: f64,
    ) {
        let n = row.len();
        let xb = broadcast512(x);
        let sv = _mm512_set1_pd(s);
        // Conjugation = flipping the imaginary sign bits (IEEE negation).
        let conj_mask = _mm512_set4_pd(-0.0, 0.0, -0.0, 0.0);
        let rp = row.as_mut_ptr() as *mut f64;
        let vp = v.as_ptr() as *const f64;
        let quads = n / 4;
        for k in 0..quads {
            let vv = _mm512_xor_pd(_mm512_loadu_pd(vp.add(8 * k)), conj_mask);
            let prod = _mm512_mul_pd(cmul512(vv, xb), sv);
            let r0 = _mm512_loadu_pd(rp.add(8 * k));
            _mm512_storeu_pd(rp.add(8 * k), _mm512_add_pd(r0, prod));
        }
        for k in quads * 4..n {
            row[k] += (x * v[k].conj()).scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::sync::{Mutex, MutexGuard};

    /// `FORCED` is process-global; tests that mutate it serialize here
    /// (and restore auto-detection on drop via [`forced_guard`]).
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    struct ForcedGuard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for ForcedGuard {
        fn drop(&mut self) {
            set_forced(None);
        }
    }

    fn forced_guard() -> ForcedGuard {
        ForcedGuard(FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Every level the running CPU can actually execute.
    fn available_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if avx2_supported() {
            levels.push(SimdLevel::Avx2);
        }
        if avx512_supported() {
            levels.push(SimdLevel::Avx512);
        }
        levels
    }

    fn vecs(n: usize, seed: u64) -> (Vec<Complex64>, Vec<Complex64>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut g = || Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
        ((0..n).map(|_| g()).collect(), (0..n).map(|_| g()).collect())
    }

    #[test]
    fn level_override_roundtrip() {
        let _guard = forced_guard();
        let auto = level();
        set_forced(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        set_forced(None);
        assert_eq!(level(), auto);
        // Forcing a level the CPU supports lands exactly there; forcing
        // one it doesn't clamps down to what it can run.
        for want in available_levels() {
            set_forced(Some(want));
            assert_eq!(level(), want.min(auto), "forcing {:?}", want);
        }
        set_forced(Some(SimdLevel::Avx512));
        assert!(level() <= auto, "forced level must clamp to hardware");
        set_forced(None);
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
        assert!(SimdLevel::Scalar < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
    }

    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        // The heart of the pinning contract, at every available dispatch
        // level and every length class the pipeline uses (even/odd,
        // tiny, hot-path sizes).
        let _guard = forced_guard();
        for forced in available_levels() {
            set_forced(Some(forced));
            // 625 > AVX512_MIN_N exercises the length-routed 512-bit
            // arms; the small sizes cover remainders and the 256-bit
            // routes.
            for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 50, 63, 100, 181, 625] {
                let (x, y) = vecs(n, 1000 + n as u64);

                let a = Complex64::new(0.3, -1.2);
                let mut accs = y.clone();
                caxpy_scalar(&mut accs, &x, a);
                let mut accv = y.clone();
                caxpy(&mut accv, &x, a);
                assert_bits(&accs, &accv, "caxpy");

                let mut rows = y.clone();
                accumulate_outer_row_scalar(&mut rows, &x, a, 0.25);
                let mut rowv = y.clone();
                accumulate_outer_row(&mut rowv, &x, a, 0.25);
                assert_bits(&rows, &rowv, "outer row");

                let (w, _) = vecs(n, 2000 + n as u64);
                let (mut los, mut his) = (x.clone(), y.clone());
                butterflies_scalar(&mut los, &mut his, &w);
                let (mut lov, mut hiv) = (x.clone(), y.clone());
                butterflies(&mut lov, &mut hiv, &w);
                assert_bits(&los, &lov, "butterfly lo");
                assert_bits(&his, &hiv, "butterfly hi");

                let fs = focus_accumulate_scalar(&x, &y, &w);
                let fv = focus_accumulate(&x, &y, &w);
                assert_bits(&fs, &fv, "focus");
            }
        }
    }

    #[test]
    fn cdot_reassociation_stays_within_epsilon() {
        for n in [1usize, 3, 8, 17, 64, 625] {
            let (a, b) = vecs(n, 777 + n as u64);
            let exact = cdot_scalar(&a, &b);
            let fast = cdot(&a, &b);
            let err = (exact - fast).abs() / exact.abs().max(1e-30);
            assert!(err <= 1e-12, "n={n}: relative error {err}");
        }
    }

    fn assert_bits(a: &[Complex64], b: &[Complex64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: lane {i} differs ({x} vs {y})"
            );
        }
    }
}
