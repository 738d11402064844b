//! The host's speed, gauged between sessions.
//!
//! The reference host is a shared 2-vCPU VM whose speed drifts between
//! modes up to 1.5× apart, for seconds to minutes at a time, with the
//! neighbours' load. A run that falls in a slow stretch reads slower
//! although the program is the same. So the benchmark times a fixed
//! reference computation of its own before and after every session (or
//! round) and expresses the session's times at the host's nominal speed:
//! measured time ÷ (reference time ÷ [`NOMINAL_S`]). The reference is
//! the benchmark's own code, so a change to the program moves the scaled
//! times exactly as it moves the measured ones; only the host's drift is
//! divided out. Every run prints the factors and the unscaled figures.
//!
//! The reference is scalar sine/cosine evaluation. Over blocks of
//! `track_stream` on the reference host, log block rate against log
//! reference time had slope −0.88 and correlation −0.94; complex matrix
//! products (slope −0.56), a memory stream and a pointer chase tracked
//! the program's slow-downs less well.

use std::hint::black_box;
use std::time::Instant;

/// Phase steps in one reference pass.
const STEPS: usize = 80_000;

/// One reference pass's wall time at the host's nominal speed: its fast
/// mode on the reference host.
pub const NOMINAL_S: f64 = 1.3e-3;

/// Times one reference pass, in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut phase = black_box(0.1f64);
    let mut acc = 0.0;
    for _ in 0..black_box(STEPS) {
        let (s, c) = phase.sin_cos();
        acc += s * c;
        phase += 0.37;
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The mean of `threads` reference passes run at once, one per thread.
fn reading_s(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_s();
    }
    let total: f64 = std::thread::scope(|s| {
        let passes: Vec<_> = (0..threads).map(|_| s.spawn(reference_s)).collect();
        passes
            .into_iter()
            .map(|p| p.join().unwrap_or(f64::NAN))
            .sum()
    });
    total / threads as f64
}

/// Reads the host's speed at the boundaries of the timed intervals.
pub struct Gauge {
    threads: usize,
    last_s: f64,
    factors: Vec<f64>,
}

impl Gauge {
    /// Takes the first reading, before the first timed interval. Each
    /// reading runs `threads` reference passes at once: as many as the
    /// measured program keeps busy, so the reading sees every core it
    /// runs on.
    pub fn start(threads: usize) -> Self {
        Self {
            threads,
            last_s: reading_s(threads),
            factors: Vec::new(),
        }
    }

    /// Takes a reading at the end of an interval and returns the host
    /// factor over it: the mean of the readings at its two ends ÷
    /// [`NOMINAL_S`]; above 1 when the host ran slow. A time measured in
    /// the interval, divided by the factor, is its time at nominal speed.
    pub fn factor(&mut self) -> f64 {
        let now = reading_s(self.threads);
        let f = 0.5 * (self.last_s + now) / NOMINAL_S;
        self.last_s = now;
        self.factors.push(f);
        f
    }

    /// One-line summary of the factors read so far.
    pub fn describe(&self) -> String {
        let mut f = self.factors.clone();
        f.sort_by(f64::total_cmp);
        match (f.first(), f.last()) {
            (Some(lo), Some(hi)) => format!(
                "host factor median {:.3} (min {lo:.3}, max {hi:.3}) over {} intervals",
                crate::stats::median(&f),
                f.len()
            ),
            _ => "host factor: no intervals".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_the_mean_of_the_interval_ends_over_nominal() {
        let mut g = Gauge {
            threads: 2,
            last_s: 2.0 * NOMINAL_S,
            factors: Vec::new(),
        };
        let f = g.factor();
        let expect = 0.5 * (2.0 * NOMINAL_S + g.last_s) / NOMINAL_S;
        assert!((f - expect).abs() < 1e-12);
        assert!(f > 0.0);
        assert!(g.describe().contains("over 1 intervals"));
    }
}
