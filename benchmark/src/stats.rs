//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as its median plus its *tail*: the highest
//! percentile that still has at least ten samples beyond it. With `n`
//! sorted samples that is the `(n − 10)`-th smallest, at percentile
//! `100·(n − 10)/n`. The percentile therefore moves smoothly with the
//! sample count instead of jumping between ladder rungs, and the printed
//! sample count lets a reader judge it.

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a timing distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The tail value (same unit as the samples).
    pub value: f64,
    /// Its percentile, 0–100.
    pub percentile: f64,
    /// Samples strictly beyond it in rank (ten unless `n` is too small).
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The tail percentile of `n` samples and how many samples lie beyond
/// it: `(100·(n − 10)/n, 10)`, or `(100, 0)` when `n` is too small for
/// any percentile to qualify.
pub fn tail_percentile(n: usize) -> (f64, usize) {
    if n > TAIL_BEYOND {
        (100.0 * (n - TAIL_BEYOND) as f64 / n as f64, TAIL_BEYOND)
    } else {
        (100.0, 0)
    }
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it. With too few samples the maximum is returned, with
/// `beyond` 0 saying no percentile qualified.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let (percentile, beyond) = tail_percentile(n);
    Tail {
        value: sorted(xs)
            .get(n.wrapping_sub(beyond + 1))
            .copied()
            .unwrap_or(0.0),
        percentile,
        beyond,
        n,
    }
}

impl Tail {
    /// One-line description, e.g. `p99.74 of n=3792 (10 beyond)`.
    pub fn describe(&self) -> String {
        format!(
            "p{:.2} of n={} ({} beyond)",
            self.percentile, self.n, self.beyond
        )
    }
}

/// A run's tail taken window by window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowTail {
    /// The median of the windows' tails.
    pub value: f64,
    /// The first window's tail: its percentile and sample count.
    pub window: Tail,
    pub windows: usize,
}

/// The tail of a run's per-block samples, window by window: the blocks,
/// in run order, are grouped into windows of consecutive whole blocks
/// holding at least `min_n` samples (by the first block's size; a short
/// remainder joins the last window), each window's [`tail`] is taken,
/// and their median is the value. Pooled over a whole run, the
/// tail is the run's few worst samples, which on a shared host are
/// whichever steps a neighbour happened to preempt; the median over
/// windows is the tail of a typical stretch of the run.
pub fn window_tail(blocks: &[Vec<f64>], min_n: usize) -> WindowTail {
    let per_block = blocks.first().map_or(1, Vec::len).max(1);
    let k = min_n.div_ceil(per_block).max(1);
    let n = (blocks.len() / k).max(1);
    let windows: Vec<Vec<f64>> = (0..n)
        .map(|w| {
            let end = if w + 1 == n {
                blocks.len()
            } else {
                (w + 1) * k
            };
            blocks[w * k..end].concat()
        })
        .collect();
    let tails: Vec<Tail> = windows.iter().map(|w| tail(w)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    WindowTail {
        value: median(&values),
        window: tails.first().copied().unwrap_or_else(|| tail(&[])),
        windows: tails.len(),
    }
}

impl WindowTail {
    /// One-line description, e.g. `median over 16 windows of each one's
    /// p96.84 of n=316 (10 beyond)`.
    pub fn describe(&self) -> String {
        format!(
            "median over {} windows of each one's {}",
            self.windows,
            self.window.describe()
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=1000 ms: the tail is the 990th value, ten values above it.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.n, 1000);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.describe(), "p99.00 of n=1000 (10 beyond)");
    }

    #[test]
    fn tail_percentile_tracks_the_sample_count() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 29.0);
        assert!((t.percentile - 75.0).abs() < 1e-12);
        assert_eq!(t.describe(), "p75.00 of n=40 (10 beyond)");

        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum_and_says_so() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.beyond, t.n), (5.0, 0, 3));
        assert_eq!(t.describe(), "p100.00 of n=3 (0 beyond)");
        assert_eq!(tail(&[]).value, 0.0);
        assert_eq!(tail_percentile(1000), (99.0, 10));
        assert_eq!(tail_percentile(10), (100.0, 0));
    }

    #[test]
    fn window_tail_is_the_median_of_whole_block_windows() {
        // Five blocks of 150 samples: windows of two blocks, the fifth
        // joins the last, so windows of 300 and 450 samples.
        let blocks: Vec<Vec<f64>> = (0..5)
            .map(|b| (0..150).map(|i| f64::from(b * 1000 + i)).collect())
            .collect();
        let w = window_tail(&blocks, 300);
        assert_eq!(w.windows, 2);
        // Tails: the 290th of the first window (1139), the 440th of the
        // second (4139); their median.
        assert_eq!(w.value, 0.5 * (1139.0 + 4139.0));
        assert_eq!(
            w.describe(),
            "median over 2 windows of each one's p96.67 of n=300 (10 beyond)"
        );
        // A run shorter than one window is one window.
        let w = window_tail(&blocks[..1], 300);
        assert_eq!((w.windows, w.window.n), (1, 150));
        assert_eq!(window_tail(&[], 300).value, 0.0);
        // Windows of one block each.
        assert_eq!(window_tail(&blocks, 100).windows, 5);
    }
}
