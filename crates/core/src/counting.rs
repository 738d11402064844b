//! Spatial-variance human counting (paper §5.2, Eqs. 5.4–5.5, Table 7.1).
//!
//! "Any human can be only at one location at any point in time. Thus, at
//! any point in time, the larger the number of humans, the higher the
//! spatial variance" of `A′[θ, n]`. The counter computes the θ-weighted
//! centroid and variance of each window's (dB) spectrum, averages the
//! variance over the trace, and classifies the result against thresholds
//! learned from labelled training trials.
//!
//! The moment is taken over each window's *ridge* bins only (grass less
//! than [`RIDGE_THRESHOLD_DB`] above the floor is dropped — without this,
//! the MUSIC noise speckle visible in Fig. 7-2's backgrounds dominates
//! the moment sums and the count classes saturate), and the DC ridge at
//! θ = 0 is annihilated by the `θ²` weight; [`window_spatial_variance`]
//! gives the exact form. The CDF *shape* and the class ordering match
//! Fig. 7-3, but the absolute scale is arbitrary: it counts ridge bins ×
//! deg², so it depends on the angle grid. That is why the class
//! thresholds are learned from training trials, not taken from the
//! paper.

use wivi_num::Complex64;

use crate::music::{MusicConfig, MusicEngine};
use crate::spectrogram::{is_ridge_bin, AngleSpectrogram};
use crate::stage::SharedStreamingMusic;

/// dB-above-floor below which a MUSIC bin counts as noise grass rather
/// than a ridge (see [`AngleSpectrogram::db_ridges`]).
pub const RIDGE_THRESHOLD_DB: f64 = 10.0;

/// Angle guard around the DC line (degrees) excluded from the spatial
/// moments: the DC ridge carries no information about moving bodies, and
/// its mass (which fluctuates with the drift state of the residual null)
/// would otherwise smear the per-window statistic. Bodies crossing in
/// front of the device pass through the guard — exactly the paper's
/// observation that perpendicular motion merges with the DC line (§5.1
/// fn. 5).
pub const DC_GUARD_DEG: f64 = 10.0;

/// Per-window spatial centroid `C[n]` (degrees): the ridge-dB-weighted
/// mean angle (Eq. 5.4, normalized).
pub fn spatial_centroid_profile(spec: &AngleSpectrogram) -> Vec<f64> {
    let db = spec.db_ridges_absolute(RIDGE_THRESHOLD_DB);
    db.iter()
        .map(|row| {
            let mut total = 0.0;
            let mut first = 0.0;
            for (&th, &w) in spec.thetas_deg.iter().zip(row) {
                if th.abs() < DC_GUARD_DEG {
                    continue;
                }
                total += w;
                first += th * w;
            }
            if total <= 0.0 {
                0.0
            } else {
                first / total
            }
        })
        .collect()
}

/// Per-window spatial variance `VAR[n]` (deg²): the **unnormalized**
/// second moment of the ridge support about the DC axis —
/// `Σ_{|θ| ≥ guard, ridge} θ²` — Eq. 5.5 with its (numerically
/// negligible) `C²` correction dropped and the dB weights binarized.
/// Three deliberate choices: the moment is not divided by the total
/// weight, so each additional moving body adds its own ridge support and
/// the statistic keeps growing from 2 to 3 humans instead of saturating
/// once the angular *spread* alone stops widening (this is also why the
/// paper's Fig. 7-3 x-axis reaches "tens of millions" — support × θ²,
/// not a normalized moment); the weight is the ridge *indicator* rather
/// than its dB height, because MUSIC peak height measures subspace
/// alignment (which decays with range and would bias the statistic
/// between differently-sized rooms) while ridge support is nearly
/// range-invariant; and the moment is taken about θ = 0 rather than the
/// centroid, so a lone off-axis body still scores (the DC line is the
/// natural "no motion" reference).
pub fn spatial_variance_profile(spec: &AngleSpectrogram) -> Vec<f64> {
    spec.power
        .iter()
        .map(|row| window_spatial_variance(&spec.thetas_deg, row))
        .collect()
}

/// The [`spatial_variance_profile`] statistic of a single window, from its
/// *linear*-power pseudospectrum row. This is the per-column kernel shared
/// by the spectrogram profile and the streaming [`CountState`], so the two
/// compute the same count statistic.
pub fn window_spatial_variance(thetas_deg: &[f64], power_row: &[f64]) -> f64 {
    thetas_deg
        .iter()
        .zip(power_row)
        .filter(|(&th, &p)| is_ridge_bin(th, p, RIDGE_THRESHOLD_DB, DC_GUARD_DEG))
        .map(|(&th, _)| th * th)
        .sum()
}

/// The single number describing a trial: `VAR[n]` averaged over the
/// duration of the experiment (§5.2).
pub fn mean_spatial_variance(spec: &AngleSpectrogram) -> f64 {
    let profile = spatial_variance_profile(spec);
    profile.iter().sum::<f64>() / profile.len() as f64
}

/// Mode 1 counting session state: each MUSIC column is folded into the
/// spatial-variance statistic as soon as its window completes, and
/// nothing is retained, so memory stays bounded by one analysis window
/// however long the device monitors. Column for column it computes
/// [`window_spatial_variance`], so it equals [`mean_spatial_variance`] of
/// the same samples' spectrogram.
#[derive(Clone, Debug)]
pub struct CountState {
    stage: SharedStreamingMusic,
    sum: f64,
}

impl CountState {
    /// Creates the state for engines built from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: &MusicConfig) -> Self {
        Self {
            stage: SharedStreamingMusic::new(cfg),
            sum: 0.0,
        }
    }

    /// The configuration this session expects of its engine.
    pub fn cfg(&self) -> &MusicConfig {
        self.stage.cfg()
    }

    /// Feeds a batch of nulled channel samples through `engine`,
    /// returning the number of new columns.
    ///
    /// # Panics
    /// Panics if `engine` was built for a different configuration.
    pub fn push(&mut self, engine: &mut MusicEngine, samples: &[Complex64]) -> usize {
        let sum = &mut self.sum;
        self.stage
            .push_with(engine, samples, |_start, thetas, row| {
                *sum += window_spatial_variance(thetas, row);
            })
    }

    /// Columns folded so far.
    pub fn n_columns(&self) -> usize {
        self.stage.n_columns()
    }

    /// The mean spatial variance over every column.
    ///
    /// # Panics
    /// Panics if no analysis window completed.
    pub fn finish(self) -> f64 {
        let n = self.stage.n_columns();
        assert!(n > 0, "no spectrogram columns accumulated");
        self.sum / n as f64
    }
}

/// A threshold classifier over spatial variance, trained on labelled
/// trials ("Wi-Vi uses a training set and a testing set to learn the
/// thresholds that separate the spatial variances corresponding to 0, 1,
/// 2, or 3 humans", §5.2).
#[derive(Clone, Debug)]
pub struct VarianceClassifier {
    /// `thresholds[k]` separates class `k` from class `k+1`.
    thresholds: Vec<f64>,
    n_classes: usize,
}

impl VarianceClassifier {
    /// Trains thresholds from `(true_count, mean_variance)` samples.
    /// The threshold between consecutive classes is the midpoint of the
    /// class means.
    ///
    /// # Panics
    /// Panics unless every class `0..n_classes` has at least one sample.
    pub fn train(samples: &[(usize, f64)], n_classes: usize) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        let mut sums = vec![0.0; n_classes];
        let mut counts = vec![0usize; n_classes];
        for &(label, var) in samples {
            assert!(label < n_classes, "label {label} out of range");
            sums[label] += var;
            counts[label] += 1;
        }
        let means: Vec<f64> = (0..n_classes)
            .map(|k| {
                assert!(counts[k] > 0, "no training samples for class {k}");
                sums[k] / counts[k] as f64
            })
            .collect();
        // Class means should already be increasing; enforce monotone
        // thresholds regardless so classification stays well-defined.
        let mut thresholds: Vec<f64> = means.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        for i in 1..thresholds.len() {
            if thresholds[i] < thresholds[i - 1] {
                thresholds[i] = thresholds[i - 1];
            }
        }
        Self {
            thresholds,
            n_classes,
        }
    }

    /// Classifies a trial's mean spatial variance into a human count.
    pub fn classify(&self, variance: f64) -> usize {
        self.thresholds
            .iter()
            .take_while(|&&t| variance > t)
            .count()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The learned thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }
}

/// A confusion matrix over human counts (`rows = actual`, `cols =
/// detected`) — Table 7.1's shape.
#[derive(Clone, Debug)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn new(n: usize) -> Self {
        Self {
            counts: vec![vec![0; n]; n],
        }
    }

    /// Records one (actual, detected) trial.
    pub fn record(&mut self, actual: usize, detected: usize) {
        let n = self.counts.len();
        self.counts[actual.min(n - 1)][detected.min(n - 1)] += 1;
    }

    /// Row-normalized percentage at (actual, detected).
    pub fn percentage(&self, actual: usize, detected: usize) -> f64 {
        let row_total: usize = self.counts[actual].iter().sum();
        if row_total == 0 {
            0.0
        } else {
            100.0 * self.counts[actual][detected] as f64 / row_total as f64
        }
    }

    /// Overall accuracy (trace / total).
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.counts.len()).map(|i| self.counts[i][i]).sum();
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Renders the Table 7.1 layout.
    pub fn render(&self) -> String {
        let n = self.counts.len();
        let mut out = String::from("actual\\detected");
        for d in 0..n {
            out.push_str(&format!("{d:>8}"));
        }
        out.push('\n');
        for a in 0..n {
            out.push_str(&format!("{a:>15} "));
            for d in 0..n {
                out.push_str(&format!("{:>7.0}%", self.percentage(a, d)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrogram::AngleSpectrogram;

    /// Builds a spectrogram with unit floor and the given (angle-index,
    /// linear power) spikes in every window.
    fn spec_with_spikes(spikes: &[(usize, f64)]) -> AngleSpectrogram {
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        for &(idx, p) in spikes {
            row[idx] = p;
        }
        AngleSpectrogram::new(thetas, vec![0.0, 1.0], vec![row.clone(), row])
    }

    #[test]
    fn dc_only_scene_has_near_zero_variance() {
        // A spike at θ = 0 (index 9) only: variance vanishes because θ²
        // weighting kills the DC.
        let spec = spec_with_spikes(&[(9, 1000.0)]);
        assert!(mean_spatial_variance(&spec) < 1e-9);
    }

    #[test]
    fn off_axis_energy_raises_variance() {
        let one = spec_with_spikes(&[(9, 1000.0), (13, 100.0)]); // +40°
        let two = spec_with_spikes(&[(9, 1000.0), (13, 100.0), (3, 100.0)]); // +40° & −60°
        let v1 = mean_spatial_variance(&one);
        let v2 = mean_spatial_variance(&two);
        assert!(v1 > 0.0);
        assert!(
            v2 > v1,
            "adding a second body must raise variance: {v1} vs {v2}"
        );
    }

    #[test]
    fn centroid_tracks_energy_side() {
        let right = spec_with_spikes(&[(14, 500.0)]); // +50°
        let c = spatial_centroid_profile(&right);
        assert!(c[0] > 5.0, "centroid {}, expected positive", c[0]);
        let left = spec_with_spikes(&[(4, 500.0)]); // −50°
        let c = spatial_centroid_profile(&left);
        assert!(c[0] < -5.0);
    }

    #[test]
    fn classifier_learns_ordered_thresholds() {
        let samples = vec![
            (0, 10.0),
            (0, 12.0),
            (1, 100.0),
            (1, 110.0),
            (2, 300.0),
            (2, 310.0),
            (3, 500.0),
            (3, 520.0),
        ];
        let clf = VarianceClassifier::train(&samples, 4);
        // Class means: 11, 105, 305, 510 → thresholds 58, 205, 407.5.
        assert_eq!(clf.classify(5.0), 0);
        assert_eq!(clf.classify(60.0), 1);
        assert_eq!(clf.classify(250.0), 2);
        assert_eq!(clf.classify(420.0), 3);
        assert_eq!(clf.classify(9_999.0), 3);
        let th = clf.thresholds();
        assert!(th.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn classifier_requires_all_classes() {
        let _ = VarianceClassifier::train(&[(0, 1.0), (2, 3.0)], 3);
    }

    #[test]
    fn confusion_matrix_percentages_and_accuracy() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        cm.record(0, 0);
        cm.record(1, 1);
        cm.record(1, 2);
        cm.record(2, 2);
        assert_eq!(cm.percentage(0, 0), 100.0);
        assert_eq!(cm.percentage(1, 1), 50.0);
        assert!((cm.accuracy() - 0.8).abs() < 1e-12);
        let r = cm.render();
        assert!(r.contains("100%"));
    }

    #[test]
    fn refactored_ridge_test_pins_original_counting_formula() {
        // `window_spatial_variance` now goes through the shared
        // `spectrogram::is_ridge_bin` kernel; this sweep pins it to the
        // original inline formula bit-for-bit so the counting statistic
        // (and every trained classifier threshold) is unchanged.
        use wivi_num::rng::Rng64;
        let thetas: Vec<f64> = (0..61).map(|i| -90.0 + 3.0 * i as f64).collect();
        let mut rng = Rng64::seed_from_u64(42);
        for _ in 0..32 {
            let row: Vec<f64> = (0..61)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        rng.gen_range(1.0, 1e4) // occasional ridge
                    } else {
                        rng.gen_range(0.0, 5.0) // grass
                    }
                })
                .collect();
            let original: f64 = thetas
                .iter()
                .zip(&row)
                .filter(|(th, &p)| {
                    th.abs() >= DC_GUARD_DEG && 10.0 * p.max(1e-30).log10() >= RIDGE_THRESHOLD_DB
                })
                .map(|(&th, _)| th * th)
                .sum();
            let refactored = window_spatial_variance(&thetas, &row);
            assert_eq!(refactored.to_bits(), original.to_bits());
        }
    }

    #[test]
    fn variance_profile_length_matches_windows() {
        let spec = spec_with_spikes(&[(9, 10.0)]);
        assert_eq!(spatial_variance_profile(&spec).len(), 2);
    }

    #[test]
    fn count_state_equals_the_spectrogram_mean_exactly() {
        use crate::isar::synthetic_target_trace;
        use crate::music::music_spectrum;
        let cfg = MusicConfig::fast_test();
        let mut trace = synthetic_target_trace(&cfg.isar, 150, 1.0, 4.0, 0.5);
        let second = synthetic_target_trace(&cfg.isar, 150, 0.8, 6.0, -0.6);
        for (a, b) in trace.iter_mut().zip(&second) {
            *a += *b;
        }
        let expect = mean_spatial_variance(&music_spectrum(&trace, &cfg));
        assert!(expect > 0.0, "trace shows no ridges to count");
        let mut engine = MusicEngine::new(cfg);
        let mut state = CountState::new(&cfg);
        for chunk in trace.chunks(16) {
            state.push(&mut engine, chunk);
        }
        assert_eq!(state.finish().to_bits(), expect.to_bits());
    }

    #[test]
    #[should_panic(expected = "no spectrogram columns")]
    fn count_state_requires_columns() {
        let _ = CountState::new(&MusicConfig::fast_test()).finish();
    }
}
