//! Paper-level quality of the delivered outputs, scored against the
//! scenes' ground truth: the guard against a speed-up bought with
//! accuracy.
//!
//! * Tracking (angle domain): count accuracy — the share of windows where
//!   the confirmed-track count equals the number of movers whose ridge is
//!   clear of the DC guard (Table 7.1's statistic, via the grid scorer) —
//!   and the share of such ridges a confirmed track observed.
//! * Imaging (room domain): the share of detectable subjects with a fix
//!   within the match radius, and the mean error of those fixes.

use wivi_bench::engine::{ground_truth_thetas, score_tracking};
use wivi_bench::imaging::{ground_truth_positions, score_imaging};
use wivi_core::counting::DC_GUARD_DEG;
use wivi_core::WiViConfig;
use wivi_image::{ImageConfig, ImagingReport};
use wivi_rf::Scene;
use wivi_track::TrackingReport;

use crate::report::RunResult;

/// A confirmed track observing a detectable ridge within this many
/// degrees counts as a detection.
pub const DETECT_GATE_DEG: f64 = 10.0;

/// Imaging windows excluded from scoring (as the imaging bench does).
const IMAGING_WARMUP_WINDOWS: usize = 1;

/// Quality pooled over a set of sessions.
#[derive(Clone, Debug, Default)]
pub struct Quality {
    count_sum: f64,
    tracking_sessions: usize,
    ridges_seen: usize,
    ridges: usize,
    subjects_seen: usize,
    subjects: usize,
    errors_m: Vec<f64>,
}

impl Quality {
    /// Scores one tracking report against `scene`'s trajectories.
    pub fn add_tracking(&mut self, scene: &Scene, cfg: &WiViConfig, rep: &TrackingReport) {
        let gt = ground_truth_thetas(scene, cfg, &rep.times_s);
        let latency = rep.cfg.confirm_hits + wivi_track::tracker::DOMINANCE_GAP_WINDOW;
        self.count_sum += score_tracking(rep, &gt, latency).0;
        self.tracking_sessions += 1;
        for (w, row) in gt.iter().enumerate().skip(latency) {
            for &theta in row {
                if theta.abs() < DC_GUARD_DEG + 3.0 {
                    continue;
                }
                self.ridges += 1;
                let seen = rep.tracks.iter().any(|t| {
                    t.point_at(w)
                        .and_then(|p| p.observed)
                        .is_some_and(|z| (z - theta).abs() <= DETECT_GATE_DEG)
                });
                if seen {
                    self.ridges_seen += 1;
                }
            }
        }
    }

    /// Scores one imaging report against `scene`'s positions.
    pub fn add_imaging(&mut self, scene: &Scene, icfg: &ImageConfig, rep: &ImagingReport) {
        let gt = ground_truth_positions(scene, &rep.times_s);
        let s = score_imaging(rep, &gt, icfg.rx.x, IMAGING_WARMUP_WINDOWS);
        self.subjects += s.n_detectable;
        self.subjects_seen += s.n_detected;
        self.errors_m.extend(s.errors_m);
    }

    /// Mean count accuracy over the tracking sessions.
    pub fn count_accuracy(&self) -> f64 {
        self.count_sum / self.tracking_sessions.max(1) as f64
    }

    /// Share of detectable ridges a confirmed track observed.
    pub fn ridge_detection(&self) -> f64 {
        ratio(self.ridges_seen, self.ridges)
    }

    /// Share of detectable subjects fixed within the match radius.
    pub fn fix_detection(&self) -> f64 {
        ratio(self.subjects_seen, self.subjects)
    }

    /// Mean localization error of the matched fixes, metres.
    pub fn loc_error_m(&self) -> f64 {
        self.errors_m.iter().sum::<f64>() / self.errors_m.len().max(1) as f64
    }

    /// Sets the quality metrics of the layers that produced output.
    pub fn report(&self, out: &mut RunResult) {
        if self.tracking_sessions > 0 {
            out.set("track.count_accuracy", self.count_accuracy());
            out.set("track.detection_rate", self.ridge_detection());
        }
        if self.subjects > 0 {
            out.set("image.detection_rate", self.fix_detection());
            out.set("image.loc_error_m", self.loc_error_m());
        }
    }

    /// One-line summary for the run's notes.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.tracking_sessions > 0 {
            parts.push(format!(
                "{} tracking sessions: count accuracy {:.4}, {}/{} ridges tracked",
                self.tracking_sessions,
                self.count_accuracy(),
                self.ridges_seen,
                self.ridges
            ));
        }
        if self.subjects > 0 {
            parts.push(format!(
                "imaging: {}/{} subjects fixed, mean error {:.4} m",
                self.subjects_seen,
                self.subjects,
                self.loc_error_m()
            ));
        }
        format!("quality: {}", parts.join("; "))
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}
