//! Streaming imaging state: batch-invariant windowing over a borrowed
//! backprojection engine.
//!
//! [`ImageState`] mirrors the MUSIC session states of
//! [`wivi_core::stage`]: only the genuinely per-session state lives here
//! (window buffer, nulling weight, tracker, retained fixes) while the
//! heavy engine — steering tables, image buffer — is borrowed per batch,
//! owned by the device entry point or cached by a serving shard. Every
//! caller emits the same frames because each feeds the same windows
//! through [`ImagingEngine::process_window_fixes`], whose output depends
//! only on the configuration, the window contents, and the nulling
//! weight.

use wivi_core::WindowBuffer;
use wivi_num::Complex64;

use crate::config::{GridSpec, ImageConfig};
use crate::engine::{ImageFix, ImagingEngine};
use crate::track2d::{
    PositionTrack, PositionTracker, PositionTrackerConfig, PositionTrackingSummary,
};

/// Everything an imaging run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ImagingReport {
    /// The imaged grid.
    pub grid: GridSpec,
    /// Window centre times, seconds.
    pub times_s: Vec<f64>,
    /// Per-window CFAR fixes, in window order.
    pub fixes: Vec<Vec<ImageFix>>,
    /// Confirmed (x, y) tracks over the run, in id order.
    pub tracks: Vec<PositionTrack>,
    /// Per-window confirmed-track count (coasting included).
    pub confirmed_counts: Vec<usize>,
}

impl ImagingReport {
    /// Assembles a report from the retained per-window fixes and the
    /// tracker's summary.
    pub fn assemble(
        grid: GridSpec,
        fixes: Vec<Vec<ImageFix>>,
        summary: PositionTrackingSummary,
    ) -> Self {
        assert_eq!(fixes.len(), summary.times_s.len(), "frame count mismatch");
        Self {
            grid,
            times_s: summary.times_s,
            fixes,
            tracks: summary.tracks,
            confirmed_counts: summary.confirmed_counts,
        }
    }

    /// Number of imaging windows processed.
    pub fn n_windows(&self) -> usize {
        self.times_s.len()
    }

    /// Total fixes across all windows.
    pub fn n_fixes(&self) -> usize {
        self.fixes.iter().map(Vec::len).sum()
    }

    /// Ids of confirmed tracks the tracker-level mirror-side vote
    /// marked as conjugate ghosts (see [`PositionTrack::mirror_of`]).
    pub fn mirror_ghost_ids(&self) -> Vec<u32> {
        self.tracks
            .iter()
            .filter(|t| t.mirror_of.is_some())
            .map(|t| t.id)
            .collect()
    }

    /// The per-window fixes with every fix that fed a mirror-ghost
    /// track removed — the view to *score* (and display) by. The raw
    /// [`Self::fixes`] are untouched: they are what the golden traces
    /// pin, and the per-window detector genuinely emitted them; the
    /// vote is hindsight only a whole track's history can provide.
    pub fn credible_fixes(&self) -> Vec<Vec<ImageFix>> {
        let mut out = self.fixes.clone();
        for ghost in self.tracks.iter().filter(|t| t.mirror_of.is_some()) {
            for p in &ghost.history {
                let Some(observed) = p.observed else { continue };
                if let Some(win) = out.get_mut(p.window) {
                    if let Some(k) = win.iter().position(|f| *f == observed) {
                        win.remove(k);
                    }
                }
            }
        }
        out
    }
}

/// Imaging session state (the fifth device mode). Every session borrows
/// an [`ImagingEngine`] per batch — one the device entry point owns, or
/// the one a serving shard caches per configuration — and passes its own
/// nulling weight; each completed aperture's CFAR fixes are retained for
/// the report and folded into the position tracker as the window
/// completes.
#[derive(Clone, Debug)]
pub struct ImageState {
    /// The full configuration this session expects of its engine.
    cfg: ImageConfig,
    tx_weight: Complex64,
    wb: WindowBuffer,
    /// Boxed: live position tracks carry whole histories.
    tracker: Box<PositionTracker>,
    fixes: Vec<Vec<ImageFix>>,
}

impl ImageState {
    /// Creates the state for engines built from `cfg`, focusing with the
    /// session's nulling weight `tx_weight` on the second transmit path.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: &ImageConfig, tx_weight: Complex64) -> Self {
        cfg.validate();
        Self {
            cfg: *cfg,
            tx_weight,
            wb: WindowBuffer::new(cfg.window, cfg.hop),
            tracker: Box::new(PositionTracker::new(PositionTrackerConfig::for_image(cfg))),
            fixes: Vec::new(),
        }
    }

    /// The configuration this session expects of its engine.
    pub fn cfg(&self) -> &ImageConfig {
        &self.cfg
    }

    /// Feeds a batch of nulled channel samples through `engine`,
    /// returning the number of new frames.
    ///
    /// # Panics
    /// Panics if `engine` was built for a different configuration.
    pub fn push(&mut self, engine: &mut ImagingEngine, samples: &[Complex64]) -> usize {
        assert_eq!(
            *engine.cfg(),
            self.cfg,
            "shared engine built for a different configuration"
        );
        let (wt, tracker, fixes) = (self.tx_weight, &mut self.tracker, &mut self.fixes);
        self.wb.push(samples, |_start, win| {
            let frame = engine.process_window_fixes(win, wt);
            tracker.push_fixes(&frame);
            fixes.push(frame);
        })
    }

    /// Imaging windows completed so far.
    pub fn n_frames(&self) -> usize {
        self.fixes.len()
    }

    /// The report over every frame (empty if no aperture filled).
    pub fn finish(self) -> ImagingReport {
        ImagingReport::assemble(self.cfg.grid, self.fixes, self.tracker.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_rf::{Point, Vec2};

    fn pacer_trace(cfg: &ImageConfig, n: usize, wt: Complex64) -> Vec<Complex64> {
        ImagingEngine::synthetic_subject_trace(
            cfg,
            n,
            Point::new(-1.8, 2.45),
            Vec2::new(1.0, 0.0),
            1.0,
            wt,
        )
    }

    /// `trace` pushed through a fresh state and engine in `batch`-sample
    /// chunks.
    fn run(cfg: &ImageConfig, wt: Complex64, trace: &[Complex64], batch: usize) -> ImagingReport {
        let mut engine = ImagingEngine::new(*cfg);
        let mut state = ImageState::new(cfg, wt);
        for chunk in trace.chunks(batch) {
            state.push(&mut engine, chunk);
        }
        state.finish()
    }

    #[test]
    fn state_is_batch_shape_invariant() {
        let cfg = ImageConfig::fast_test();
        let wt = Complex64::new(-0.8, 0.4);
        let trace = pacer_trace(&cfg, cfg.window + 3 * cfg.hop, wt);

        let one_batch = run(&cfg, wt, &trace, trace.len());
        assert_eq!(one_batch.n_windows(), 4);
        for batch in [1usize, 17, 160] {
            assert_eq!(run(&cfg, wt, &trace, batch), one_batch, "batch {batch}");
        }
    }

    #[test]
    fn frames_appear_incrementally() {
        let cfg = ImageConfig::fast_test();
        let wt = Complex64::ONE;
        let trace = pacer_trace(&cfg, cfg.window + cfg.hop, wt);
        let mut engine = ImagingEngine::new(cfg);
        let mut state = ImageState::new(&cfg, wt);
        assert_eq!(state.push(&mut engine, &trace[..cfg.window - 1]), 0);
        assert_eq!(state.n_frames(), 0);
        assert_eq!(
            state.push(&mut engine, &trace[cfg.window - 1..cfg.window]),
            1
        );
        assert_eq!(state.push(&mut engine, &trace[cfg.window..]), 1);
        assert_eq!(state.n_frames(), 2);
    }

    #[test]
    fn interleaved_sessions_on_one_engine_equal_each_session_alone() {
        let cfg = ImageConfig::fast_test();
        let wts = [Complex64::new(0.9, -0.2), Complex64::new(-1.1, 0.3)];
        let n = cfg.window + 2 * cfg.hop;
        let traces = [pacer_trace(&cfg, n, wts[0]), {
            ImagingEngine::synthetic_subject_trace(
                &cfg,
                n,
                Point::new(1.9, 3.4),
                Vec2::new(-1.0, 0.0),
                0.7,
                wts[1],
            )
        }];

        let mut engine = ImagingEngine::new(cfg);
        let mut shared = [ImageState::new(&cfg, wts[0]), ImageState::new(&cfg, wts[1])];
        let chunk = 23;
        for lo in (0..n).step_by(chunk) {
            let hi = (lo + chunk).min(n);
            for s in 0..2 {
                shared[s].push(&mut engine, &traces[s][lo..hi]);
            }
        }
        for (s, state) in shared.into_iter().enumerate() {
            let alone = run(&cfg, wts[s], &traces[s], n);
            assert_eq!(alone.n_windows(), 3);
            assert_eq!(state.finish(), alone, "session {s} diverged");
        }
    }

    #[test]
    fn credible_fixes_drop_exactly_the_ghost_tracks_observations() {
        use crate::track2d::{PositionTracker, PositionTrackerConfig};

        let cfg = ImageConfig::fast_test();
        let tcfg = PositionTrackerConfig::for_image(&cfg);
        let mut tracker = PositionTracker::new(tcfg);
        let mk = |x: f64, y: f64| ImageFix {
            x_m: x,
            y_m: y,
            power_db: -30.0,
            snr_db: 12.0,
            ix: 0,
            iy: 0,
        };
        let mut fixes: Vec<Vec<ImageFix>> = Vec::new();
        let dt = tcfg.window_dt_s();
        for k in 0..10 {
            let x = -2.0 + 0.8 * k as f64 * dt;
            let mut frame = vec![mk(x, 2.0)];
            if k < 4 {
                frame.push(mk(-x, 2.0)); // mirror-side error windows
            }
            tracker.push_fixes(&frame);
            fixes.push(frame);
        }
        let report = ImagingReport::assemble(cfg.grid, fixes, tracker.finish());

        let ghosts = report.mirror_ghost_ids();
        assert_eq!(ghosts.len(), 1, "expected exactly one voted ghost");
        let credible = report.credible_fixes();
        // Raw fixes keep everything (the golden-trace view)…
        assert_eq!(report.n_fixes(), 14);
        // …while the credible view drops exactly the ghost's matched
        // observations and keeps every real fix.
        let ghost = report
            .tracks
            .iter()
            .find(|t| t.mirror_of.is_some())
            .unwrap();
        let dropped = ghost
            .history
            .iter()
            .filter(|p| p.observed.is_some())
            .count();
        let credible_total: usize = credible.iter().map(Vec::len).sum();
        assert_eq!(credible_total, report.n_fixes() - dropped);
        for (w, win) in credible.iter().enumerate() {
            assert!(
                win.iter()
                    .any(|f| (f.x_m - (-2.0 + 0.8 * w as f64 * dt)).abs() < 1e-9),
                "window {w} lost its real fix"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn state_rejects_mismatched_engine() {
        let mut engine = ImagingEngine::new(ImageConfig::fast_test());
        let mut cfg = ImageConfig::fast_test();
        cfg.cfar.threshold_db += 1.0; // a non-windowing mismatch
        ImageState::new(&cfg, Complex64::ONE).push(&mut engine, &[Complex64::ZERO]);
    }
}
