//! Position tracking over per-window image fixes: the imaging
//! counterpart of `wivi-track`'s angle tracker, built on the same
//! kernels — gated globally-optimal assignment
//! ([`wivi_num::solve_assignment`]) and the constant-velocity
//! [`wivi_num::Kalman2`], one filter per coordinate (the CV model is
//! separable, so two independent 2-state filters are exactly the 4-state
//! (x, y, ẋ, ẏ) filter with block-diagonal covariance). Tracks carry
//! room positions in metres instead of bare angles.
//!
//! The lifecycle is the proven subset of the angle tracker's:
//! `Tentative → Confirmed → Coasting ⇄ Confirmed … → Dead`, with
//! tentative tracks dying on their first miss and only confirmed tracks
//! reported. The dominance/continuity announcement veto is *not* carried
//! over: the CFAR detector already thresholds against local noise, and
//! mirror ghosts are suppressed at fix extraction.
//!
//! Everything is a pure deterministic function of the fix sequence, so
//! the tracks are bitwise identical however the samples were batched —
//! the same contract every session state honours.

use wivi_num::{solve_assignment, Kalman2};

use crate::config::ImageConfig;
use crate::engine::ImageFix;

/// Position-tracker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionTrackerConfig {
    /// Hard association gate: a fix farther than this many metres from a
    /// track's predicted position can never match it.
    pub gate_m: f64,
    /// Statistical gate on the summed normalized innovation squared
    /// (χ² with 2 dof; 11.8 ≈ a 3σ gate). Doubles as the miss cost.
    pub gate_nis: f64,
    /// White-acceleration PSD per axis, m²/s³.
    pub process_noise: f64,
    /// Measurement noise variance per axis, m² (sub-cell refinement
    /// leaves roughly half a cell of uncertainty).
    pub measurement_var: f64,
    /// Initial position variance of a newborn track, m².
    pub init_pos_var: f64,
    /// Initial velocity variance of a newborn track, (m/s)².
    pub init_vel_var: f64,
    /// Matched windows before a tentative track is confirmed.
    pub confirm_hits: usize,
    /// Consecutive misses a confirmed track survives (coasting) before
    /// it dies.
    pub max_misses: usize,
    /// Analysis-window length in channel samples (timing only).
    pub window_len: usize,
    /// Hop between windows, channel samples.
    pub hop: usize,
    /// Channel sampling period, seconds.
    pub sample_period_s: f64,
    /// The boresight (mirror) axis `x`, metres — the receive antenna's
    /// x. A target at `(x, y)` leaves its conjugate ghost near the
    /// reflection of `x` across this axis.
    pub mirror_axis_x_m: f64,
    /// Track-pair tolerance of the mirror-side vote, metres
    /// (0 disables): two confirmed tracks whose per-window positions
    /// reflect each other across the axis within this tolerance form a
    /// mirror pair, and the vote marks the weaker member a ghost (see
    /// [`PositionTrack::mirror_of`]).
    pub mirror_vote_tol_m: f64,
}

/// Fraction of a mirror pair's jointly observed windows that must vote
/// "mirrored" before the pair is declared real + ghost (per-window
/// side flips are noisy; a supermajority is required).
const MIRROR_VOTE_MAJORITY: f64 = 0.7;

/// Minimum jointly observed windows before the vote is meaningful.
/// Ghost tracks are short — the joint-LS errs in bursts of a few
/// windows — so the floor is the tracker's own confirmation bar, not
/// a long overlap.
const MIRROR_VOTE_MIN_COMMON: usize = 2;

/// Range-axis (y) slack factor of the pair test: the range axis is
/// several times coarser than azimuth and limb micro-Doppler smears a
/// body's focused blob along it, so a mirrored pair's y values differ
/// by more than their x values reflect. Must stay below the showcase
/// lane separation (1.4 m) over the default tolerance so two real
/// subjects on mirrored lanes never pair.
const MIRROR_VOTE_Y_SLACK: f64 = 1.2;

/// Window slack of the pair test: a ghost fix is compared against the
/// real track's observed positions up to this many windows away. In
/// exactly the windows whose body fix flipped sides, the real track has
/// no body fix of its own (it coasted, or latched a limb artefact), so
/// the ghost must be matched against where the body track was *around*
/// the flip, not at it.
const MIRROR_VOTE_WINDOW_SLACK: usize = 1;

/// Boresight guard of the vote, metres: side decisions anchored closer
/// than this to the mirror axis are not counted. Near the axis the two
/// mirror hypotheses collapse into one (the per-window joint solve
/// itself bails there as indistinguishable), and a subject *crossing*
/// the axis legitimately leaves an axis-adjacent mirror-looking track
/// pair — votes there would suppress real detections, not ghosts.
const MIRROR_VOTE_AXIS_GUARD_M: f64 = 1.5;

impl PositionTrackerConfig {
    /// A tracker matched to an imaging configuration: window timing from
    /// the aperture, measurement noise from the cell size.
    pub fn for_image(cfg: &ImageConfig) -> Self {
        // Gate and noise scales follow the coarser (range) axis — the
        // azimuth axis is finer, never worse.
        let cell = cfg.grid.cell_x_m.max(cfg.grid.cell_y_m);
        Self {
            gate_m: 3.0 * cell,
            gate_nis: 11.8,
            process_noise: 1.0,
            measurement_var: (cell / 2.0) * (cell / 2.0),
            init_pos_var: cell * cell,
            init_vel_var: 1.0,
            confirm_hits: 2,
            max_misses: 3,
            window_len: cfg.window,
            hop: cfg.hop,
            sample_period_s: cfg.sample_period_s,
            mirror_axis_x_m: cfg.rx.x,
            // Track-level positions carry range smear the per-window
            // detector's sub-cell fixes do not, so the vote's tolerance
            // is the coarse-axis cell pitch (2 cells), not the
            // detector's mirror_tol_m.
            mirror_vote_tol_m: if cfg.mirror_tol_m > 0.0 {
                2.0 * cell
            } else {
                0.0
            },
        }
    }

    /// Centre time of analysis window `k` — the same expression
    /// [`ImageConfig::window_center_s`] uses.
    pub fn window_time_s(&self, k: usize) -> f64 {
        ((k * self.hop) as f64 + self.window_len as f64 / 2.0) * self.sample_period_s
    }

    /// Time between consecutive windows, seconds.
    pub fn window_dt_s(&self) -> f64 {
        self.hop as f64 * self.sample_period_s
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.gate_m > 0.0 && self.gate_nis > 0.0);
        assert!(self.process_noise > 0.0 && self.measurement_var > 0.0);
        assert!(self.init_pos_var > 0.0 && self.init_vel_var > 0.0);
        assert!(self.confirm_hits >= 1, "confirm_hits must be at least 1");
        assert!(self.window_len >= 1 && self.hop >= 1);
        assert!(self.sample_period_s > 0.0);
        assert!(self.mirror_axis_x_m.is_finite());
        assert!(self.mirror_vote_tol_m >= 0.0);
    }
}

/// Lifecycle state of a position track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PositionTrackStatus {
    /// Newborn; dies on its first miss, never reported.
    Tentative,
    /// Seen `confirm_hits` windows — a localized person.
    Confirmed,
    /// Confirmed but currently unobserved; propagates on prediction.
    Coasting,
    /// Exhausted the miss budget.
    Dead,
}

/// One window of a position track's trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionPoint {
    /// Analysis-window index.
    pub window: usize,
    /// Window centre time, seconds.
    pub time_s: f64,
    /// Filtered position, metres.
    pub x_m: f64,
    pub y_m: f64,
    /// Filtered velocity, m/s.
    pub vx: f64,
    pub vy: f64,
    /// The fix this window matched, if the track was observed.
    pub observed: Option<ImageFix>,
}

/// One target's track through the room.
#[derive(Clone, Debug, PartialEq)]
pub struct PositionTrack {
    /// Stable identity, assigned at birth in spawn order.
    pub id: u32,
    /// Window of the first fix.
    pub born_window: usize,
    /// Window at which the track reached confirmation, if ever.
    pub confirmed_window: Option<usize>,
    /// Window of the most recent fix.
    pub last_observed_window: usize,
    pub status: PositionTrackStatus,
    /// Per-axis Kalman state as of the last processed window.
    pub kx: Kalman2,
    pub ky: Kalman2,
    /// Consecutive windows without a matched fix.
    pub misses: usize,
    /// Total windows with a matched fix.
    pub observed_windows: usize,
    /// Set by the mirror-side vote at [`PositionTracker::finish`]: the
    /// id of the (stronger) track this one is the conjugate ghost of.
    /// The per-window joint-LS mirror resolution occasionally picks the
    /// wrong side, and those error windows accrete into a track on the
    /// mirrored trajectory; across windows the errors flip side while a
    /// real target's fixes keep feeding one track, so the track that
    /// wins the per-window majority is real and the loser is marked
    /// here. Ghost tracks stay in the report (nothing pinned changes) —
    /// consumers filter with
    /// [`ImagingReport::credible_fixes`](crate::ImagingReport::credible_fixes).
    pub mirror_of: Option<u32>,
    /// One point per window from birth.
    pub history: Vec<PositionPoint>,
}

impl PositionTrack {
    /// Predicted position, metres.
    pub fn position(&self) -> (f64, f64) {
        (self.kx.predicted(), self.ky.predicted())
    }

    /// Number of windows the track spans.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// `true` if the track never recorded a point (not possible for
    /// reported tracks).
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Mean observed position over the track's matched windows.
    pub fn mean_observed(&self) -> Option<(f64, f64)> {
        let obs: Vec<&ImageFix> = self
            .history
            .iter()
            .filter_map(|p| p.observed.as_ref())
            .collect();
        if obs.is_empty() {
            return None;
        }
        let n = obs.len() as f64;
        Some((
            obs.iter().map(|f| f.x_m).sum::<f64>() / n,
            obs.iter().map(|f| f.y_m).sum::<f64>() / n,
        ))
    }
}

/// Everything a position-tracking run produced (the tracker half of the
/// [`crate::ImagingReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PositionTrackingSummary {
    /// Every confirmed track, in id (birth) order.
    pub tracks: Vec<PositionTrack>,
    /// Per-window count of confirmed tracks (coasting included).
    pub confirmed_counts: Vec<usize>,
    /// Window centre times, seconds.
    pub times_s: Vec<f64>,
}

/// The streaming position tracker: feed it each window's fixes, drain
/// the summary with [`Self::finish`].
#[derive(Clone, Debug)]
pub struct PositionTracker {
    cfg: PositionTrackerConfig,
    /// Live tracks in birth order (determinism relies on stable order).
    live: Vec<PositionTrack>,
    /// Retired tracks that reached confirmation.
    finished: Vec<PositionTrack>,
    next_id: u32,
    window: usize,
    confirmed_counts: Vec<usize>,
    times_s: Vec<f64>,
    /// Scratch: per-track × per-fix gated costs.
    costs: Vec<Vec<f64>>,
}

impl PositionTracker {
    /// Creates a tracker.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: PositionTrackerConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            live: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            window: 0,
            confirmed_counts: Vec::new(),
            times_s: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &PositionTrackerConfig {
        &self.cfg
    }

    /// Windows processed so far.
    pub fn n_windows(&self) -> usize {
        self.window
    }

    /// Live tracks (any status), in birth order.
    pub fn live_tracks(&self) -> &[PositionTrack] {
        &self.live
    }

    /// Current confirmed-track count (coasting included).
    pub fn confirmed_count(&self) -> usize {
        *self.confirmed_counts.last().unwrap_or(&0)
    }

    /// Processes one window's fixes: predict → associate → update →
    /// lifecycle → spawn.
    pub fn push_fixes(&mut self, fixes: &[ImageFix]) {
        let w = self.window;
        let t = self.cfg.window_time_s(w);
        let dt = self.cfg.window_dt_s();
        let r = self.cfg.measurement_var;

        // 1. Predict.
        if w > 0 {
            for tr in &mut self.live {
                tr.kx.predict(dt, self.cfg.process_noise);
                tr.ky.predict(dt, self.cfg.process_noise);
            }
        }

        // 2. Associate: gated per-axis NIS sums, optimal assignment,
        //    misses priced at the gate.
        self.costs.clear();
        for tr in &self.live {
            let row: Vec<f64> = fixes
                .iter()
                .map(|f| {
                    let (px, py) = tr.position();
                    let dist = (f.x_m - px).hypot(f.y_m - py);
                    let nis = tr.kx.gate_distance2(f.x_m, r) + tr.ky.gate_distance2(f.y_m, r);
                    if dist <= self.cfg.gate_m && nis <= self.cfg.gate_nis {
                        nis
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            self.costs.push(row);
        }
        let miss = vec![self.cfg.gate_nis; self.live.len()];
        let assignment = solve_assignment(&self.costs, &miss);

        // 3. Update matched tracks, age unmatched ones.
        let mut fix_used = vec![false; fixes.len()];
        let mut retired: Vec<usize> = Vec::new();
        for (i, tr) in self.live.iter_mut().enumerate() {
            match assignment.pairing[i] {
                Some(j) => {
                    fix_used[j] = true;
                    tr.kx.update(fixes[j].x_m, r);
                    tr.ky.update(fixes[j].y_m, r);
                    tr.misses = 0;
                    tr.observed_windows += 1;
                    tr.last_observed_window = w;
                    if tr.status == PositionTrackStatus::Coasting {
                        tr.status = PositionTrackStatus::Confirmed;
                    } else if tr.status == PositionTrackStatus::Tentative
                        && tr.observed_windows >= self.cfg.confirm_hits
                    {
                        tr.status = PositionTrackStatus::Confirmed;
                        tr.confirmed_window = Some(w);
                    }
                    record_position(tr, w, t, Some(fixes[j]));
                }
                None => {
                    tr.misses += 1;
                    match tr.status {
                        PositionTrackStatus::Tentative => {
                            tr.status = PositionTrackStatus::Dead;
                            retired.push(i);
                        }
                        PositionTrackStatus::Confirmed | PositionTrackStatus::Coasting => {
                            tr.status = PositionTrackStatus::Coasting;
                            if tr.misses > self.cfg.max_misses {
                                tr.status = PositionTrackStatus::Dead;
                                retired.push(i);
                            } else {
                                record_position(tr, w, t, None);
                            }
                        }
                        PositionTrackStatus::Dead => unreachable!("dead tracks are retired"),
                    }
                }
            }
        }
        for &i in retired.iter().rev() {
            let tr = self.live.remove(i);
            if tr.confirmed_window.is_some() {
                self.finished.push(tr);
            }
        }

        // 4. Spawn tentative tracks from unmatched fixes.
        for (j, f) in fixes.iter().enumerate() {
            if fix_used[j] {
                continue;
            }
            let kx = Kalman2::from_observation(f.x_m, self.cfg.init_pos_var, self.cfg.init_vel_var);
            let ky = Kalman2::from_observation(f.y_m, self.cfg.init_pos_var, self.cfg.init_vel_var);
            let confirmed = self.cfg.confirm_hits == 1;
            let mut tr = PositionTrack {
                id: self.next_id,
                born_window: w,
                confirmed_window: confirmed.then_some(w),
                last_observed_window: w,
                status: if confirmed {
                    PositionTrackStatus::Confirmed
                } else {
                    PositionTrackStatus::Tentative
                },
                kx,
                ky,
                misses: 0,
                observed_windows: 1,
                mirror_of: None,
                history: Vec::new(),
            };
            record_position(&mut tr, w, t, Some(*f));
            self.next_id += 1;
            self.live.push(tr);
        }

        // 5. Bookkeeping.
        let count = self
            .live
            .iter()
            .filter(|tr| tr.confirmed_window.is_some())
            .count();
        self.confirmed_counts.push(count);
        self.times_s.push(t);
        self.window += 1;
    }

    /// Finalizes the run: confirmed tracks only, id order, with the
    /// mirror-side vote annotating conjugate ghosts; tracks alive at
    /// the end keep their final status.
    pub fn finish(mut self) -> PositionTrackingSummary {
        let mut tracks = std::mem::take(&mut self.finished);
        for tr in self.live {
            if tr.confirmed_window.is_some() {
                tracks.push(tr);
            }
        }
        tracks.sort_by_key(|t| t.id);
        vote_mirror_sides(&mut tracks, &self.cfg);
        PositionTrackingSummary {
            tracks,
            confirmed_counts: self.confirmed_counts,
            times_s: self.times_s,
        }
    }
}

/// The tracker-level mirror disambiguation. Every window where two
/// tracks were both fed a fix is one joint-LS side decision; the pair
/// votes "mirrored" when those fixes reflect each other across the
/// boresight axis (x reflects within the tolerance; y — the coarse,
/// micro-Doppler-smeared range axis — gets proportional slack). A
/// supermajority of mirrored windows means the pair is one target plus
/// its conjugate ghost: the joint-LS side choice flips window-to-window
/// for the ghost (it is fed only by the resolution's error windows)
/// while the real target's track is fed consistently — so the member
/// holding a clear fix majority (`observed_windows`, ≥ 2×) is real and
/// the other is marked [`PositionTrack::mirror_of`] it. A pair without
/// that dominance — e.g. two genuinely mirror-symmetric subjects — is
/// left alone. Pure function of the track set, so serving stays
/// bitwise identical to standalone.
fn vote_mirror_sides(tracks: &mut [PositionTrack], cfg: &PositionTrackerConfig) {
    let tol = cfg.mirror_vote_tol_m;
    if tol <= 0.0 {
        return;
    }
    let axis2 = 2.0 * cfg.mirror_axis_x_m;
    for i in 0..tracks.len() {
        for j in (i + 1)..tracks.len() {
            // A track already voted a ghost cannot claim others (its
            // mirror is the real target it shadows).
            if tracks[i].mirror_of.is_some() || tracks[j].mirror_of.is_some() {
                continue;
            }
            // Only a clearly weaker partner can be a ghost: error
            // windows are the minority by construction.
            let (oi, oj) = (tracks[i].observed_windows, tracks[j].observed_windows);
            if 2 * oi.min(oj) > oi.max(oj) {
                continue;
            }
            let ghost = if oi >= oj { j } else { i };
            let real = i + j - ghost;
            // Each of the candidate ghost's observed windows is one
            // joint-LS side decision: it votes "mirrored" when the real
            // track holds a nearby observed position whose reflection
            // matches it.
            let (mut common, mut mirrored) = (0usize, 0usize);
            for pg in tracks[ghost]
                .history
                .iter()
                .filter(|p| p.observed.is_some())
            {
                let neighbors: Vec<&PositionPoint> = tracks[real]
                    .history
                    .iter()
                    .filter(|p| {
                        p.observed.is_some()
                            && p.window.abs_diff(pg.window) <= MIRROR_VOTE_WINDOW_SLACK
                            && (p.x_m - cfg.mirror_axis_x_m).abs() >= MIRROR_VOTE_AXIS_GUARD_M
                    })
                    .collect();
                if neighbors.is_empty() {
                    continue;
                }
                common += 1;
                if neighbors.iter().any(|pr| {
                    (pg.x_m + pr.x_m - axis2).abs() <= tol
                        && (pg.y_m - pr.y_m).abs() <= MIRROR_VOTE_Y_SLACK * tol
                }) {
                    mirrored += 1;
                }
            }
            if common < MIRROR_VOTE_MIN_COMMON
                || (mirrored as f64) < MIRROR_VOTE_MAJORITY * common as f64
            {
                continue;
            }
            tracks[ghost].mirror_of = Some(tracks[real].id);
        }
    }
}

/// Appends one window to `tr`'s history.
fn record_position(tr: &mut PositionTrack, w: usize, t: f64, observed: Option<ImageFix>) {
    tr.history.push(PositionPoint {
        window: w,
        time_s: t,
        x_m: tr.kx.predicted(),
        y_m: tr.ky.predicted(),
        vx: tr.kx.velocity(),
        vy: tr.ky.velocity(),
        observed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PositionTrackerConfig {
        PositionTrackerConfig::for_image(&ImageConfig::fast_test())
    }

    fn fix(x: f64, y: f64) -> ImageFix {
        ImageFix {
            x_m: x,
            y_m: y,
            power_db: -30.0,
            snr_db: 12.0,
            ix: 0,
            iy: 0,
        }
    }

    #[test]
    fn steady_subject_confirms_and_tracks() {
        let mut tk = PositionTracker::new(cfg());
        for k in 0..8 {
            let t = k as f64 * tk.cfg.window_dt_s();
            tk.push_fixes(&[fix(-1.0 + 0.8 * t, 2.5)]);
        }
        assert_eq!(tk.confirmed_count(), 1);
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 1);
        let tr = &s.tracks[0];
        assert_eq!(tr.observed_windows, 8);
        assert!(tr.confirmed_window.is_some());
        // Velocity learned ≈ (0.8, 0) m/s.
        assert!(
            (tr.kx.velocity() - 0.8).abs() < 0.3,
            "vx {}",
            tr.kx.velocity()
        );
        assert!(tr.ky.velocity().abs() < 0.3);
        assert_eq!(s.confirmed_counts.len(), 8);
        assert_eq!(s.times_s.len(), 8);
    }

    #[test]
    fn single_window_flicker_is_never_reported() {
        let mut tk = PositionTracker::new(cfg());
        tk.push_fixes(&[fix(0.0, 2.0)]);
        for _ in 0..4 {
            tk.push_fixes(&[]);
        }
        let s = tk.finish();
        assert!(s.tracks.is_empty());
        assert!(s.confirmed_counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn two_subjects_keep_identities_through_parallel_motion() {
        let mut tk = PositionTracker::new(cfg());
        for k in 0..10 {
            let t = k as f64 * tk.cfg.window_dt_s();
            tk.push_fixes(&[fix(-2.0 + 0.9 * t, 1.5), fix(2.0 - 0.9 * t, 3.5)]);
        }
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 2);
        // Each track's observations stay on its own lane.
        for tr in &s.tracks {
            let ys: Vec<f64> = tr
                .history
                .iter()
                .filter_map(|p| p.observed.map(|f| f.y_m))
                .collect();
            let first = ys[0];
            assert!(
                ys.iter().all(|y| (y - first).abs() < 0.1),
                "lane mixed: {ys:?}"
            );
        }
        assert_eq!(*s.confirmed_counts.last().unwrap(), 2);
        // Different lanes (Δy well past the tolerance): two real
        // subjects, the mirror vote must not touch them.
        assert!(s.tracks.iter().all(|t| t.mirror_of.is_none()));
    }

    #[test]
    fn mirror_vote_marks_the_intermittent_ghost() {
        // A real subject paces one lane; the per-window joint-LS errs
        // for a stretch of windows, feeding fixes on the conjugate side
        // (x reflected across the boresight axis, same y). The ghost
        // track those errors accrete into mirrors the real track
        // window-for-window but holds fewer observations — the vote
        // must mark it, and only it.
        let mut tk = PositionTracker::new(cfg());
        let dt = tk.cfg.window_dt_s();
        for k in 0..10 {
            let t = k as f64 * dt;
            let x = -2.0 + 0.8 * t;
            let mut fixes = vec![fix(x, 2.0)];
            if k < 4 {
                fixes.push(fix(-x, 2.0)); // the side-flip error windows
            }
            tk.push_fixes(&fixes);
        }
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 2);
        let real = s.tracks.iter().max_by_key(|t| t.observed_windows).unwrap();
        let ghost = s.tracks.iter().min_by_key(|t| t.observed_windows).unwrap();
        assert!(real.mirror_of.is_none(), "real track voted a ghost");
        assert_eq!(
            ghost.mirror_of,
            Some(real.id),
            "ghost not attributed to its real twin"
        );
    }

    #[test]
    fn mirror_vote_is_disabled_by_zero_tolerance() {
        let mut c = cfg();
        c.mirror_vote_tol_m = 0.0;
        let mut tk = PositionTracker::new(c);
        for k in 0..8 {
            let x = -1.6 + 0.3 * k as f64;
            tk.push_fixes(&[fix(x, 2.0), fix(-x, 2.0)]);
        }
        let s = tk.finish();
        assert!(s.tracks.iter().all(|t| t.mirror_of.is_none()));
    }

    #[test]
    fn coasting_bridges_a_short_fade_and_miss_budget_kills() {
        let mut tk = PositionTracker::new(cfg());
        for _ in 0..4 {
            tk.push_fixes(&[fix(1.0, 2.0)]);
        }
        // Two-window fade: the track coasts, then reacquires.
        tk.push_fixes(&[]);
        tk.push_fixes(&[]);
        assert_eq!(tk.confirmed_count(), 1);
        tk.push_fixes(&[fix(1.0, 2.0)]);
        assert_eq!(tk.live_tracks()[0].status, PositionTrackStatus::Confirmed);
        // Now exhaust the miss budget.
        for _ in 0..(tk.cfg.max_misses + 1) {
            tk.push_fixes(&[]);
        }
        assert_eq!(tk.confirmed_count(), 0);
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 1, "confirmed track must still be reported");
        assert_eq!(s.tracks[0].status, PositionTrackStatus::Dead);
    }

    #[test]
    fn tracker_is_deterministic() {
        let run = || {
            let mut tk = PositionTracker::new(cfg());
            for k in 0..6 {
                let t = k as f64 * 0.4;
                tk.push_fixes(&[fix(-1.0 + t, 2.0), fix(1.5, 3.0 - 0.3 * t)]);
            }
            tk.finish()
        };
        assert_eq!(run(), run());
    }
}
