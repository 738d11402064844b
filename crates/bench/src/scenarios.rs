//! Workload generators for the paper's experiments.
//!
//! Encodes the experimental setup of §7.2: two conference rooms (7 × 4 m
//! and 11 × 7 m) with standard office furniture behind 6″ hollow walls,
//! the device 1 m in front of a windowless wall; 8 volunteer subjects of
//! varying gait; trials of people "moving at will" (counting) or standing
//! at parametric distance performing gestures (communication).

use wivi_num::rng::Rng64;

use wivi_core::device::DEFAULT_BATCH_LEN;
use wivi_core::gesture::GestureDecode;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_rf::{
    BodyConfig, ConfinedRandomWalk, GestureScript, GestureStyle, Material, Mover, Point, Rect,
    Scene, Vec2, WaypointWalker,
};

/// Which of the two §7.2 conference rooms a trial runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Room {
    /// 7 × 4 m.
    Small,
    /// 11 × 7 m.
    Large,
}

impl Room {
    /// Room rectangle behind the wall.
    pub fn rect(self) -> Rect {
        match self {
            Room::Small => Scene::conference_room_small(),
            Room::Large => Scene::conference_room_large(),
        }
    }
}

/// Duration of the paper's counting experiments (§7.4: "each experiment
/// lasts for 25 seconds excluding the time required for iterative
/// nulling").
pub const COUNTING_TRIAL_S: f64 = 25.0;

/// Gesture-free lead-in before a subject starts signalling (covers the
/// decoder's noise-reference window).
pub const GESTURE_LEAD_IN_S: f64 = 3.0;

/// Adds `n_humans` subjects moving "at will" (seeded random walks with
/// ±20 % speed jitter and randomized gait phase) confined to `rect`.
/// Deterministic in `mix_seed` — the shared subject-population step of
/// [`counting_scene`] and the scenario engine's random-walk grids, so the
/// two can never drift apart.
pub fn add_random_walkers(
    mut scene: Scene,
    rect: Rect,
    n_humans: usize,
    mix_seed: u64,
    duration_s: f64,
) -> Scene {
    let mut rng = Rng64::seed_from_u64(mix_seed);
    for i in 0..n_humans {
        let walk_seed = rng.next_u64() ^ (i as u64);
        let speed = rng.gen_range(0.8, 1.2); // comfortable walking ±20 %
        let walk = ConfinedRandomWalk::new(rect, walk_seed, speed, duration_s + 20.0);
        let gait_phase = rng.gen_range(0.0, std::f64::consts::TAU);
        scene = scene.with_mover(Mover::with_body(walk, BodyConfig::default(), gait_phase));
    }
    scene
}

/// Builds a counting-trial scene: `n_humans` subjects moving at will in
/// `room` behind a 6″ hollow wall with office clutter. Deterministic in
/// `trial_seed`.
pub fn counting_scene(room: Room, n_humans: usize, trial_seed: u64, duration_s: f64) -> Scene {
    let rect = room.rect();
    let scene = Scene::new(Material::HollowWall6In).with_office_clutter(rect);
    add_random_walkers(
        scene,
        rect,
        n_humans,
        trial_seed.wrapping_mul(0xA24B_AED4_963E_E407),
        duration_s,
    )
}

/// Runs one counting trial end-to-end and returns its mean spatial
/// variance (the Fig. 7-3 / Table 7.1 statistic).
pub fn run_counting_trial(room: Room, n_humans: usize, trial_seed: u64, duration_s: f64) -> f64 {
    let scene = counting_scene(room, n_humans, trial_seed, duration_s);
    let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), trial_seed);
    dev.calibrate();
    dev.measure_spatial_variance_streaming(duration_s, DEFAULT_BATCH_LEN)
}

/// A deterministic multi-person tracking showcase: up to three subjects
/// on fixed crossing lanes in the small conference room, radial speeds
/// chosen so their ridges occupy well-separated angle bands
/// (≈ +49°, −30°, +20° under the paper's assumed 1 m/s). This is the
/// scene the tracking acceptance tests run: every subject moves from the
/// first sample, so ground-truth entries are at window 0 and nobody
/// exits.
///
/// # Panics
/// Panics if `n_subjects` is 0 or greater than 3.
pub fn crossing_showcase_scene(n_subjects: usize) -> Scene {
    assert!((1..=3).contains(&n_subjects), "1..=3 subjects supported");
    let mut scene =
        Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small());
    // Fast approacher: closing ≈ 0.72 m/s radially ⇒ ridge near +49°.
    scene = scene.with_mover(Mover::human(WaypointWalker::new(
        vec![Point::new(-1.4, 3.9), Point::new(-0.2, 0.7)],
        0.75,
    )));
    if n_subjects >= 2 {
        // Receder: opening ≈ 0.5 m/s ⇒ ridge near −30°.
        scene = scene.with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(0.9, 1.0), Point::new(1.7, 3.9)],
            0.5,
        )));
    }
    if n_subjects >= 3 {
        // Slow approacher: ≈ 0.34 m/s ⇒ ridge near +20°.
        scene = scene.with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(1.8, 3.6), Point::new(0.6, 0.8)],
            0.35,
        )));
    }
    scene
}

/// A gesture-communication trial (§7.5 / §7.6).
#[derive(Clone, Debug)]
pub struct GestureTrial {
    /// Obstruction between device and subject.
    pub material: Material,
    /// Subject's distance from the wall, metres.
    pub distance_m: f64,
    /// Message bits to send (two gestures per bit).
    pub bits: Vec<bool>,
    /// Subject identity (selects a [`GestureStyle`]).
    pub subject: u64,
    /// Noise/phase seed.
    pub seed: u64,
}

/// Outcome of a gesture trial.
#[derive(Clone, Debug)]
pub struct GestureOutcome {
    pub sent: Vec<bool>,
    pub decoded: Vec<Option<bool>>,
    /// SNRs of all accepted gestures, dB (two per decoded bit).
    pub gesture_snrs_db: Vec<f64>,
    /// The full decoder output (matched filter trace etc.).
    pub decode: GestureDecode,
}

impl GestureOutcome {
    /// `true` if every sent bit decoded to the correct value.
    pub fn all_correct(&self) -> bool {
        self.sent.len() <= self.decoded.len()
            && self
                .sent
                .iter()
                .zip(&self.decoded)
                .all(|(s, d)| *d == Some(*s))
            && self.decoded.len() == self.sent.len()
    }

    /// `true` if any bit decoded to the *wrong* value (the paper observed
    /// zero of these — failures must be erasures).
    pub fn any_flip(&self) -> bool {
        self.sent
            .iter()
            .zip(&self.decoded)
            .any(|(s, d)| matches!(d, Some(v) if v != s))
    }
}

impl GestureTrial {
    /// Builds the trial scene and the recording duration.
    pub fn scene(&self) -> (Scene, f64) {
        let style = GestureStyle::subject(self.subject);
        let base = Point::new(0.0, self.distance_m);
        // The subject faces the device (§6.1; Fig. 6-2(c) slant is a
        // separate experiment — see `fig6_2`).
        let script = GestureScript::for_bits(
            base,
            Vec2::new(0.0, -1.0),
            style,
            GESTURE_LEAD_IN_S,
            &self.bits,
        );
        let duration = GESTURE_LEAD_IN_S + script.duration() + 1.5;
        let scene = Scene::new(self.material)
            .with_office_clutter(Scene::conference_room_large())
            .with_mover(Mover::human(script));
        (scene, duration)
    }

    /// Runs the trial end-to-end.
    pub fn run(&self) -> GestureOutcome {
        let (scene, duration) = self.scene();
        let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), self.seed);
        dev.calibrate();
        let decode = dev.decode_gestures_streaming(duration, DEFAULT_BATCH_LEN);
        GestureOutcome {
            sent: self.bits.clone(),
            decoded: decode.bits.clone(),
            gesture_snrs_db: decode.gestures.iter().map(|g| g.snr_db).collect(),
            decode,
        }
    }
}

/// Operational nulling depth for Fig. 7-7: un-nulled static channel power
/// versus the mean residual power over a post-calibration trace (the
/// nulling the tracker actually enjoys, including slow drift).
pub fn run_nulling_trial(material: Material, trial_seed: u64, trace_s: f64) -> f64 {
    let scene = Scene::new(material).with_office_clutter(Scene::conference_room_small());
    let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), trial_seed);
    let unnulled = dev.calibrate().unnulled_power;
    let trace = dev.record_trace(trace_s);
    let mean_power = trace.iter().map(|z| z.norm_sqr()).sum::<f64>() / trace.len() as f64;
    10.0 * (unnulled / mean_power.max(1e-300)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_scene_has_requested_humans() {
        let s = counting_scene(Room::Small, 3, 7, 10.0);
        assert_eq!(s.movers.len(), 3);
        assert!(!s.clutter.is_empty());
    }

    #[test]
    fn counting_scene_is_deterministic() {
        let a = counting_scene(Room::Small, 2, 9, 10.0);
        let b = counting_scene(Room::Small, 2, 9, 10.0);
        for t in [0.0, 1.0, 5.0] {
            assert_eq!(a.movers[0].position(t), b.movers[0].position(t));
            assert_eq!(a.movers[1].position(t), b.movers[1].position(t));
        }
    }

    #[test]
    fn gesture_trial_scene_places_subject_at_distance() {
        let trial = GestureTrial {
            material: Material::HollowWall6In,
            distance_m: 5.0,
            bits: vec![false],
            subject: 1,
            seed: 1,
        };
        let (scene, duration) = trial.scene();
        assert_eq!(scene.movers.len(), 1);
        let p = scene.movers[0].position(0.0);
        assert!((p.y - 5.0).abs() < 1e-9);
        assert!(duration > GESTURE_LEAD_IN_S);
    }

    #[test]
    fn outcome_classification() {
        let mk = |sent: Vec<bool>, decoded: Vec<Option<bool>>| GestureOutcome {
            sent,
            decoded,
            gesture_snrs_db: vec![],
            decode: GestureDecode {
                track: vec![],
                matched: vec![],
                times_s: vec![],
                gestures: vec![],
                bits: vec![],
            },
        };
        assert!(mk(vec![true], vec![Some(true)]).all_correct());
        assert!(!mk(vec![true], vec![None]).all_correct());
        assert!(!mk(vec![true], vec![None]).any_flip());
        assert!(mk(vec![true], vec![Some(false)]).any_flip());
        assert!(!mk(vec![true], vec![]).all_correct());
    }
}
