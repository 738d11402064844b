//! The sensing modes: one radio, a closed set of read-outs.
//!
//! The paper's device is a single RF front end with a fixed set of
//! read-outs — tracking and counting (§5, §7), gesture decoding (§6) —
//! plus this repo's through-wall imaging. [`Mode`] names them, and every
//! place that dispatches on a mode is an exhaustive `match`: adding a
//! read-out means adding a variant, and the compiler then lists each
//! `match` that must learn it (session state, payload, wire encoding).
//!
//! Each mode runs the per-session state the matching `WiViDevice` entry
//! point streams. The heavy per-window engine comes from the shard
//! worker's engine pool, keyed by the same configuration values, instead
//! of being owned, and finishing drains the state into the same
//! payload. So each served session is *bitwise identical* to its
//! standalone run; the golden traces and the determinism matrix pin
//! this.
//!
//! | mode | tag | payload ([`ModeOutput`] variant) | state | device entry point |
//! |------|-----|----------------------------------|-------|--------------------|
//! | [`Mode::Track`] | `track` | `Option<AngleSpectrogram>` | [`TrackState`] | `track_streaming` |
//! | [`Mode::TrackTargets`] | `track_targets` | `TrackingReport` | [`TrackTargetsState`] | `track_targets_streaming` |
//! | [`Mode::Count`] | `count` | `Option<f64>` | [`CountState`] | `measure_spatial_variance_streaming` |
//! | [`Mode::Gestures`] | `gestures` | `Option<GestureDecode>` | [`GesturesState`] | `decode_gestures_streaming` |
//! | [`Mode::Image`] | `image` | `ImagingReport` | [`ImageState`] | `image_streaming` |
//!
//! Modes whose output needs at least one analysis window carry
//! `Option`s: a zero-duration (or immediately closed) session drains
//! cleanly with `None` instead of panicking.
//!
//! **Determinism contract.** A mode's output is a pure function of
//! `(effective config, sample stream)`: state lives in the session,
//! pooled engines hold no cross-window state, and nothing reads clocks,
//! thread ids, or global state. The serving engine inherits its bitwise
//! shard-count/submission-order invariance from this.

use wivi_core::gesture::GestureDecode;
use wivi_core::{
    AngleSpectrogram, BeamformEngine, CountState, GesturesState, IsarConfig, MusicConfig,
    MusicEngine, TrackState, WiViConfig, WiViDevice,
};
use wivi_image::{
    assert_device_geometry, nulling_tx_weight, ImageConfig, ImageState, ImagingEngine,
    ImagingReport,
};
use wivi_num::Complex64;
use wivi_track::{TrackEvent, TrackTargetsState, TrackingReport};

/// One sensing read-out of the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Retain every spectrogram column and output the full `A′[θ, n]`.
    Track,
    /// Multi-target tracking: the tracker's report, plus its
    /// entry/exit/crossing/count events in the engine's unified stream.
    TrackTargets,
    /// Fold columns into the spatial-variance counting statistic.
    Count,
    /// Beamform incrementally and decode the gesture message at close.
    Gestures,
    /// Backproject each aperture onto the room grid, CFAR-detect (x, y)
    /// fixes, and track positions.
    Image,
}

impl Mode {
    /// Every mode, in tag order.
    pub const ALL: [Mode; 5] = [
        Mode::Track,
        Mode::TrackTargets,
        Mode::Count,
        Mode::Gestures,
        Mode::Image,
    ];

    /// The stable identifier used in reports, JSON, and the wire `OPEN`.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Track => "track",
            Mode::TrackTargets => "track_targets",
            Mode::Count => "count",
            Mode::Gestures => "gestures",
            Mode::Image => "image",
        }
    }

    /// The mode whose [`tag`](Self::tag) is `tag`, if any.
    pub fn from_tag(tag: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.tag() == tag)
    }
}

/// The payload a finished session produced: one variant per [`Mode`].
/// `None` payloads mean no analysis window completed.
#[derive(Clone, Debug)]
pub enum ModeOutput {
    Track(Option<AngleSpectrogram>),
    TrackTargets(TrackingReport),
    Count(Option<f64>),
    Gestures(Option<GestureDecode>),
    Image(ImagingReport),
}

/// A payload type a [`ModeOutput`] can hold — implemented for exactly
/// the five payloads in the [module table](self), so
/// [`ModeOutput::get`] needs no run-time type information.
pub trait Payload: Sized {
    /// The payload of `out`, if `out` holds a `Self`.
    fn of(out: &ModeOutput) -> Option<&Self>;
}

macro_rules! payloads {
    ($($variant:ident => $ty:ty),* $(,)?) => {$(
        impl Payload for $ty {
            fn of(out: &ModeOutput) -> Option<&Self> {
                match out {
                    ModeOutput::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

payloads!(
    Track => Option<AngleSpectrogram>,
    TrackTargets => TrackingReport,
    Count => Option<f64>,
    Gestures => Option<GestureDecode>,
    Image => ImagingReport,
);

impl ModeOutput {
    /// The mode that produced this payload.
    pub fn mode(&self) -> Mode {
        match self {
            ModeOutput::Track(_) => Mode::Track,
            ModeOutput::TrackTargets(_) => Mode::TrackTargets,
            ModeOutput::Count(_) => Mode::Count,
            ModeOutput::Gestures(_) => Mode::Gestures,
            ModeOutput::Image(_) => Mode::Image,
        }
    }

    /// The producing mode's tag.
    pub fn tag(&self) -> &'static str {
        self.mode().tag()
    }

    /// The payload, if it is a `T`.
    pub fn get<T: Payload>(&self) -> Option<&T> {
        T::of(self)
    }

    /// The payload as a `T`.
    ///
    /// # Panics
    /// Panics (with the mode tag) if the payload is not a `T`.
    pub fn expect<T: Payload>(&self) -> &T {
        self.get::<T>().unwrap_or_else(|| {
            panic!(
                "mode '{}' output is not a {}",
                self.tag(),
                std::any::type_name::<T>()
            )
        })
    }
}

/// One session's streaming state: the per-mode state the device entry
/// point streams, pushed through the shard's pooled engines.
pub(crate) enum ModeState {
    Track(TrackState),
    TrackTargets(TrackTargetsState),
    Count(CountState),
    Gestures(GesturesState),
    Image(ImageState),
}

impl ModeState {
    /// Builds the session's state for a calibrated device. `eff` is the
    /// device's *effective* configuration (the device derives e.g. the
    /// MUSIC noise floor at construction) — the same values the
    /// standalone `*_streaming` entry points run with.
    pub(crate) fn open(mode: Mode, dev: &WiViDevice, eff: &WiViConfig) -> Self {
        match mode {
            Mode::Track => Self::Track(TrackState::new(&eff.music)),
            Mode::TrackTargets => Self::TrackTargets(TrackTargetsState::new(&eff.music)),
            Mode::Count => Self::Count(CountState::new(&eff.music)),
            Mode::Gestures => Self::Gestures(GesturesState::new(&eff.music.isar, eff.gesture)),
            Mode::Image => {
                // The derived configuration plus the session's own
                // nulling weight, with the geometry check against the
                // session's scene — exactly what `image_streaming` does.
                let icfg = ImageConfig::for_wivi(eff);
                assert_device_geometry(dev, &icfg);
                Self::Image(ImageState::new(&icfg, nulling_tx_weight(dev)))
            }
        }
    }

    /// Consumes one batch of nulled residual-channel samples.
    pub(crate) fn step(&mut self, engines: &mut EnginePool, samples: &[Complex64]) {
        match self {
            Self::Track(s) => s.push(engines.music(s.cfg()), samples),
            Self::TrackTargets(s) => s.push(engines.music(s.cfg()), samples),
            Self::Count(s) => s.push(engines.music(s.cfg()), samples),
            Self::Gestures(s) => s.push(engines.beamform(s.cfg()), samples),
            Self::Image(s) => s.push(engines.imaging(s.cfg()), samples),
        };
    }

    /// Analysis windows (spectrogram columns / imaging frames) completed
    /// so far.
    pub(crate) fn columns(&self) -> usize {
        match self {
            Self::Track(s) => s.n_columns(),
            Self::TrackTargets(s) => s.n_columns(),
            Self::Count(s) => s.n_columns(),
            Self::Gestures(s) => s.n_columns(),
            Self::Image(s) => s.n_frames(),
        }
    }

    /// Drains the session into its payload and its tracker events
    /// (session-relative times, emission order; empty for modes without
    /// an event stream).
    pub(crate) fn finish(self) -> (ModeOutput, Vec<TrackEvent>) {
        let any = self.columns() > 0;
        let out = match self {
            Self::Track(s) => ModeOutput::Track(any.then(|| s.finish())),
            Self::TrackTargets(s) => ModeOutput::TrackTargets(s.finish()),
            Self::Count(s) => ModeOutput::Count(any.then(|| s.finish())),
            Self::Gestures(s) => ModeOutput::Gestures(any.then(|| s.finish())),
            Self::Image(s) => ModeOutput::Image(s.finish()),
        };
        let events = match &out {
            ModeOutput::TrackTargets(report) => report.events.clone(),
            _ => Vec::new(),
        };
        (out, events)
    }
}

/// One worker's per-window engines, keyed by configuration: all
/// sessions on a worker that share a configuration share one resident
/// engine — one steering table, one correlation matrix, one
/// eigendecomposition workspace. Each engine is built on first use.
///
/// Engines hold no cross-window state: borrowed per batch by
/// interleaved sessions, one produces for each session exactly what a
/// privately owned engine would.
#[derive(Default)]
pub(crate) struct EnginePool {
    music: Vec<(MusicConfig, MusicEngine)>,
    beamform: Vec<(IsarConfig, BeamformEngine)>,
    imaging: Vec<(ImageConfig, ImagingEngine)>,
}

impl EnginePool {
    pub(crate) fn music(&mut self, cfg: &MusicConfig) -> &mut MusicEngine {
        resident(&mut self.music, cfg, MusicEngine::new)
    }

    pub(crate) fn beamform(&mut self, cfg: &IsarConfig) -> &mut BeamformEngine {
        resident(&mut self.beamform, cfg, BeamformEngine::new)
    }

    pub(crate) fn imaging(&mut self, cfg: &ImageConfig) -> &mut ImagingEngine {
        resident(&mut self.imaging, cfg, ImagingEngine::new)
    }

    /// Distinct engines resident — the sharing-degree telemetry (N
    /// same-config sessions still mean one engine).
    pub(crate) fn len(&self) -> usize {
        self.music.len() + self.beamform.len() + self.imaging.len()
    }
}

/// The engine in `list` for `cfg`, built with `build` on first use.
fn resident<'a, C: Copy + PartialEq, E>(
    list: &'a mut Vec<(C, E)>,
    cfg: &C,
    build: impl FnOnce(C) -> E,
) -> &'a mut E {
    let i = match list.iter().position(|(c, _)| c == cfg) {
        Some(i) => {
            hooks::cache_hit();
            i
        }
        None => {
            hooks::cache_miss();
            list.push((*cfg, build(*cfg)));
            list.len() - 1
        }
    };
    &mut list[i].1
}

/// Pool hit/miss counters on the global obs registry, `WIVI_OBS`-gated.
/// Handles are built once (registration takes a lock) and the gated
/// fast path is a static load + branch when observability is off.
mod hooks {
    use std::sync::OnceLock;
    use wivi_obs::Counter;

    fn counter(which: &str) -> Counter {
        wivi_obs::global().counter(&format!("core.engine_cache.{which}"))
    }

    #[inline]
    pub(super) fn cache_hit() {
        if !wivi_obs::enabled() {
            return;
        }
        static HITS: OnceLock<Counter> = OnceLock::new();
        HITS.get_or_init(|| counter("hits")).inc();
    }

    #[inline]
    pub(super) fn cache_miss() {
        if !wivi_obs::enabled() {
            return;
        }
        static MISSES: OnceLock<Counter> = OnceLock::new();
        MISSES.get_or_init(|| counter("misses")).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_round_trips_its_tag() {
        let tags: Vec<&str> = Mode::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(
            tags,
            ["track", "track_targets", "count", "gestures", "image"]
        );
        for m in Mode::ALL {
            assert_eq!(Mode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(Mode::from_tag("no_such_mode"), None);
    }

    #[test]
    fn mode_output_gets_only_its_own_payload() {
        let out = ModeOutput::Count(Some(1.5));
        assert_eq!(out.mode(), Mode::Count);
        assert_eq!(out.tag(), "count");
        assert_eq!(*out.expect::<Option<f64>>(), Some(1.5));
        assert!(out.get::<TrackingReport>().is_none());
    }

    #[test]
    #[should_panic(expected = "output is not a")]
    fn mode_output_expect_panics_on_wrong_type() {
        let out = ModeOutput::Count(Some(1.5));
        let _ = out.expect::<ImagingReport>();
    }

    #[test]
    fn same_config_shares_one_engine() {
        let mut pool = EnginePool::default();
        assert_eq!(pool.len(), 0);
        let cfg = MusicConfig::fast_test();
        let a = pool.music(&cfg) as *mut MusicEngine;
        let b = pool.music(&cfg) as *mut MusicEngine;
        assert_eq!(a, b, "same configuration must yield the same engine");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_configs_and_types_get_distinct_engines() {
        let mut pool = EnginePool::default();
        let cfg = MusicConfig::fast_test();
        pool.music(&cfg);
        pool.beamform(&cfg.isar);
        let stricter = MusicConfig {
            signal_threshold_db: cfg.signal_threshold_db + 1.0,
            ..cfg
        };
        pool.music(&stricter);
        pool.music(&cfg);
        assert_eq!(pool.len(), 3);
    }
}
