//! The device's five built-in sensing modes, as [`SensingMode`]
//! implementations.
//!
//! Each mode is an adapter over the per-session state the matching
//! `WiViDevice` entry point streams: the state type is the same, the
//! heavy per-window engine comes from the shard's [`EngineCache`] keyed
//! by the same configuration values instead of being owned, and
//! finalization drains the state into the same payload. So each served
//! session is *bitwise identical* to its standalone run; the golden
//! traces and the determinism matrix pin this.
//!
//! | mode | tag | payload ([`ModeOutput::expect`]) | state | device entry point |
//! |------|-----|----------------------------------|-------|--------------------|
//! | [`Track`] | `track` | `Option<AngleSpectrogram>` | [`TrackState`] | `track_streaming` |
//! | [`TrackTargets`] | `track_targets` | `TrackingReport` | [`TrackTargetsState`] | `track_targets_streaming` |
//! | [`Count`] | `count` | `Option<f64>` | [`CountState`] | `measure_spatial_variance_streaming` |
//! | [`Gestures`] | `gestures` | `Option<GestureDecode>` | [`GesturesState`] | `decode_gestures_streaming` |
//! | [`Image`] | `image` | `ImagingReport` | [`ImageState`] | `image_streaming` |
//!
//! Modes whose output needs at least one analysis window carry
//! `Option`s: a zero-duration (or immediately closed) session drains
//! cleanly with `None` instead of panicking.

use wivi_core::{CountState, EngineCache, GesturesState, TrackState, WiViConfig, WiViDevice};
use wivi_image::{assert_device_geometry, nulling_tx_weight, ImageConfig, ImageState};
use wivi_num::Complex64;
use wivi_track::{TrackEvent, TrackTargetsState};

use crate::mode::{ModeOutput, SensingMode};

/// Mode 1, imaging: retain every spectrogram column, output the full
/// `A′[θ, n]`. Payload: `Option<AngleSpectrogram>` (`None` if no window
/// completed).
pub struct Track;

impl SensingMode for Track {
    type State = TrackState;

    fn tag(&self) -> &'static str {
        "track"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> TrackState {
        TrackState::new(&eff.music)
    }

    fn step(&self, state: &mut TrackState, engines: &mut EngineCache, samples: &[Complex64]) {
        state.push(engines.engine(state.cfg()), samples);
    }

    fn columns(&self, state: &TrackState) -> usize {
        state.n_columns()
    }

    fn finalize(&self, state: TrackState) -> (ModeOutput, Vec<TrackEvent>) {
        let spec = (state.n_columns() > 0).then(|| state.finish());
        (ModeOutput::new(self.tag(), spec), Vec::new())
    }
}

/// Mode 1, extended: multi-target tracking; outputs the
/// [`TrackingReport`](wivi_track::TrackingReport) and contributes
/// entry/exit/crossing/count events to the engine's unified stream.
/// Payload: `TrackingReport` (empty if zero windows).
pub struct TrackTargets;

impl SensingMode for TrackTargets {
    type State = TrackTargetsState;

    fn tag(&self) -> &'static str {
        "track_targets"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> TrackTargetsState {
        TrackTargetsState::new(&eff.music)
    }

    fn step(
        &self,
        state: &mut TrackTargetsState,
        engines: &mut EngineCache,
        samples: &[Complex64],
    ) {
        state.push(engines.engine(state.cfg()), samples);
    }

    fn columns(&self, state: &TrackTargetsState) -> usize {
        state.n_columns()
    }

    fn finalize(&self, state: TrackTargetsState) -> (ModeOutput, Vec<TrackEvent>) {
        let report = state.finish();
        let events = report.events.clone();
        (ModeOutput::new(self.tag(), report), events)
    }
}

/// Mode 1, counting: fold columns into the spatial-variance statistic;
/// nothing is retained. Payload: `Option<f64>` (`None` if no window
/// completed).
pub struct Count;

impl SensingMode for Count {
    type State = CountState;

    fn tag(&self) -> &'static str {
        "count"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> CountState {
        CountState::new(&eff.music)
    }

    fn step(&self, state: &mut CountState, engines: &mut EngineCache, samples: &[Complex64]) {
        state.push(engines.engine(state.cfg()), samples);
    }

    fn columns(&self, state: &CountState) -> usize {
        state.n_columns()
    }

    fn finalize(&self, state: CountState) -> (ModeOutput, Vec<TrackEvent>) {
        let mean = (state.n_columns() > 0).then(|| state.finish());
        (ModeOutput::new(self.tag(), mean), Vec::new())
    }
}

/// Mode 2: beamform incrementally, decode the gesture message when the
/// session closes. Payload: `Option<GestureDecode>` (`None` if no window
/// completed).
pub struct Gestures;

impl SensingMode for Gestures {
    type State = GesturesState;

    fn tag(&self) -> &'static str {
        "gestures"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> GesturesState {
        GesturesState::new(&eff.music.isar, eff.gesture)
    }

    fn step(&self, state: &mut GesturesState, engines: &mut EngineCache, samples: &[Complex64]) {
        state.push(engines.engine(state.cfg()), samples);
    }

    fn columns(&self, state: &GesturesState) -> usize {
        state.n_columns()
    }

    fn finalize(&self, state: GesturesState) -> (ModeOutput, Vec<TrackEvent>) {
        let decoded = (state.n_columns() > 0).then(|| state.finish());
        (ModeOutput::new(self.tag(), decoded), Vec::new())
    }
}

/// Mode 1, 2-D: backproject each imaging aperture onto the room grid,
/// CFAR-detect per-window (x, y) fixes, and track positions. Payload:
/// `ImagingReport` (empty if no aperture filled).
pub struct Image;

impl SensingMode for Image {
    type State = ImageState;

    fn tag(&self) -> &'static str {
        "image"
    }

    fn open(&self, dev: &WiViDevice, eff: &WiViConfig) -> ImageState {
        // The derived configuration plus the session's own nulling
        // weight — exactly what the standalone `image_streaming` entry
        // point uses (including its geometry check against the
        // session's scene).
        let icfg = ImageConfig::for_wivi(eff);
        assert_device_geometry(dev, &icfg);
        ImageState::new(&icfg, nulling_tx_weight(dev))
    }

    fn step(&self, state: &mut ImageState, engines: &mut EngineCache, samples: &[Complex64]) {
        state.push(engines.engine(state.cfg()), samples);
    }

    fn columns(&self, state: &ImageState) -> usize {
        state.n_frames()
    }

    fn finalize(&self, state: ImageState) -> (ModeOutput, Vec<TrackEvent>) {
        (ModeOutput::new(self.tag(), state.finish()), Vec::new())
    }
}
