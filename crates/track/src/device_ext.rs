//! `WiViDevice` entry point for target tracking (mode 1, extended).
//!
//! `wivi-track` layers *above* `wivi-core`, so the device grows its
//! tracking mode through an extension trait rather than an inherent
//! method: `use wivi_track::TrackTargets;` (re-exported by the umbrella
//! crate's prelude) and every device can `track_targets_streaming(..)`.

use wivi_core::{MusicEngine, WiViDevice};

use crate::tracker::{TrackTargetsState, TrackingReport};

/// Device-level tracking (mode 1 of the paper, extended from "render the
/// spectrogram" to "maintain per-person tracks").
pub trait TrackTargets {
    /// Streams `duration_s` seconds in `batch_len`-sample batches through
    /// a [`TrackTargetsState`] with the default tracker for the device's
    /// MUSIC configuration.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or `batch_len == 0`.
    fn track_targets_streaming(&mut self, duration_s: f64, batch_len: usize) -> TrackingReport;
}

impl TrackTargets for WiViDevice {
    fn track_targets_streaming(&mut self, duration_s: f64, batch_len: usize) -> TrackingReport {
        assert!(
            self.nulling_report().is_some(),
            "call calibrate() before tracking targets"
        );
        let music = self.config().music;
        let mut engine = MusicEngine::new(music);
        let mut state = TrackTargetsState::new(&music);
        self.stream(duration_s, batch_len, |batch| {
            state.push(&mut engine, batch);
        });
        state.finish()
    }
}
