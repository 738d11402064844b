//! `WiViDevice` entry points for through-wall imaging — the fifth
//! device mode, layered above `wivi-core` through an extension trait
//! exactly like `wivi-track`'s tracking mode: `use
//! wivi_image::ImageThroughWall;` and every device can
//! `image_streaming(..)`, which streams an [`ImageState`] like every other
//! mode of the device.

use wivi_core::WiViDevice;
use wivi_num::Complex64;

use crate::config::ImageConfig;
use crate::engine::ImagingEngine;
use crate::stage::{ImageState, ImagingReport};

/// The subcarrier-averaged nulling weight the calibration installed on
/// the second transmit antenna — the `w` of the imaging model
/// `q = s¹ + w·s²` (see [`crate::engine::ImagingEngine`]): after
/// nulling, a mover's residual is its TX-1 path plus this weight times
/// its TX-2 path. Shared by the device entry points and the serving
/// engine so the two can never compute it differently.
///
/// # Panics
/// Panics if the device has not been calibrated.
pub fn nulling_tx_weight(dev: &WiViDevice) -> Complex64 {
    let p = dev
        .frontend()
        .precoder()
        .expect("call calibrate() before imaging");
    p.iter().copied().sum::<Complex64>() / p.len() as f64
}

/// Asserts that the imaging configuration's antenna geometry matches
/// the device's actual scene layout. The steering tables are built from
/// `cfg.tx`/`cfg.rx`; a device bound to a scene with a different layout
/// (nonstandard standoff, custom placement) would silently defocus, so
/// both the device entry points and the serving engine check first.
///
/// # Panics
/// Panics if the antenna positions differ.
pub fn assert_device_geometry(dev: &WiViDevice, cfg: &ImageConfig) {
    let layout = &dev.frontend().scene().device;
    assert_eq!(
        (layout.tx, layout.rx),
        (cfg.tx, cfg.rx),
        "imaging configuration's antenna geometry does not match the device's scene layout"
    );
}

/// Device-level imaging entry points: room images and (x, y) fixes
/// instead of bare ridge angles.
pub trait ImageThroughWall {
    /// Streams `duration_s` seconds in `batch_len`-sample batches through
    /// an [`ImageState`] with the configuration derived from the device
    /// configuration ([`ImageConfig::for_wivi`]): each completed aperture
    /// is focused, CFAR-detected, and folded into the position tracker
    /// the moment it completes. Memory stays bounded by one aperture plus
    /// the engine's resident tables.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or `batch_len == 0`.
    fn image_streaming(&mut self, duration_s: f64, batch_len: usize) -> ImagingReport;

    /// [`Self::image_streaming`] with an explicit imaging configuration.
    fn image_streaming_with(
        &mut self,
        duration_s: f64,
        batch_len: usize,
        cfg: &ImageConfig,
    ) -> ImagingReport;
}

impl ImageThroughWall for WiViDevice {
    fn image_streaming(&mut self, duration_s: f64, batch_len: usize) -> ImagingReport {
        let cfg = ImageConfig::for_wivi(self.config());
        self.image_streaming_with(duration_s, batch_len, &cfg)
    }

    fn image_streaming_with(
        &mut self,
        duration_s: f64,
        batch_len: usize,
        cfg: &ImageConfig,
    ) -> ImagingReport {
        assert_device_geometry(self, cfg);
        let mut state = ImageState::new(cfg, nulling_tx_weight(self));
        let mut engine = ImagingEngine::new(*cfg);
        self.stream(duration_s, batch_len, |batch| {
            state.push(&mut engine, batch);
        });
        state.finish()
    }
}
