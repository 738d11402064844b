//! `wivi-image` — through-wall 2-D imaging over the nulled residual.
//!
//! The paper's pipeline stops at the 1-D angle–time spectrogram
//! `A′[θ, n]`: *at what angle-of-motion* is each body. This crate
//! answers *where in the room* each body is, from exactly the same
//! nulled channel stream, by generalizing the §5.1 emulated-ISAR
//! aperture from far-field direction scoring to near-field holographic
//! backprojection (Holl & Reinhard's Wi-Fi holography and Zhong et
//! al.'s 2.4 GHz commodity through-wall imaging, both in PAPERS.md):
//!
//! * [`ImageConfig`] / [`GridSpec`] — the room grid and the aperture
//!   geometry (window, hop, assumed speed, device antenna positions).
//! * [`ImagingEngine`] — the resident backprojector: precomputed
//!   per-cell two-path round-trip steering tables, a reused image
//!   buffer, CA-CFAR detection ([`wivi_num::cfar`]) with sub-cell
//!   parabolic refinement and mirror-ghost suppression, emitting
//!   per-window [`ImageFix`]es.
//! * [`ImageState`] — batch-invariant per-session streaming state over a
//!   borrowed engine, shared by the device entry points and the serving
//!   shards.
//! * [`PositionTracker`] — gated optimal assignment plus per-axis
//!   constant-velocity Kalman filtering over the fixes, so tracks carry
//!   `(x, y)` in metres instead of bare angles.
//! * [`ImageThroughWall`] — the device extension:
//!   `WiViDevice::image_streaming`, bitwise identical for every batch
//!   size, and to a served `image`-mode session at every shard count.

pub mod config;
pub mod device_ext;
pub mod engine;
pub mod stage;
pub mod track2d;

pub use config::{GridSpec, ImageConfig};
pub use device_ext::{assert_device_geometry, nulling_tx_weight, ImageThroughWall};
pub use engine::{ImageFix, ImagingEngine};
pub use stage::{ImageState, ImagingReport};
pub use track2d::{
    PositionTrack, PositionTrackStatus, PositionTracker, PositionTrackerConfig,
    PositionTrackingSummary,
};
