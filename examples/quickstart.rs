//! Quickstart: track one person walking behind a 6" hollow wall.
//!
//! Run with: `cargo run --release --example quickstart`

use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::prelude::*;

fn main() {
    // A conference room behind the wall, one person walking at will.
    let room = Scene::conference_room_small();
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(room)
        .with_mover(Mover::human(ConfinedRandomWalk::new(room, 7, 1.0, 30.0)));

    // The Wi-Vi device: 2 TX + 1 RX, 64-subcarrier OFDM at 2.4 GHz.
    let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), 42);

    // Algorithm 1: initial nulling, power boosting, iterative nulling.
    let report = device.calibrate();
    println!(
        "nulling removed {:.1} dB of static reflections in {} iterations",
        report.nulling_db(),
        report.iterations
    );

    // Mode 1: record and track (A'[θ, n], the paper's Fig. 5-2 view).
    let spectrogram = device.track_streaming(7.0, DEFAULT_BATCH_LEN);
    println!("\nangle–time heatmap (θ on y, +90° = moving toward the device):\n");
    println!("{}", spectrogram.render_ascii(19, 72));

    let variance = mean_spatial_variance(&spectrogram);
    println!("mean spatial variance: {variance:.0} (≫ empty-room level ⇒ motion detected)");
}
