//! Counting people through a wall: train the spatial-variance classifier,
//! then count 0–3 people in new trials (paper §5.2 / Table 7.1).
//!
//! Run with: `cargo run --release --example multi_human_tracking`

use wivi::core::counting::VarianceClassifier;
use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::prelude::*;

fn trial(room: Rect, n: usize, seed: u64, secs: f64) -> f64 {
    let mut scene = Scene::new(Material::HollowWall6In).with_office_clutter(room);
    for i in 0..n {
        scene = scene.with_mover(Mover::human(ConfinedRandomWalk::new(
            room,
            seed.wrapping_mul(31).wrapping_add(i as u64),
            1.0,
            secs + 15.0,
        )));
    }
    let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), seed);
    device.calibrate();
    device.measure_spatial_variance_streaming(secs, DEFAULT_BATCH_LEN)
}

fn main() {
    // Train in the small conference room...
    println!("training (small room, 2 trials per count)...");
    let mut training = Vec::new();
    for n in 0..4usize {
        for s in 0..2u64 {
            training.push((
                n,
                trial(
                    Scene::conference_room_small(),
                    n,
                    400 + 10 * n as u64 + s,
                    15.0,
                ),
            ));
        }
    }
    let clf = VarianceClassifier::train(&training, 4);
    println!(
        "learned thresholds: {:?}\n",
        clf.thresholds()
            .iter()
            .map(|t| *t as u64)
            .collect::<Vec<_>>()
    );

    // ...test in the large room (the paper's cross-room protocol).
    for (n, seed) in [(0usize, 91u64), (1, 92), (2, 93), (3, 94)] {
        let v = trial(Scene::conference_room_large(), n, seed, 15.0);
        println!(
            "large room, {n} people: variance {v:>9.0} → detected {} people",
            clf.classify(v)
        );
    }
}
