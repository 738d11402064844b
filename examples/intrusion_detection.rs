//! Intrusion detection: decide whether *anyone* is moving inside a closed
//! room — the paper's 0-vs-N case, which Table 7.1 reports at 100 %.
//!
//! Run with: `cargo run --release --example intrusion_detection`

use wivi::core::counting::VarianceClassifier;
use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::prelude::*;

fn measure(n_people: usize, seed: u64) -> f64 {
    let room = Scene::conference_room_small();
    let mut scene = Scene::new(Material::HollowWall6In).with_office_clutter(room);
    for i in 0..n_people {
        scene = scene.with_mover(Mover::human(ConfinedRandomWalk::new(
            room,
            seed * 10 + i as u64,
            1.0,
            20.0,
        )));
    }
    let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), seed);
    device.calibrate();
    device.measure_spatial_variance_streaming(10.0, DEFAULT_BATCH_LEN)
}

fn main() {
    // Train a tiny 2-class (empty / occupied) classifier.
    println!("training on labelled trials...");
    let mut training = Vec::new();
    for seed in 0..3 {
        training.push((0usize, measure(0, 100 + seed)));
        training.push((1usize, measure(1, 200 + seed)));
    }
    let classifier = VarianceClassifier::train(&training, 2);
    println!("decision threshold: {:.0}", classifier.thresholds()[0]);

    // Monitor "unknown" rooms.
    for (label, n, seed) in [
        ("room A", 0usize, 31u64),
        ("room B", 1, 32),
        ("room C", 2, 33),
    ] {
        let v = measure(n, seed);
        let verdict = if classifier.classify(v) == 0 {
            "clear"
        } else {
            "MOTION DETECTED"
        };
        println!("{label}: variance {v:>9.0} → {verdict}   (ground truth: {n} people)");
    }
}
