//! The tracking pipeline's correctness contract, mirroring
//! `streaming_equivalence.rs`: tracking at batch 1, 16 and 100 must
//! reproduce the report of the whole recording as one batch (the
//! "offline" reference) **exactly** — same tracks (Kalman states bit for
//! bit), same events, same per-window counts — because every batch split
//! folds the same spectrogram columns through the same deterministic
//! tracker.

use wivi::prelude::*;
use wivi::rf::Point as P;
use wivi::track::TrackStatus;

fn crossing_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![P::new(-1.5, 3.8), P::new(0.5, 1.0)],
            0.8,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![P::new(0.9, 1.1), P::new(1.6, 3.7)],
            0.5,
        )))
}

fn device(seed: u64) -> WiViDevice {
    let mut dev = WiViDevice::new(crossing_scene(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    dev
}

#[test]
fn streaming_tracking_is_bitwise_identical_to_offline() {
    let duration = 2.5;
    let offline = device(81).track_targets_streaming(duration, usize::MAX);
    assert!(
        !offline.tracks.is_empty(),
        "scenario produced no tracks to compare"
    );

    for batch_len in [1usize, 16, 100] {
        let streamed = device(81).track_targets_streaming(duration, batch_len);
        // Structural equality covers every f64 in every Kalman state,
        // history point, and event (derived PartialEq compares them all).
        assert_eq!(
            streamed.confirmed_counts, offline.confirmed_counts,
            "counts differ at batch {batch_len}"
        );
        assert_eq!(
            streamed.events, offline.events,
            "events differ at batch {batch_len}"
        );
        assert_eq!(
            streamed.tracks.len(),
            offline.tracks.len(),
            "track count differs at batch {batch_len}"
        );
        for (a, b) in streamed.tracks.iter().zip(&offline.tracks) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.history.len(), b.history.len());
            for (pa, pb) in a.history.iter().zip(&b.history) {
                assert_eq!(
                    pa.theta_deg.to_bits(),
                    pb.theta_deg.to_bits(),
                    "θ̂ differs (track {}, window {}, batch {batch_len})",
                    a.id,
                    pa.window
                );
                assert_eq!(pa.theta_vel.to_bits(), pb.theta_vel.to_bits());
            }
            assert_eq!(a.kf, b.kf, "Kalman state differs at batch {batch_len}");
        }
        assert_eq!(
            streamed, offline,
            "full report differs at batch {batch_len}"
        );
    }
}

#[test]
fn streaming_report_times_match_spectrogram_times() {
    let duration = 2.0;
    let spec = device(82).track_streaming(duration, 16);
    let report = device(82).track_targets_streaming(duration, 16);
    assert_eq!(report.times_s.len(), spec.times_s.len());
    for (a, b) in report.times_s.iter().zip(&spec.times_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "window times drifted");
    }
}

#[test]
fn tracker_sees_the_crossing_subjects() {
    let report = device(83).track_targets_streaming(2.5, 16);
    assert!(!report.tracks.is_empty());
    for t in &report.tracks {
        assert!(t.confirmed_window.is_some());
        assert!(t.announced);
        assert_ne!(t.status, TrackStatus::Tentative);
    }
}
