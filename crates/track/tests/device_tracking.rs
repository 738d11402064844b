//! End-to-end tracking through the simulated device: real scenes, real
//! nulling, real MUSIC — do the tracks match the people?

use wivi_core::{WiViConfig, WiViDevice};
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};
use wivi_track::TrackTargets;

fn walled() -> Scene {
    Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
}

#[test]
fn approaching_walker_yields_one_positive_track() {
    // Walking straight toward the device: closing speed ≈ 1 m/s against
    // the assumed 1 m/s ⇒ ridge near +90°... kept off-boresight so the
    // angle stays well-defined.
    let scene = walled().with_mover(Mover::human(WaypointWalker::new(
        vec![Point::new(-1.8, 3.8), Point::new(0.8, 1.2)],
        1.0,
    )));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 21);
    dev.calibrate();
    let report = dev.track_targets_streaming(3.0, 16);

    assert!(!report.tracks.is_empty(), "no tracks for a walking subject");
    // The dominant track (longest) must be positive-θ (approaching).
    let main = report.tracks.iter().max_by_key(|t| t.len()).unwrap();
    let mean = main.mean_observed_theta().unwrap();
    assert!(mean > 10.0, "approaching subject tracked at {mean}°");
    assert!(!report.entries().is_empty());
}

#[test]
fn static_scene_yields_no_tracks() {
    let mut dev = WiViDevice::new(walled(), WiViConfig::fast_test(), 22);
    dev.calibrate();
    let report = dev.track_targets_streaming(2.5, 16);
    assert!(
        report.tracks.is_empty(),
        "static scene produced tracks: {:?}",
        report
            .tracks
            .iter()
            .map(|t| (t.id, t.len(), t.mean_observed_theta()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn two_opposing_walkers_yield_two_tracks_with_opposite_signs() {
    let scene = walled()
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-1.5, 3.8), Point::new(1.0, 1.3)],
            1.0,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(1.2, 1.4), Point::new(-1.2, 3.6)],
            1.0,
        )));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 23);
    dev.calibrate();
    let report = dev.track_targets_streaming(3.0, 16);

    let long: Vec<_> = report.tracks.iter().filter(|t| t.len() >= 10).collect();
    assert!(
        long.len() >= 2,
        "expected 2 persistent tracks, got {:?}",
        report
            .tracks
            .iter()
            .map(|t| (t.id, t.len(), t.mean_observed_theta()))
            .collect::<Vec<_>>()
    );
    let has_pos = long.iter().any(|t| t.mean_observed_theta().unwrap() > 5.0);
    let has_neg = long.iter().any(|t| t.mean_observed_theta().unwrap() < -5.0);
    assert!(
        has_pos && has_neg,
        "tracks: {:?}",
        long.iter()
            .map(|t| t.mean_observed_theta())
            .collect::<Vec<_>>()
    );
}
