//! Cross-crate integration tests: the full pipeline from scene through
//! radio, nulling, tracking, counting and gesture decoding.
//!
//! These use the reduced `fast_test` configuration (16 subcarriers,
//! w = 40) so they stay quick in debug builds; the full-parameter paths
//! are exercised by the experiment binaries in `wivi-bench`.

use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::core::music::music_spectrum;
use wivi::prelude::*;
use wivi::rf::{Point as P, Stationary};

fn quiet_fast_cfg() -> WiViConfig {
    let mut cfg = WiViConfig::fast_test();
    // Mechanism-level tests want a quieter radio than the calibrated
    // defaults (which are tuned for the paper-scale experiments).
    cfg.radio.noise_sigma = 4e-5;
    cfg
}

fn walled_scene() -> Scene {
    Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
}

#[test]
fn calibration_reaches_paper_scale_nulling() {
    let mut dev = WiViDevice::new(walled_scene(), WiViConfig::fast_test(), 1);
    let report = dev.calibrate();
    let db = report.nulling_db();
    assert!(
        (25.0..80.0).contains(&db),
        "nulling {db:.1} dB out of range"
    );
    assert!(!report.saturated);
}

#[test]
fn walker_detected_against_empty_room() {
    let cfg = quiet_fast_cfg();
    let mut with = WiViDevice::new(
        walled_scene().with_mover(Mover::human(WaypointWalker::new(
            vec![P::new(-1.5, 3.5), P::new(0.5, 1.2), P::new(1.5, 3.5)],
            1.0,
        ))),
        cfg,
        2,
    );
    with.calibrate();
    let v_moving = with.measure_spatial_variance_streaming(3.0, DEFAULT_BATCH_LEN);

    let mut empty = WiViDevice::new(walled_scene(), cfg, 2);
    empty.calibrate();
    let v_empty = empty.measure_spatial_variance_streaming(3.0, DEFAULT_BATCH_LEN);

    assert!(
        v_moving > 3.0 * v_empty.max(1.0),
        "no separation: moving {v_moving:.0} vs empty {v_empty:.0}"
    );
}

#[test]
fn stationary_person_is_invisible() {
    // §4.1: a person who never moves is nulled with the rest of the
    // static environment.
    let cfg = quiet_fast_cfg();
    let mut with = WiViDevice::new(
        walled_scene().with_mover(Mover::human(Stationary(P::new(1.0, 3.0)))),
        cfg,
        3,
    );
    with.calibrate();
    let v_still = with.measure_spatial_variance_streaming(3.0, DEFAULT_BATCH_LEN);

    let mut empty = WiViDevice::new(walled_scene(), cfg, 3);
    empty.calibrate();
    let v_empty = empty.measure_spatial_variance_streaming(3.0, DEFAULT_BATCH_LEN);

    assert!(
        v_still < 5.0 * v_empty.max(1.0),
        "stationary person leaked into the image: {v_still:.0} vs {v_empty:.0}"
    );
}

#[test]
fn two_bit_message_decodes_through_wall() {
    let script = GestureScript::for_bits(
        P::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false, true],
    );
    let duration = 3.0 + script.duration() + 1.5;
    let scene = walled_scene().with_mover(Mover::human(script));
    let mut dev = WiViDevice::new(scene, quiet_fast_cfg(), 4);
    dev.calibrate();
    let d = dev.decode_gestures_streaming(duration, DEFAULT_BATCH_LEN);
    assert_eq!(
        d.bits,
        vec![Some(false), Some(true)],
        "gestures: {:?}",
        d.gestures
    );
}

#[test]
fn subject_far_beyond_range_produces_erasures_not_flips() {
    // Fig. 7-4's mechanism: beyond the SNR cutoff the decoder must return
    // erasures (no energy), never inverted bits.
    let script = GestureScript::for_bits(
        P::new(0.0, 30.0), // far beyond the paper's 9 m limit
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false],
    );
    let duration = 3.0 + script.duration() + 1.5;
    let scene = walled_scene().with_mover(Mover::human(script));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 5);
    dev.calibrate();
    let d = dev.decode_gestures_streaming(duration, DEFAULT_BATCH_LEN);
    assert!(
        d.bits.first().copied().flatten() != Some(true),
        "bit flip at extreme range: {:?}",
        d.bits
    );
}

#[test]
fn device_runs_are_deterministic() {
    let run = || {
        let mut dev = WiViDevice::new(walled_scene(), WiViConfig::fast_test(), 99);
        dev.calibrate();
        dev.record_trace(1.0)
    };
    assert_eq!(run(), run());
}

#[test]
fn tracking_spectrogram_has_dc_line() {
    // The residual DC (§5.1 fn. 4) must appear as the zero line.
    let mut dev = WiViDevice::new(walled_scene(), WiViConfig::fast_test(), 6);
    dev.calibrate();
    let trace = dev.record_trace(2.0);
    let spec = music_spectrum(&trace, &dev.config().music);
    let mut dc_hits = 0;
    for t in 0..spec.n_times() {
        if spec.dominant_angle(t, 0.0).unwrap().abs() <= 10.0 {
            dc_hits += 1;
        }
    }
    assert!(
        dc_hits * 2 >= spec.n_times(),
        "DC line missing: {dc_hits}/{} windows",
        spec.n_times()
    );
}

#[test]
fn variance_monotone_zero_one_two() {
    // The counting signal (Fig. 7-3's ordering) at integration-test scale.
    let cfg = quiet_fast_cfg();
    let measure = |n: usize, seed: u64| {
        let room = Scene::conference_room_small();
        let mut scene = walled_scene();
        for i in 0..n {
            scene = scene.with_mover(Mover::human(ConfinedRandomWalk::new(
                room,
                seed * 7 + i as u64,
                1.0,
                12.0,
            )));
        }
        let mut dev = WiViDevice::new(scene, cfg, seed);
        dev.calibrate();
        dev.measure_spatial_variance_streaming(6.0, DEFAULT_BATCH_LEN)
    };
    let v0 = measure(0, 11);
    let v2 = measure(2, 13);
    assert!(
        v2 > 3.0 * v0.max(1.0),
        "0 vs 2 humans not separated: {v0:.0} vs {v2:.0}"
    );
}
