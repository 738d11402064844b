//! The streaming pipeline's correctness contract: every mode is one
//! per-session state pushed through one drive loop, and its output must
//! not depend on how the recording is cut into batches. Each device entry
//! point at batch 1, 16 and 100 must equal, bit for bit, the same call
//! with the whole recording as one batch (the "offline" reference).

use wivi::core::counting::mean_spatial_variance;
use wivi::prelude::*;
use wivi::rf::Point as P;

/// The batch sizes each mode is checked at.
const BATCH_LENS: [usize; 3] = [1, 16, 100];

/// A batch length that delivers the whole recording as one batch.
const WHOLE: usize = usize::MAX;

fn assert_imaging_report_eq(a: &ImagingReport, b: &ImagingReport, ctx: &str) {
    assert_eq!(a.grid, b.grid, "{ctx}: grids differ");
    assert_eq!(a.times_s.len(), b.times_s.len(), "{ctx}: window counts");
    for (x, y) in a.times_s.iter().zip(&b.times_s) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: window times differ");
    }
    assert_eq!(a.fixes.len(), b.fixes.len());
    for (w, (fa, fb)) in a.fixes.iter().zip(&b.fixes).enumerate() {
        assert_eq!(fa.len(), fb.len(), "{ctx}: fix counts differ at window {w}");
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!((x.ix, x.iy), (y.ix, y.iy), "{ctx}: window {w} cells");
            assert_eq!(x.x_m.to_bits(), y.x_m.to_bits(), "{ctx}: window {w} x");
            assert_eq!(x.y_m.to_bits(), y.y_m.to_bits(), "{ctx}: window {w} y");
            assert_eq!(
                x.power_db.to_bits(),
                y.power_db.to_bits(),
                "{ctx}: window {w} power"
            );
            assert_eq!(
                x.snr_db.to_bits(),
                y.snr_db.to_bits(),
                "{ctx}: window {w} snr"
            );
        }
    }
    assert_eq!(a.confirmed_counts, b.confirmed_counts, "{ctx}: counts");
    assert_eq!(a.tracks, b.tracks, "{ctx}: position tracks differ");
}

fn walled_scene() -> Scene {
    Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
}

fn walker_scene() -> Scene {
    walled_scene().with_mover(Mover::human(WaypointWalker::new(
        vec![P::new(-1.5, 3.5), P::new(0.5, 1.2), P::new(1.5, 3.5)],
        1.0,
    )))
}

fn device(seed: u64) -> WiViDevice {
    let mut dev = WiViDevice::new(walker_scene(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    dev
}

#[test]
fn streaming_track_is_bitwise_identical_to_offline() {
    let duration = 2.0;
    let offline = device(71).track_streaming(duration, WHOLE);

    for batch_len in BATCH_LENS {
        let streamed = device(71).track_streaming(duration, batch_len);
        assert_eq!(streamed.thetas_deg, offline.thetas_deg);
        assert_eq!(streamed.times_s, offline.times_s, "batch {batch_len}");
        assert_eq!(streamed.power.len(), offline.power.len());
        for (t, (a, b)) in streamed.power.iter().zip(&offline.power).enumerate() {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "power differs at window {t} (batch {batch_len})"
                );
            }
        }
    }
}

#[test]
fn streaming_count_statistic_is_exact() {
    let duration = 2.0;
    let offline = device(72).measure_spatial_variance_streaming(duration, WHOLE);
    // The streamed fold equals the statistic of the retained spectrogram.
    let spec = device(72).track_streaming(duration, WHOLE);
    assert_eq!(offline.to_bits(), mean_spatial_variance(&spec).to_bits());
    for batch_len in BATCH_LENS {
        let streamed = device(72).measure_spatial_variance_streaming(duration, batch_len);
        assert_eq!(
            streamed.to_bits(),
            offline.to_bits(),
            "variance differs at batch {batch_len}"
        );
    }
}

#[test]
fn streaming_gesture_decode_is_exact() {
    let style = GestureStyle::default();
    let script =
        GestureScript::for_bits(P::new(0.0, 3.0), Vec2::new(0.0, -1.0), style, 3.0, &[false]);
    let duration = 3.0 + script.duration() + 1.0;
    let build = || {
        let scene = walled_scene().with_mover(Mover::human(GestureScript::for_bits(
            P::new(0.0, 3.0),
            Vec2::new(0.0, -1.0),
            style,
            3.0,
            &[false],
        )));
        let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 73);
        dev.calibrate();
        dev
    };
    let offline = build().decode_gestures_streaming(duration, WHOLE);
    for batch_len in BATCH_LENS {
        let streamed = build().decode_gestures_streaming(duration, batch_len);
        assert_eq!(streamed.bits, offline.bits, "batch {batch_len}");
        assert_eq!(streamed.track, offline.track, "batch {batch_len}");
        assert_eq!(streamed.matched, offline.matched, "batch {batch_len}");
        assert_eq!(streamed.gestures.len(), offline.gestures.len());
    }
}

#[test]
fn streaming_imaging_is_bitwise_identical_to_offline() {
    // 4 s covers several 2 s imaging apertures of the derived config.
    let duration = 4.0;
    let offline = device(75).image_streaming(duration, WHOLE);
    assert!(offline.n_windows() >= 3, "trial too short to mean anything");

    for batch_len in BATCH_LENS {
        let streamed = device(75).image_streaming(duration, batch_len);
        assert_imaging_report_eq(&streamed, &offline, &format!("batch {batch_len}"));
    }
}

#[test]
fn partial_spectrogram_grows_while_device_streams() {
    // Drive the track state off the device's drive loop by hand: columns
    // must appear incrementally, not only at the end.
    let mut dev = device(74);
    let music = dev.config().music;
    let mut engine = MusicEngine::new(music);
    let mut state = TrackState::new(&music);
    let mut growth = Vec::new();
    dev.stream(2.0, 32, |batch| {
        state.push(&mut engine, batch);
        growth.push(state.n_columns());
    });
    assert!(growth.len() > 3);
    assert!(
        growth[growth.len() - 1] > growth[0],
        "no incremental columns: {growth:?}"
    );
    assert!(growth.windows(2).all(|w| w[0] <= w[1]));
    let spec = state.finish();
    assert_eq!(spec.n_times(), *growth.last().unwrap());
    assert_eq!(spec.power, device(74).track_streaming(2.0, 32).power);
}
