//! Golden-trace regression fixtures: three fixed-seed scenarios whose
//! end-to-end outputs (spectrogram ridge bins, counting variance, track
//! events, gesture decode) are pinned as checked-in JSON snapshots under
//! `tests/golden/`.
//!
//! Every run regenerates each trace and diffs it against its fixture —
//! any drift in the radio simulation, the MUSIC pipeline, the tracker,
//! or the decoder fails the suite with a field-level diff. Floats are
//! pinned by **bit pattern** (hex of `f64::to_bits`) with a human-readable
//! value alongside, so the fixtures catch last-ulp regressions while
//! still diffing meaningfully.
//!
//! To update the fixtures after an *intentional* behavior change:
//!
//! ```text
//! WIVI_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then commit the rewritten files. CI runs without `WIVI_BLESS`, so
//! unblessed drift fails the job.

use std::fmt::Write as _;

use wivi::core::counting::mean_spatial_variance;
use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::prelude::*;
use wivi::rf::{GestureScript, GestureStyle, Point, Vec2};

const GOLDEN_DIR: &str = "tests/golden";

fn f64_field(out: &mut String, indent: &str, name: &str, x: f64, last: bool) {
    let comma = if last { "" } else { "," };
    let _ = writeln!(out, "{indent}\"{name}_bits\": \"0x{:016x}\",", x.to_bits());
    let _ = writeln!(out, "{indent}\"{name}\": {x:.9}{comma}");
}

/// Scenario 1+2: walkers behind the standard wall. Returns the canonical
/// trace JSON for (spectrogram ridge bins, variance, track events).
fn tracking_trace(name: &str, scene_of: impl Fn() -> Scene, seed: u64, duration_s: f64) -> String {
    let mut dev = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    let spec = dev.track_streaming(duration_s, DEFAULT_BATCH_LEN);
    let variance = mean_spatial_variance(&spec);

    let mut dev2 = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
    dev2.calibrate();
    let report = dev2.track_targets_streaming(duration_s, DEFAULT_BATCH_LEN);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let _ = writeln!(out, "  \"n_windows\": {},", spec.n_times());
    // The per-window dominant-angle bin: the paper's "ridge read off the
    // spectrogram", quantized to grid bins so the fixture is compact yet
    // pins the whole MUSIC chain.
    let ridge: Vec<String> = spec
        .power
        .iter()
        .map(|row| {
            let (bin, _) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            bin.to_string()
        })
        .collect();
    let _ = writeln!(out, "  \"ridge_bins\": [{}],", ridge.join(", "));
    f64_field(&mut out, "  ", "mean_spatial_variance", variance, false);
    let _ = writeln!(out, "  \"confirmed_counts\": [{}],", {
        let v: Vec<String> = report
            .confirmed_counts
            .iter()
            .map(usize::to_string)
            .collect();
        v.join(", ")
    });
    let _ = writeln!(out, "  \"n_tracks\": {},", report.tracks.len());
    let _ = writeln!(out, "  \"events\": [");
    for (i, e) in report.events.iter().enumerate() {
        let comma = if i + 1 == report.events.len() {
            ""
        } else {
            ","
        };
        let track = e
            .track_id
            .map(|t| t.to_string())
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"window\": {}, \"time_bits\": \"0x{:016x}\", \"kind\": \"{}\", \"track\": {track}}}{comma}",
            e.window,
            e.time_s.to_bits(),
            e.kind.tag(),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Scenario 3: the gesture channel. Pins the decoded bits, each
/// gesture's polarity/time/SNR, and the matched-filter peak count.
fn gesture_trace(name: &str, seed: u64) -> String {
    let script = GestureScript::for_bits(
        Point::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false, true],
    );
    let duration_s = 3.0 + script.duration() + 1.0;
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(script));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), seed);
    dev.calibrate();
    let d = dev.decode_gestures_streaming(duration_s, DEFAULT_BATCH_LEN);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let bits: Vec<String> = d
        .bits
        .iter()
        .map(|b| match b {
            Some(true) => "1".into(),
            Some(false) => "0".into(),
            None => "null".into(),
        })
        .collect();
    let _ = writeln!(out, "  \"bits\": [{}],", bits.join(", "));
    let _ = writeln!(out, "  \"gestures\": [");
    for (i, g) in d.gestures.iter().enumerate() {
        let comma = if i + 1 == d.gestures.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"polarity\": {}, \"time_bits\": \"0x{:016x}\", \"snr_db_bits\": \"0x{:016x}\"}}{comma}",
            g.polarity,
            g.time_s.to_bits(),
            g.snr_db.to_bits(),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"n_windows\": {}", d.times_s.len());
    let _ = writeln!(out, "}}");
    out
}

/// Scenario 4: the imaging path. Pins every per-window CFAR fix —
/// position, cell, focused power, CFAR SNR, all by f64 bit pattern —
/// plus the per-window confirmed position-track counts, so any drift in
/// the backprojection, the CLEAN loop, the CFAR detector, or the 2-D
/// tracker fails the suite.
fn imaging_trace(name: &str, seed: u64) -> String {
    let duration_s = 4.0;
    let mut dev = WiViDevice::new(imaging_scene(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    let report = dev.image_streaming(duration_s, DEFAULT_BATCH_LEN);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let _ = writeln!(out, "  \"n_windows\": {},", report.n_windows());
    let _ = writeln!(out, "  \"windows\": [");
    let n = report.n_windows();
    for (w, (t, fixes)) in report.times_s.iter().zip(&report.fixes).enumerate() {
        let comma = if w + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"window\": {w}, \"time_bits\": \"0x{:016x}\", \"fixes\": [",
            t.to_bits()
        );
        for (i, f) in fixes.iter().enumerate() {
            let fcomma = if i + 1 == fixes.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      {{\"cell\": [{}, {}], \"x_bits\": \"0x{:016x}\", \"x\": {:.4}, \
                 \"y_bits\": \"0x{:016x}\", \"y\": {:.4}, \"power_bits\": \"0x{:016x}\", \
                 \"snr_bits\": \"0x{:016x}\"}}{fcomma}",
                f.ix,
                f.iy,
                f.x_m.to_bits(),
                f.x_m,
                f.y_m.to_bits(),
                f.y_m,
                f.power_db.to_bits(),
                f.snr_db.to_bits(),
            );
        }
        let _ = writeln!(out, "    ]}}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"confirmed_counts\": [{}],", {
        let v: Vec<String> = report
            .confirmed_counts
            .iter()
            .map(usize::to_string)
            .collect();
        v.join(", ")
    });
    let _ = writeln!(out, "  \"n_tracks\": {}", report.tracks.len());
    let _ = writeln!(out, "}}");
    out
}

/// Two pacers on wall-parallel lanes — the imaging subsystem's native
/// geometry.
fn imaging_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.6, 1.8), Point::new(2.6, 1.8)],
            1.0,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(2.4, 3.2), Point::new(-2.6, 3.2)],
            1.0,
        )))
}

fn crossing_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-1.5, 3.8), Point::new(0.5, 1.0)],
            0.8,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(0.9, 1.1), Point::new(1.6, 3.7)],
            0.5,
        )))
}

fn pacer_scene() -> Scene {
    Scene::new(Material::TintedGlass)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![
                Point::new(-2.0, 3.0),
                Point::new(2.0, 3.0),
                Point::new(-2.0, 3.0),
            ],
            1.0,
        )))
}

/// Compares the regenerated trace against its fixture, or rewrites the
/// fixture under `WIVI_BLESS=1`.
fn check_or_bless(name: &str, generated: &str) {
    let path = format!("{GOLDEN_DIR}/{name}.json");
    if std::env::var("WIVI_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(GOLDEN_DIR).expect("create tests/golden");
        std::fs::write(&path, generated).expect("write fixture");
        eprintln!("blessed {path}");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path} ({e}); generate it with \
             `WIVI_BLESS=1 cargo test --test golden_traces` and commit it"
        )
    });
    if generated != expected {
        // Point at the first diverging line for a usable failure.
        let mismatch = generated
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (g, e))| g != e);
        match mismatch {
            Some((ln, (g, e))) => panic!(
                "golden trace '{name}' drifted at line {}:\n  fixture:   {e}\n  generated: {g}\n\
                 If this change is intentional, re-bless with \
                 `WIVI_BLESS=1 cargo test --test golden_traces` and commit the diff.",
                ln + 1
            ),
            None => panic!(
                "golden trace '{name}' drifted (length {} vs fixture {}); re-bless if intentional",
                generated.len(),
                expected.len()
            ),
        }
    }
}

#[test]
fn golden_crossing_two_subjects() {
    check_or_bless(
        "crossing_two",
        &tracking_trace("crossing_two", crossing_scene, 81, 2.5),
    );
}

#[test]
fn golden_single_pacer() {
    check_or_bless(
        "single_pacer",
        &tracking_trace("single_pacer", pacer_scene, 7, 2.5),
    );
}

#[test]
fn golden_gesture_two_bits() {
    check_or_bless("gesture_two_bits", &gesture_trace("gesture_two_bits", 3));
}

#[test]
fn golden_imaging_two_pacers() {
    check_or_bless(
        "imaging_two_pacers",
        &imaging_trace("imaging_two_pacers", 17),
    );
}

#[test]
fn traces_are_reproducible_within_a_run() {
    // The fixture premise: regeneration is bit-stable. (If this fails,
    // the blessing workflow itself is meaningless.)
    let a = tracking_trace("crossing_two", crossing_scene, 81, 1.5);
    let b = tracking_trace("crossing_two", crossing_scene, 81, 1.5);
    assert_eq!(a, b, "trace generation is not deterministic");
}
