//! Figure 5-2 — Wi-Vi tracks a single person's motion: A′[θ, n] shows one
//! curved line (the person) plus the straight DC line.

use wivi_bench::report;
use wivi_core::device::DEFAULT_BATCH_LEN;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};

fn main() {
    report::header(
        "Fig. 5-2",
        "Single-person track: inverse angle of arrival vs time",
        "positive decreasing angle while approaching, zero crossing in front of the \
         device, negative while receding, back toward zero after turning",
    );
    // The Fig. 5-2(a) trajectory: approach the device, cross in front of
    // it, recede, then turn inward again.
    let path = WaypointWalker::new(
        vec![
            Point::new(2.2, 3.8),
            Point::new(0.2, 1.0),  // crosses in front around here
            Point::new(-1.8, 2.6), // receding
            Point::new(-0.6, 3.8), // turning inward, farther away
        ],
        1.0,
    );
    let duration = path.duration() + 0.5;
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(path));
    let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), 52);
    dev.calibrate();
    let spec = dev.track_streaming(duration, DEFAULT_BATCH_LEN);
    println!("\n{}", spec.render_ascii(19, 72));
    println!("dominant non-DC angle per second:");
    let per_s = (1.0 / (spec.times_s[1] - spec.times_s[0])).round() as usize;
    for (i, t) in spec.times_s.iter().enumerate().step_by(per_s.max(1)) {
        if let Some(th) = spec.dominant_angle(i, 10.0) {
            println!("  t = {t:>4.1} s   θ = {th:>5.0}°");
        }
    }
}
