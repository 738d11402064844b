//! Figure 5-3 — Wi-Vi tracks two humans: two curved lines plus the DC.

use wivi_bench::report;
use wivi_core::device::DEFAULT_BATCH_LEN;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};

fn main() {
    report::header(
        "Fig. 5-3",
        "Two-person track",
        "two curved angle lines varying in time + one straight DC line; at times \
         one person is invisible (static or too deep); signs differ when one \
         approaches while the other recedes",
    );
    let a = WaypointWalker::new(
        vec![
            Point::new(-2.5, 1.5),
            Point::new(-0.5, 3.9),
            Point::new(1.5, 1.4),
        ],
        1.0,
    );
    let b = WaypointWalker::new(
        vec![
            Point::new(2.4, 3.8),
            Point::new(0.8, 1.2),
            Point::new(2.6, 2.4),
        ],
        0.9,
    );
    let duration = a.duration().max(b.duration()) + 0.5;
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(a))
        .with_mover(Mover::human(b));
    let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), 53);
    dev.calibrate();
    let spec = dev.track_streaming(duration, DEFAULT_BATCH_LEN);
    println!("\n{}", spec.render_ascii(19, 72));
}
