//! Through-wall gesture messaging: a person with no radio sends bits to
//! Wi-Vi by stepping forward/backward (paper Ch. 6).
//!
//! Run with: `cargo run --release --example gesture_messaging`

use wivi::core::device::DEFAULT_BATCH_LEN;
use wivi::prelude::*;
use wivi::rf::Point as P;

fn main() {
    let message = [false, true, true, false]; // "0110"
    println!(
        "sending message {:?} by gesture from 4 m behind a hollow wall...",
        message.iter().map(|b| *b as u8).collect::<Vec<_>>()
    );

    // Encoder: bit '0' = step forward then back; '1' = back then forward.
    let script = GestureScript::for_bits(
        P::new(0.0, 4.0),
        Vec2::new(0.0, -1.0), // facing the device through the wall
        GestureStyle::subject(3),
        3.0, // stand still 3 s first (the decoder's noise reference)
        &message,
    );
    let duration = 3.0 + script.duration() + 1.5;

    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_large())
        .with_mover(Mover::human(script));

    let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), 7);
    device.calibrate();
    let decode = device.decode_gestures_streaming(duration, DEFAULT_BATCH_LEN);

    println!("\ndetected gestures:");
    for g in &decode.gestures {
        let dir = if g.polarity > 0 {
            "forward "
        } else {
            "backward"
        };
        println!(
            "  t = {:>5.1} s  step {dir}  (SNR {:>4.1} dB)",
            g.time_s, g.snr_db
        );
    }
    let bits: Vec<String> = decode
        .bits
        .iter()
        .map(|b| match b {
            Some(true) => "1".into(),
            Some(false) => "0".into(),
            None => "?".into(),
        })
        .collect();
    println!("\ndecoded: {}   (sent: 0110)", bits.join(""));
}
