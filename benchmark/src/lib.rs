//! The repository benchmark: three closed-loop workloads over the Wi-Vi
//! pipeline, each driving the program only through the public functions
//! of its layers, checking its outputs on every run, and printing one
//! JSON result line.
//!
//! * [`track_stream`] — calibrate, observe in 16-sample batches, smoothed
//!   MUSIC, multi-target tracker (the eigensolver-bound path).
//! * [`image_stream`] — calibrate, observe per hop, backprojection focus
//!   + CFAR, 2-D position tracker (same frontend, no MUSIC).
//! * [`serve_wire`] — a loopback `WireServer` fed a mixed-mode session
//!   list by one `WireClient` (admission, shard queues, codec, reactor).
//!
//! `README.md` in this directory lists the metrics, their units and
//! which layer metric should move which end-to-end metric.

pub mod env;
mod host;
pub mod image_stream;
mod quality;
pub mod report;
pub mod serve_wire;
mod stats;
mod timing;
mod trace;
pub mod track_stream;

/// What one benchmark invocation asks for.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed closed loop runs on the reference host,
    /// seconds: it sets how many whole blocks or rounds a run measures.
    pub seconds: f64,
    /// `false`: the untraced run reporting end-to-end metrics. `true`:
    /// the traced run reporting per-layer metrics.
    pub trace: bool,
}

/// SplitMix64 finalizer: derives independent per-item seeds from the
/// workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serializes tests that flip the process-wide observability switch or
/// read the process-wide kernel probes.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
