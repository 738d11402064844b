//! Per-session streaming state: the one implementation of every
//! spectrogram mode.
//!
//! The real Wi-Vi device is a *streaming* system: the paper drops the OFDM
//! bandwidth from 20 MHz to 5 MHz precisely so that nulling and tracking
//! keep up with the channel rate (§7.1). Every mode therefore consumes
//! nulled channel samples in whatever batch sizes the radio delivers and
//! emits `A′[θ, n]` columns as soon as each analysis window completes:
//!
//! ```text
//! nulling (calibration)         wivi_core::nulling::run_nulling
//!   → sample batches            WiViDevice::stream (observe_batch_into)
//!     → windowing               SharedStreamingMusic / BeamformState
//!       → per-session fold      TrackState, CountState, GesturesState, …
//! ```
//!
//! A session state holds only what is genuinely per-session — the
//! sliding [`WindowBuffer`] and whatever the mode folds columns into —
//! and borrows the heavy per-window engine ([`MusicEngine`],
//! [`BeamformEngine`]) at every push. The device entry points pass an
//! engine they own; a serving shard passes the one it pools for every
//! same-configuration session. An engine's output depends only on its
//! configuration and the window (its scratch is fully overwritten every
//! call), so both callers emit the same bits, for any batch split of the
//! same samples. Window-rate processing reuses the
//! engines' scratch with no heap allocation beyond the emitted rows, and
//! the sample buffer is trimmed as windows complete.

use wivi_num::Complex64;

use crate::isar::{BeamformEngine, IsarConfig};
use crate::music::{MusicConfig, MusicEngine};
use crate::spectrogram::AngleSpectrogram;

/// Sliding-window bookkeeping shared by every session state: accumulates
/// samples, hands out every complete `(start, window)` pair exactly once,
/// and trims the buffer so it never holds more than one window plus one
/// batch.
#[derive(Clone, Debug)]
pub struct WindowBuffer {
    window: usize,
    hop: usize,
    /// Samples not yet discarded; `buf[0]` is absolute index `base`.
    buf: Vec<Complex64>,
    base: usize,
    /// Absolute start index of the next window to emit.
    next_start: usize,
}

impl WindowBuffer {
    /// Creates a buffer emitting `window`-sample windows every `hop`
    /// samples.
    ///
    /// # Panics
    /// Panics if `window` or `hop` is zero.
    pub fn new(window: usize, hop: usize) -> Self {
        assert!(window >= 1 && hop >= 1);
        Self {
            window,
            hop,
            buf: Vec::with_capacity(window * 2),
            base: 0,
            next_start: 0,
        }
    }

    /// Appends `samples`, invoking `emit(start, window)` for each newly
    /// completed analysis window. Returns the number of windows emitted.
    pub fn push(
        &mut self,
        samples: &[Complex64],
        mut emit: impl FnMut(usize, &[Complex64]),
    ) -> usize {
        self.buf.extend_from_slice(samples);
        let mut emitted = 0;
        while self.next_start + self.window <= self.base + self.buf.len() {
            let lo = self.next_start - self.base;
            emit(self.next_start, &self.buf[lo..lo + self.window]);
            self.next_start += self.hop;
            emitted += 1;
        }
        // Drop samples no future window can reach.
        let keep_from = self
            .next_start
            .saturating_sub(self.base)
            .min(self.buf.len());
        if keep_from > 0 {
            self.buf.drain(..keep_from);
            self.base += keep_from;
        }
        emitted
    }

    /// Total samples seen.
    pub fn n_seen(&self) -> usize {
        self.base + self.buf.len()
    }
}

/// Per-session MUSIC windowing state. The heavy per-window scratch
/// (steering tables, correlation matrix, eig workspace) lives in a
/// [`MusicEngine`] that the device owns, or that a serving shard shares
/// across its same-configuration sessions. This type holds only the sliding [`WindowBuffer`] and a
/// column counter, and borrows the engine at every push; the mode
/// states ([`TrackState`], [`crate::CountState`], …) fold its columns.
///
/// # Panics
/// [`Self::push_with`] panics if the borrowed engine's configuration
/// does not match the one this state was built for.
#[derive(Clone, Debug)]
pub struct SharedStreamingMusic {
    /// The full configuration this session expects of its engine — not
    /// just the windowing: the pseudospectrum also depends on subarray,
    /// thresholds, and the noise floor, so a mismatched engine must
    /// panic rather than silently emit different columns.
    cfg: MusicConfig,
    /// The angle grid of every column: [`IsarConfig::thetas_deg`], the
    /// grid the engine's steering table is built on.
    thetas: Vec<f64>,
    wb: WindowBuffer,
    emitted: usize,
}

impl SharedStreamingMusic {
    /// Creates the per-session state for sessions processed by engines
    /// built from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: &MusicConfig) -> Self {
        cfg.validate();
        Self {
            cfg: *cfg,
            thetas: cfg.isar.thetas_deg(),
            wb: WindowBuffer::new(cfg.isar.window, cfg.isar.hop),
            emitted: 0,
        }
    }

    /// Feeds a batch of nulled channel samples through the shared
    /// `engine`, invoking `on_column(start_sample, thetas_deg, row)` for
    /// each newly completed window (`start_sample` is the window's
    /// absolute start; its centre time is
    /// [`IsarConfig::window_center_s`]). Returns the number of new
    /// columns.
    ///
    /// # Panics
    /// Panics if `engine` was built for a different configuration.
    pub fn push_with(
        &mut self,
        engine: &mut MusicEngine,
        samples: &[Complex64],
        mut on_column: impl FnMut(usize, &[f64], &[f64]),
    ) -> usize {
        assert_eq!(
            *engine.cfg(),
            self.cfg,
            "shared engine built for a different configuration"
        );
        let thetas = &self.thetas;
        let n = self.wb.push(samples, |start, win| {
            on_column(start, thetas, &engine.process_window(win));
        });
        self.emitted += n;
        n
    }

    /// The configuration this session expects of its engine.
    pub fn cfg(&self) -> &MusicConfig {
        &self.cfg
    }

    /// Columns emitted so far.
    pub fn n_columns(&self) -> usize {
        self.emitted
    }

    /// Total samples pushed so far.
    pub fn n_seen(&self) -> usize {
        self.wb.n_seen()
    }

    /// The angle grid shared by all columns.
    pub fn thetas_deg(&self) -> &[f64] {
        &self.thetas
    }
}

/// Spectrogram columns retained as their windows complete.
#[derive(Clone, Debug, Default)]
struct Columns {
    rows: Vec<Vec<f64>>,
    times: Vec<f64>,
}

impl Columns {
    fn push(&mut self, isar: &IsarConfig, start: usize, row: Vec<f64>) {
        self.rows.push(row);
        self.times.push(isar.window_center_s(start));
    }

    /// # Panics
    /// Panics if no window completed.
    fn finish(self, thetas: Vec<f64>, n_seen: usize, window: usize) -> AngleSpectrogram {
        assert!(
            !self.rows.is_empty(),
            "trace shorter ({n_seen}) than the analysis window ({window})"
        );
        AngleSpectrogram::new(thetas, self.times, self.rows)
    }
}

/// Mode 1 session state: smoothed MUSIC with every column retained for
/// the spectrogram `A′[θ, n]` — an O(trial-length) cost that is the point
/// of the mode. [`crate::music::music_spectrum`] is one push of it.
#[derive(Clone, Debug)]
pub struct TrackState {
    stage: SharedStreamingMusic,
    columns: Columns,
}

impl TrackState {
    /// Creates the state for engines built from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: &MusicConfig) -> Self {
        Self {
            stage: SharedStreamingMusic::new(cfg),
            columns: Columns::default(),
        }
    }

    /// The configuration this session expects of its engine.
    pub fn cfg(&self) -> &MusicConfig {
        self.stage.cfg()
    }

    /// Feeds a batch of nulled channel samples through `engine`,
    /// returning the number of new columns.
    ///
    /// # Panics
    /// Panics if `engine` was built for a different configuration.
    pub fn push(&mut self, engine: &mut MusicEngine, samples: &[Complex64]) -> usize {
        let isar = self.stage.cfg().isar;
        let columns = &mut self.columns;
        self.stage
            .push_with(engine, samples, |start, _thetas, row| {
                columns.push(&isar, start, row.to_vec());
            })
    }

    /// Columns produced so far.
    pub fn n_columns(&self) -> usize {
        self.stage.n_columns()
    }

    /// The spectrogram of every column produced.
    ///
    /// # Panics
    /// Panics if no analysis window completed.
    pub fn finish(self) -> AngleSpectrogram {
        let window = self.cfg().isar.window;
        let (thetas, n_seen) = (self.stage.thetas_deg().to_vec(), self.stage.n_seen());
        self.columns.finish(thetas, n_seen, window)
    }
}

/// Per-session classic-beamforming (Eq. 5.1) state: the
/// amplitude-bearing spectrum the gesture decoder consumes (mode 2) and
/// the §5.2 baseline. Every column is retained, since the decoder needs
/// the whole track for its noise reference.
/// [`crate::isar::beamform_spectrum`] is one push of it.
#[derive(Clone, Debug)]
pub struct BeamformState {
    isar: IsarConfig,
    wb: WindowBuffer,
    columns: Columns,
}

impl BeamformState {
    /// Creates the state for engines built from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: &IsarConfig) -> Self {
        cfg.validate();
        Self {
            isar: *cfg,
            wb: WindowBuffer::new(cfg.window, cfg.hop),
            columns: Columns::default(),
        }
    }

    /// The configuration this session expects of its engine.
    pub fn cfg(&self) -> &IsarConfig {
        &self.isar
    }

    /// Feeds a batch through `engine`, returning the number of new
    /// columns.
    ///
    /// # Panics
    /// Panics if `engine` was built for a different configuration.
    pub fn push(&mut self, engine: &mut BeamformEngine, samples: &[Complex64]) -> usize {
        assert_eq!(
            *engine.cfg(),
            self.isar,
            "shared engine built for a different configuration"
        );
        let (isar, columns) = (&self.isar, &mut self.columns);
        self.wb.push(samples, |start, win| {
            columns.push(isar, start, engine.process_window(win));
        })
    }

    /// Columns produced so far.
    pub fn n_columns(&self) -> usize {
        self.columns.rows.len()
    }

    /// The spectrogram of every column produced.
    ///
    /// # Panics
    /// Panics if no analysis window completed.
    pub fn finish(self) -> AngleSpectrogram {
        let n_seen = self.wb.n_seen();
        self.columns
            .finish(self.isar.thetas_deg(), n_seen, self.isar.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isar::synthetic_target_trace;
    use wivi_num::rng::{complex_gaussian, Rng64};

    fn noisy_trace(n: usize, seed: u64) -> Vec<Complex64> {
        let cfg = IsarConfig::fast_test();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut t = synthetic_target_trace(&cfg, n, 1.0, 4.0, 0.5);
        for z in t.iter_mut() {
            *z += complex_gaussian(&mut rng, 0.05);
        }
        t
    }

    #[test]
    fn window_buffer_emits_every_window_once_and_trims() {
        let mut wb = WindowBuffer::new(8, 3);
        let samples: Vec<Complex64> = (0..40).map(|i| Complex64::from_re(i as f64)).collect();
        let mut starts = Vec::new();
        // Push in awkward chunk sizes.
        for chunk in samples.chunks(5) {
            wb.push(chunk, |start, win| {
                assert_eq!(win.len(), 8);
                assert_eq!(win[0].re, start as f64);
                starts.push(start);
            });
        }
        let expected: Vec<usize> = (0..=32).step_by(3).collect();
        assert_eq!(starts, expected);
        // The retained buffer never grows past one window + one batch.
        assert!(
            wb.buf.len() <= 8 + 5,
            "buffer kept {} samples",
            wb.buf.len()
        );
    }

    #[test]
    fn music_state_is_batch_shape_invariant() {
        let cfg = MusicConfig::fast_test();
        let trace = noisy_trace(150, 9);
        let one_batch = crate::music::music_spectrum(&trace, &cfg);

        for batch in [1usize, 7, 40] {
            let mut engine = MusicEngine::new(cfg);
            let mut state = TrackState::new(&cfg);
            let mut produced = 0;
            for chunk in trace.chunks(batch) {
                produced += state.push(&mut engine, chunk);
            }
            assert_eq!(produced, one_batch.n_times());
            let spec = state.finish();
            assert_eq!(spec.power, one_batch.power, "batch {batch}");
            assert_eq!(spec.times_s, one_batch.times_s, "batch {batch}");
        }
    }

    #[test]
    fn beamform_state_is_batch_shape_invariant() {
        let cfg = IsarConfig::fast_test();
        let trace = noisy_trace(130, 10);
        let one_batch = crate::isar::beamform_spectrum(&trace, &cfg);
        for batch in [1usize, 13] {
            let mut engine = BeamformEngine::new(cfg);
            let mut state = BeamformState::new(&cfg);
            for chunk in trace.chunks(batch) {
                state.push(&mut engine, chunk);
            }
            let spec = state.finish();
            assert_eq!(spec.power, one_batch.power, "batch {batch}");
            assert_eq!(spec.times_s, one_batch.times_s, "batch {batch}");
        }
    }

    #[test]
    fn partial_columns_appear_as_samples_arrive() {
        let cfg = MusicConfig::fast_test(); // window 40, hop 8
        let trace = noisy_trace(64, 11);
        let mut engine = MusicEngine::new(cfg);
        let mut state = TrackState::new(&cfg);
        assert_eq!(
            state.push(&mut engine, &trace[..39]),
            0,
            "no column before one window"
        );
        assert_eq!(state.n_columns(), 0);
        assert_eq!(
            state.push(&mut engine, &trace[39..40]),
            1,
            "first column at window fill"
        );
        // 24 more samples: windows at starts 8, 16, 24 complete.
        assert_eq!(state.push(&mut engine, &trace[40..64]), 3);
        assert_eq!(state.n_columns(), 4);
        assert_eq!(state.finish().n_times(), 4);
    }

    #[test]
    fn interleaved_sessions_on_one_engine_equal_each_session_alone() {
        // Two sessions with different traces share ONE engine, their
        // pushes interleaved in awkward chunks — exactly the serving
        // shard's shape. Each must still produce the columns it produces
        // alone on its own engine, bit for bit.
        let cfg = MusicConfig::fast_test();
        let traces = [noisy_trace(130, 21), noisy_trace(130, 22)];
        let alone: Vec<AngleSpectrogram> = traces
            .iter()
            .map(|t| crate::music::music_spectrum(t, &cfg))
            .collect();

        let mut engine = MusicEngine::new(cfg);
        let mut shared = [
            SharedStreamingMusic::new(&cfg),
            SharedStreamingMusic::new(&cfg),
        ];
        let mut got: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for lo in (0..130usize).step_by(7) {
            let hi = (lo + 7).min(130);
            for s in 0..2 {
                shared[s].push_with(&mut engine, &traces[s][lo..hi], |start, thetas, row| {
                    assert_eq!(thetas, alone[s].thetas_deg);
                    times[s].push(cfg.isar.window_center_s(start));
                    got[s].push(row.to_vec());
                });
            }
        }
        for s in 0..2 {
            assert_eq!(got[s], alone[s].power, "session {s} columns diverged");
            assert_eq!(times[s], alone[s].times_s, "session {s} times diverged");
            assert_eq!(shared[s].n_columns(), got[s].len());
            assert_eq!(shared[s].n_seen(), 130);
        }
    }

    #[test]
    fn interleaved_beamform_sessions_equal_each_session_alone() {
        let cfg = IsarConfig::fast_test();
        let traces = [noisy_trace(110, 23), noisy_trace(110, 24)];
        let mut engine = BeamformEngine::new(cfg);
        let mut shared = [BeamformState::new(&cfg), BeamformState::new(&cfg)];
        for lo in (0..110usize).step_by(9) {
            let hi = (lo + 9).min(110);
            for s in 0..2 {
                shared[s].push(&mut engine, &traces[s][lo..hi]);
            }
        }
        for (s, state) in shared.into_iter().enumerate() {
            let alone = crate::isar::beamform_spectrum(&traces[s], &cfg);
            let got = state.finish();
            assert_eq!(got.power, alone.power, "session {s} columns diverged");
            assert_eq!(got.times_s, alone.times_s);
        }
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn shared_music_rejects_mismatched_engine() {
        // A *non-windowing* mismatch: the noise floor changes the
        // signal-subspace split, so columns would silently differ if
        // only the window geometry were guarded.
        let mut engine = MusicEngine::new(MusicConfig::fast_test());
        let mut cfg = MusicConfig::fast_test();
        cfg.noise_floor_power = Some(1e-6);
        let mut shared = SharedStreamingMusic::new(&cfg);
        shared.push_with(&mut engine, &[Complex64::ZERO], |_, _, _| {});
    }
}
