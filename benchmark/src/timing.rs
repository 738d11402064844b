//! What the two compute workloads share: the closed-loop timing ledger
//! and the traced/untraced pass pairs.

use std::time::Instant;

use wivi_bench::serving::REALTIME_RATE;
use wivi_num::probe::{self, ProbeSnapshot};

use crate::report::RunResult;
use crate::stats::{median, tail, window_tail};
use crate::trace::Tracer;

/// Blocks a run of `seconds` measures: `seconds ÷ block_s` rounded to a
/// whole number of `multiple`s, at least one. `block_s` is a block's wall
/// time on the reference host, so a run lasts about `seconds` there; the
/// count follows `--seconds` and not the program's speed, so a faster
/// program finishes the same work sooner instead of measuring more.
pub fn blocks_for(seconds: f64, block_s: f64, multiple: usize) -> usize {
    let multiples = (seconds / block_s / multiple as f64).round();
    // Saturating float-to-int: NaN and negatives give 0.
    (multiples as usize).max(1) * multiple
}

/// Steps a `step_ms.tail` window holds at least: its ten-beyond tail is
/// p96.67 or higher.
pub const STEP_TAIL_WINDOW: usize = 300;

/// One pass over the workload's session set. Times are scaled to the
/// host's nominal speed ([`crate::host`]).
#[derive(Default)]
struct Block {
    samples: usize,
    stream_s: f64,
    /// Streaming wall time as measured.
    raw_stream_s: f64,
    open_s: f64,
    steps_s: Vec<f64>,
    /// Steps already scaled: those of the block's finished sessions.
    scaled_steps: usize,
    opens_s: Vec<f64>,
    firsts_s: Vec<f64>,
}

impl Block {
    fn rate(&self) -> f64 {
        self.samples as f64 / self.stream_s
    }
}

/// Timings of one closed-loop run, block by block. A block is one pass
/// over a fixed set of sessions, so every block has the same mix. The
/// run's block count is fixed by `--seconds` ([`blocks_for`]), so every
/// sample count and tail percentile is independent of the program's
/// speed.
#[derive(Default)]
pub struct Ledger {
    blocks: Vec<Block>,
    current: Block,
}

impl Ledger {
    /// The step-time sink a session appends to.
    pub fn steps(&mut self) -> &mut Vec<f64> {
        &mut self.current.steps_s
    }

    /// Records one session of the current block: its samples, set-up
    /// wall time, set-up start → first output, and streaming wall time,
    /// each divided by `host`, the host factor over the session
    /// ([`crate::host::Gauge::factor`]); so are the steps it appended.
    pub fn session(&mut self, samples: usize, open_s: f64, first_s: f64, stream_s: f64, host: f64) {
        let b = &mut self.current;
        for step in &mut b.steps_s[b.scaled_steps..] {
            *step /= host;
        }
        b.scaled_steps = b.steps_s.len();
        b.samples += samples;
        b.stream_s += stream_s / host;
        b.raw_stream_s += stream_s;
        b.open_s += open_s / host;
        b.opens_s.push(open_s / host);
        b.firsts_s.push(first_s / host);
    }

    /// Closes the current block.
    pub fn end_block(&mut self) {
        self.blocks.push(std::mem::take(&mut self.current));
    }

    /// Blocks recorded.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Sets the timing metrics over all blocks: throughputs from their
    /// summed samples and times, medians and the first-output tail over
    /// their pooled samples, the step tail window by window
    /// ([`window_tail`]).
    pub fn report(&self, out: &mut RunResult) {
        let all = &self.blocks;
        let samples = all.iter().map(|b| b.samples).sum::<usize>() as f64;
        let stream_s: f64 = all.iter().map(|b| b.stream_s).sum();
        let raw_stream_s: f64 = all.iter().map(|b| b.raw_stream_s).sum();
        let open_s: f64 = all.iter().map(|b| b.open_s).sum();
        let pool = |f: fn(&Block) -> &Vec<f64>, scale: f64| -> Vec<f64> {
            all.iter()
                .flat_map(|b| f(b).iter().map(move |s| s * scale))
                .collect()
        };
        let step_ms = pool(|b| &b.steps_s, 1e3);
        let first_ms = pool(|b| &b.firsts_s, 1e3);
        let block_steps_ms: Vec<Vec<f64>> = all
            .iter()
            .map(|b| b.steps_s.iter().map(|s| s * 1e3).collect())
            .collect();
        let (step_tail, first_tail) = (
            window_tail(&block_steps_ms, STEP_TAIL_WINDOW),
            tail(&first_ms),
        );
        out.set("samples_per_s", samples / stream_s);
        out.set("rt_sessions", samples / (stream_s + open_s) / REALTIME_RATE);
        out.set("step_ms.p50", median(&step_ms));
        out.set("step_ms.tail", step_tail.value);
        out.set("setup_s", median(&pool(|b| &b.opens_s, 1.0)));
        out.set("open_rtt_ms.p50", median(&first_ms));
        out.set("open_rtt_ms.tail", first_tail.value);
        let rates: Vec<String> = all.iter().map(|b| format!("{:.0}", b.rate())).collect();
        out.note(format!(
            "block rates at nominal host speed in run order (samples/s): {}",
            rates.join(" ")
        ));
        out.note(format!(
            "samples_per_s unscaled: {:.1}",
            samples / raw_stream_s
        ));
        out.note(format!("step_ms.tail: {}", step_tail.describe()));
        out.note(format!("open_rtt_ms.tail: {}", first_tail.describe()));
    }
}

/// The traced pass a workload's per-layer metrics come from.
pub struct Traced<R> {
    pub tracer: Tracer,
    pub wall_s: f64,
    /// Kernel probe counts gained during the traced pass.
    pub counts: ProbeSnapshot,
    pub result: R,
    /// Traced wall ÷ untraced wall − 1, medians over the pairs, with the
    /// benchmark's own traced-only work taken out of the traced wall.
    pub overhead_frac: f64,
}

/// Share of the traced wall time the spans may leave unattributed.
pub const MAX_UNATTRIBUTED: f64 = 0.1;

/// Runs `pass` untraced (observability off, no bench spans) and then
/// traced (observability on, bench spans), twice, and returns the last
/// traced pass. `same` compares an untraced and a traced result: the
/// program's outputs must not depend on observability; a pair that
/// differs is reported as a failure of both passes' `items`.
/// `bench_only` names spans of work only the traced pass does for the
/// benchmark itself (scrapes, decodes); their self time is taken out of
/// the traced wall before the overhead is computed.
pub fn traced_pairs<R>(
    items: u64,
    out: &mut RunResult,
    bench_only: &[&str],
    mut pass: impl FnMut(&mut Tracer) -> R,
    mut same: impl FnMut(&R, &R) -> bool,
) -> Traced<R> {
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..2 {
        wivi_obs::set_enabled(Some(false));
        let t = Instant::now();
        let plain = pass(&mut Tracer::new(false));
        plain_walls.push(t.elapsed().as_secs_f64());

        wivi_obs::set_enabled(Some(true));
        let before = probe::snapshot();
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let result = pass(&mut tracer);
        let wall_s = t.elapsed().as_secs_f64();
        let counts = probe::snapshot().since(&before);
        wivi_obs::set_enabled(Some(false));
        let bench_s: f64 = bench_only.iter().map(|n| tracer.self_s(n)).sum();
        traced_walls.push(wall_s - bench_s);

        out.attempted += 2 * items;
        if !same(&plain, &result) {
            out.failed += 2 * items;
            out.problem("outputs differ with observability on");
        }
        last = Some((tracer, wall_s, counts, result));
    }
    let (tracer, wall_s, counts, result) = last.expect("two pairs ran");
    Traced {
        tracer,
        wall_s,
        counts,
        result,
        overhead_frac: median(&traced_walls) / median(&plain_walls) - 1.0,
    }
}

impl<R> Traced<R> {
    /// Sets the metrics every traced workload reports: probe counts,
    /// overhead and the wall-time attribution, and checks that the spans
    /// cover all but [`MAX_UNATTRIBUTED`] of the wall time.
    pub fn report_common(&self, out: &mut RunResult) {
        let c = &self.counts;
        out.set("num.eig.calls", c.eig_calls as f64);
        out.set("num.eig.sweeps", c.eig_sweeps as f64);
        out.set("num.eig.rotations", c.rotations.iter().sum::<u64>() as f64);
        out.set("num.focus.calls", c.focus.iter().sum::<u64>() as f64);
        out.set("obs.overhead_frac", self.overhead_frac);
        out.set("bench.wall_s", self.wall_s);
        let unattributed = self.wall_s - self.tracer.total_self_s();
        out.set("bench.unattributed_s", unattributed);
        if !(0.0..=MAX_UNATTRIBUTED * self.wall_s).contains(&unattributed) {
            out.problem(format!(
                "{unattributed:.4} s of the {:.4} s traced wall is unattributed (max {MAX_UNATTRIBUTED} of it)",
                self.wall_s
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(out: &RunResult, name: &str) -> f64 {
        out.metrics.iter().find(|(m, _)| *m == name).unwrap().1
    }

    #[test]
    fn ledger_scales_every_time_by_the_host_factor() {
        let mut l = Ledger::default();
        // Block rates 1000 and 2000 samples/s as measured; the second
        // block ran on a host twice as slow as nominal.
        for (stream, step, host) in [(1.0, 0.001, 1.0), (0.5, 0.0005, 2.0)] {
            l.steps().extend([step, 2.0 * step]);
            l.session(1000, 0.01, 0.02, stream, host);
            l.end_block();
        }
        assert_eq!(l.n_blocks(), 2);
        let mut out = RunResult::default();
        l.report(&mut out);
        // 2000 samples in 1.25 s at nominal speed.
        assert_eq!(get(&out, "samples_per_s"), 2000.0 / 1.25);
        let rt = get(&out, "rt_sessions") * REALTIME_RATE;
        assert!((rt - 2000.0 / 1.265).abs() < 1e-9, "{rt}");
        // Steps 1, 2, 0.25 and 0.5 ms.
        assert_eq!(get(&out, "step_ms.p50"), 0.75);
        assert_eq!(get(&out, "setup_s"), 0.0075);
        assert_eq!(get(&out, "open_rtt_ms.p50"), 15.0);
        assert!(out.notes[0].ends_with("(samples/s): 1000 4000"));
        assert_eq!(out.notes[1], "samples_per_s unscaled: 1333.3");
    }

    /// Runs four blocks of 12 steps (1..=12 ms ÷ `speed`) and 12 sessions;
    /// returns the tail notes and the two tails.
    fn tails_at(speed: f64) -> (Vec<String>, f64, f64) {
        let mut l = Ledger::default();
        for _ in 0..blocks_for(20.0, 5.0, 1) {
            for k in 1..=12 {
                l.steps().push(k as f64 * 1e-3 / speed);
                l.session(100, 0.01, k as f64 * 1e-2 / speed, 0.1 / speed, 1.0);
            }
            l.end_block();
        }
        let mut out = RunResult::default();
        l.report(&mut out);
        let (step, first) = (get(&out, "step_ms.tail"), get(&out, "open_rtt_ms.tail"));
        let tails = out
            .notes
            .into_iter()
            .filter(|n| n.contains("tail"))
            .collect();
        (tails, step, first)
    }

    #[test]
    fn a_faster_program_leaves_the_tail_percentile_unchanged() {
        // A program twice as fast runs the same blocks in half the time;
        // the tails cover the same samples at the same percentile.
        let (slow, fast) = (tails_at(1.0), tails_at(2.0));
        assert_eq!(slow.0, fast.0);
        assert_eq!(
            slow.0,
            [
                "step_ms.tail: median over 1 windows of each one's p79.17 of n=48 (10 beyond)",
                "open_rtt_ms.tail: p79.17 of n=48 (10 beyond)"
            ]
        );
        // The 38th smallest of four blocks' 1..=12: 10 ms and 100 ms.
        assert!((slow.1 - 10.0).abs() < 1e-9 && (slow.2 - 100.0).abs() < 1e-9);
        assert!((fast.1 - 5.0).abs() < 1e-9 && (fast.2 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn the_block_count_follows_the_seconds_not_the_speed() {
        assert_eq!(blocks_for(20.0, 2.5, 4), 8);
        assert_eq!(blocks_for(20.0, 0.8, 1), 25);
        assert_eq!(blocks_for(0.0, 2.5, 4), 4);
        assert_eq!(blocks_for(f64::NAN, 1.0, 3), 3);
    }

    #[test]
    fn traced_pairs_flag_outputs_that_change_with_observability() {
        let _g = crate::test_lock();
        let mut out = RunResult::default();
        let t = traced_pairs(3, &mut out, &[], |tr| tr.is_on(), |a, b| a == b);
        assert!(t.result);
        assert_eq!((out.attempted, out.failed), (12, 12));
        assert!(!out.correct());

        let mut out = RunResult::default();
        traced_pairs(3, &mut out, &[], |_| 1, |a, b| a == b);
        assert_eq!((out.attempted, out.failed), (12, 0));
        assert!(!wivi_obs::enabled(), "observability is left off");
    }

    fn spin(s: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < s {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn bench_only_spans_stay_out_of_the_overhead() {
        let _g = crate::test_lock();
        let mut out = RunResult::default();
        // The traced pass alone spends 20 ms scraping; the program's own
        // work is the same 20 ms either way.
        let t = traced_pairs(
            1,
            &mut out,
            &["bench.scrape"],
            |tr| {
                tr.enter("work");
                spin(0.02);
                tr.exit();
                if tr.is_on() {
                    tr.enter("bench.scrape");
                    spin(0.02);
                    tr.exit();
                }
            },
            |_, _| true,
        );
        assert!(t.overhead_frac.abs() < 0.5, "overhead {}", t.overhead_frac);
        t.report_common(&mut out);
        assert!(out.correct(), "problems: {:?}", out.problems);
    }

    #[test]
    fn unattributed_wall_time_fails_the_run() {
        let _g = crate::test_lock();
        let mut out = RunResult::default();
        let t = traced_pairs(
            1,
            &mut out,
            &[],
            |tr| {
                tr.enter("work");
                spin(0.005);
                tr.exit();
                spin(0.01);
            },
            |_, _| true,
        );
        t.report_common(&mut out);
        assert!(!out.correct());
        assert!(
            out.problems[0].contains("unattributed"),
            "{:?}",
            out.problems
        );
    }
}
