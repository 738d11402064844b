//! `serve_wire`: the production entry point, closed loop.
//!
//! Each round starts a loopback `WireServer` with 2 shards × 1 worker.
//! One `WireClient` OPENs a seeded mixed-mode session list back to back
//! (the 5-mode `soak_sessions` cycle: 3 of 5 sessions run MUSIC, 1
//! beamforming, 1 imaging), one OPEN outstanding at a time, then sends
//! FINISH and drains to BYE. It is the only workload that exercises
//! admission, shard queues, per-shard engine sharing, the wire codec and
//! the reactor, which competes for the cores with saturated shards — so
//! `open_rtt_ms` is the admission latency a new radio sees on a full box.
//!
//! An open-loop rate sweep with per-session latency is left out: the
//! reactor writes OUTPUT frames only after FINISH, so per-session
//! completion cannot be observed on the wire.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wivi_bench::serving::{soak_sessions, REALTIME_RATE};
use wivi_core::WiViConfig;
use wivi_image::{ImageConfig, ImagingReport};
use wivi_serve::net::{ClientError, FinishReport};
use wivi_serve::wire::encode_session_output;
use wivi_serve::{
    Frame, OpenRequest, ServeConfig, ServeEngine, SessionId, SessionSpec, WireClient, WireServer,
    WireServerConfig, WireServerReport, WIRE_VERSION,
};
use wivi_track::TrackingReport;

use crate::host::Gauge;
use crate::quality::Quality;
use crate::report::RunResult;
use crate::stats::{median, tail, window_tail};
use crate::timing::{blocks_for, traced_pairs};
use crate::trace::Tracer;
use crate::{mix, Opts};

/// Frame type bytes of the wire protocol (DESIGN.md §14) for the two
/// payload kinds the drain returns raw.
const EVENT_TYPE: u8 = 7;
const OUTPUT_TYPE: u8 = 8;

/// Sessions per round and simulated seconds of radio per session.
const SESSIONS: usize = 15;
const DURATION_S: f64 = 4.0;

/// A round's wall time on the reference host (2-vCPU x86-64 VM), about
/// 1.6–2.4 s with its dedicated set-ups: a 30 s run measures 18 rounds,
/// 270 sessions. The count follows `--seconds`, not the throughput.
const ROUND_S: f64 = 1.67;

/// Rounds in one `open_rtt_ms.tail` window: 90 OPENs, so each window's
/// tail is p88.89 whatever `--seconds` and the throughput. RTTs sit on
/// the plateau of the reactor's 500 µs idle sleep up to about p90; past
/// p94 the few OPENs a preempted reactor delays beyond a millisecond
/// decide it. A run measures whole windows; the median takes every
/// OPEN, as its percentile does not move with the count.
const ROUNDS_PER_RTT_WINDOW: usize = 6;

/// Pause between one OPEN_OK and the next OPEN. The reactor polls and
/// sleeps 500 µs when idle, so an OPEN sent the instant the previous one
/// returns races the reactor's next poll: it is answered in ~25 µs or
/// after a full sleep, and the mix flips from run to run with the load.
/// Spaced a poll interval apart, every OPEN arrives like an independent
/// radio's, at a random phase of the reactor's loop.
const OPEN_GAP: Duration = Duration::from_millis(1);

/// Dedicated set-ups (`WireServer::start` → `HELLO_OK` → shutdown) after
/// each round; `setup_s` is the median of these and the rounds' own.
/// Spread between the rounds, they sample the host over the whole run,
/// not one moment of it; twelve rounds give more than two hundred.
const SETUPS_PER_ROUND: usize = 17;

/// The session list a run serves.
pub struct Plan {
    pub sessions: Vec<SessionSpec>,
    pub cfg: WiViConfig,
    /// Engine sizing: shards and workers set explicitly, the rest default.
    pub serve: ServeConfig,
    /// Dedicated set-ups after each round.
    pub setups_per_round: usize,
}

impl Plan {
    /// The committed size: 15 sessions × 4 s, 2 shards × 1 worker.
    pub fn committed(seed: u64) -> Self {
        Self::sized(seed, SESSIONS, DURATION_S)
    }

    /// A reduced size for smoke tests: one session per mode.
    pub fn smoke(seed: u64) -> Self {
        let mut plan = Self::sized(seed, 5, DURATION_S);
        plan.setups_per_round = 3;
        plan
    }

    fn sized(seed: u64, n: usize, duration_s: f64) -> Self {
        let cfg = WiViConfig::paper_default();
        // The soak's scenes; the seed draws every session's radio noise.
        let sessions = soak_sessions(n, duration_s, &cfg)
            .iter()
            .map(|s| respec(s, s.id, mix(seed, s.seed)))
            .collect();
        Self {
            sessions,
            cfg,
            serve: ServeConfig::with_shards_workers(2, 1),
            setups_per_round: SETUPS_PER_ROUND,
        }
    }

    /// A copy of session `i`, for serving it again in-process.
    fn session(&self, i: usize) -> SessionSpec {
        let s = &self.sessions[i];
        respec(s, s.id, s.seed)
    }

    fn server_config(&self) -> WireServerConfig {
        let mut c = WireServerConfig::new(self.serve);
        c.configs.push(("bench".into(), self.cfg));
        for s in &self.sessions {
            c.scenes.push((format!("scene-{}", s.id), s.scene.clone()));
        }
        c
    }

    fn requests(&self) -> Vec<OpenRequest> {
        self.sessions
            .iter()
            .map(|s| OpenRequest {
                id: s.id,
                seed: s.seed,
                duration_s: s.duration_s,
                start_s: s.start_s,
                mode: s.mode.tag().to_owned(),
                scene: format!("scene-{}", s.id),
                config: "bench".into(),
                trace: None,
            })
            .collect()
    }
}

/// `s` under a new id and seed.
fn respec(s: &SessionSpec, id: SessionId, seed: u64) -> SessionSpec {
    SessionSpec::builder(id)
        .scene(s.scene.clone())
        .config(s.config)
        .seed(seed)
        .duration_s(s.duration_s)
        .start_s(s.start_s)
        .mode(s.mode.clone())
        .build()
}

/// How OPEN attempts ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct OpenTally {
    admitted: u64,
    /// Refused with `overloaded` at the queue-full boundary.
    shed: u64,
    /// Any other refusal or transport error.
    errored: u64,
}

impl OpenTally {
    /// Files one OPEN outcome.
    fn record(&mut self, outcome: &Result<u32, ClientError>) {
        match outcome {
            Ok(_) => self.admitted += 1,
            Err(ClientError::Server { code, .. }) if code == "overloaded" => self.shed += 1,
            Err(_) => self.errored += 1,
        }
    }

    /// OPENs that count as failed: shed plus errored.
    fn failed(&self) -> u64 {
        self.shed + self.errored
    }
}

/// What a traced round measured beyond the wire session itself: the
/// HTTP endpoints it sampled and the bench-side decode of the drain.
#[derive(Debug, Default)]
struct Scrape {
    queue_depth_max: u64,
    busy_ns: f64,
    batch_buckets: BTreeMap<u64, u64>,
    shed: f64,
    bytes_in: usize,
    /// Every drained payload decoded to the frame the client saw.
    decoded: bool,
}

struct Round {
    setup_s: f64,
    wall_s: f64,
    /// Server start → the final `/metrics` scrape (traced rounds).
    alive_s: f64,
    rtts_s: Vec<f64>,
    tally: OpenTally,
    admitted: Vec<SessionId>,
    fin: FinishReport,
    server: WireServerReport,
    scrape: Scrape,
}

/// One plain HTTP GET on its own loopback connection; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    Ok(text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_owned()))
}

/// Total shard queue depth from a `/healthz` body.
fn healthz_queue_depth(body: &str) -> u64 {
    body.split("\"queue\":")
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        })
        .sum()
}

/// Folds a Prometheus `/metrics` body: summed shard busy time, the
/// shard batch-latency buckets merged across shards (per-bucket counts
/// keyed by upper bound), and the admission shed counter.
fn fold_metrics(body: &str, scrape: &mut Scrape) {
    let mut per_shard: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: f64 = value.parse().unwrap_or(0.0);
        if key.starts_with("wivi_serve_shard") && key.ends_with("_busy_ns") {
            scrape.busy_ns += v;
        } else if key == "wivi_serve_admission_shed" {
            scrape.shed = v;
        } else if let Some((name, le)) = key.split_once("_batch_latency_ns_bucket{le=\"") {
            if let Ok(hi) = le.trim_end_matches("\"}").parse::<u64>() {
                per_shard.entry(name).or_default().push((hi, v as u64));
            }
        }
    }
    for cum in per_shard.values() {
        let mut prev = 0;
        for &(hi, c) in cum {
            *scrape.batch_buckets.entry(hi).or_default() += c - prev;
            prev = c;
        }
    }
}

/// Percentile `p` of per-bucket counts keyed by upper bound, linearly
/// interpolated from the previous occupied bound (Prometheus's
/// `histogram_quantile` rule).
fn bucket_quantile(buckets: &BTreeMap<u64, u64>, p: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0.0;
    }
    let target = p / 100.0 * total as f64;
    let (mut cum, mut lo) = (0u64, 0u64);
    for (&hi, &c) in buckets {
        if (cum + c) as f64 >= target {
            let frac = (target - cum as f64) / c as f64;
            return lo as f64 + frac * (hi - lo) as f64;
        }
        cum += c;
        lo = hi;
    }
    lo as f64
}

fn round(plan: &Plan, requests: &[OpenRequest], tr: &mut Tracer) -> Result<Round, ClientError> {
    let cfg = plan.server_config();
    let traced = tr.is_on();
    let t_start = Instant::now();
    tr.enter("serve.lifecycle");
    let server = WireServer::start(cfg)?;
    let t_connect = Instant::now();
    let mut client = WireClient::connect(server.addr(), "bench")?;
    tr.exit();
    let setup_s = t_start.elapsed().as_secs_f64();
    let mut scrape = Scrape::default();
    let (mut rtts_s, mut tally, mut admitted) = (Vec::new(), OpenTally::default(), Vec::new());
    for req in requests {
        tr.enter("serve.open");
        let t = Instant::now();
        let outcome = client.open(req.clone());
        let rtt = t.elapsed().as_secs_f64();
        tr.exit();
        tally.record(&outcome);
        if outcome.is_ok() {
            rtts_s.push(rtt);
            admitted.push(req.id);
        }
        if traced {
            tr.enter("serve.scrape");
            let depth = healthz_queue_depth(&http_get(server.addr(), "/healthz")?);
            scrape.queue_depth_max = scrape.queue_depth_max.max(depth);
            tr.exit();
        }
        std::thread::sleep(OPEN_GAP);
    }
    tr.enter("serve.drain");
    let fin = client.finish()?;
    tr.exit();
    let wall_s = t_connect.elapsed().as_secs_f64();
    if traced {
        tr.enter("serve.wire.decode");
        (scrape.bytes_in, scrape.decoded) = decode_payloads(&fin);
        tr.exit();
        tr.enter("serve.scrape");
        fold_metrics(&http_get(server.addr(), "/metrics")?, &mut scrape);
        tr.exit();
    }
    let alive_s = t_start.elapsed().as_secs_f64();
    tr.enter("serve.lifecycle");
    let server = server.shutdown()?;
    tr.exit();
    Ok(Round {
        setup_s,
        wall_s,
        alive_s,
        rtts_s,
        tally,
        admitted,
        fin,
        server,
        scrape,
    })
}

/// Set-up time alone: start → `HELLO_OK`, then an idle shutdown.
fn setup_once(plan: &Plan) -> Result<f64, ClientError> {
    let cfg = plan.server_config();
    let t = Instant::now();
    let server = WireServer::start(cfg)?;
    let client = WireClient::connect(server.addr(), "bench")?;
    let s = t.elapsed().as_secs_f64();
    drop(client);
    server.shutdown()?;
    Ok(s)
}

/// Decodes every drained payload back through the frame codec and
/// checks it against what the client decoded. Returns the payload bytes
/// and whether every frame round-tripped.
fn decode_payloads(fin: &FinishReport) -> (usize, bool) {
    let mut bytes = 0;
    let mut ok = true;
    let mut body = Vec::new();
    let mut frame = |ty: u8, payload: &[u8]| -> Option<Frame> {
        body.clear();
        body.extend_from_slice(&[WIRE_VERSION, ty]);
        body.extend_from_slice(payload);
        bytes += payload.len();
        Frame::decode_body(&body).ok()
    };
    for (p, e) in fin.event_bytes.iter().zip(&fin.events) {
        ok &= matches!(frame(EVENT_TYPE, p), Some(Frame::Event(d)) if d == *e);
    }
    for (p, o) in fin.output_bytes.iter().zip(&fin.outputs) {
        ok &= matches!(frame(OUTPUT_TYPE, p), Some(Frame::Output(d)) if d == *o);
    }
    (bytes, ok)
}

/// Per-round output checks. Returns the admitted sessions that failed:
/// no OUTPUT, more than one, a short stream, or bytes that differ from
/// the canonical encoding of the server's own report.
fn failed_sessions(r: &Round) -> u64 {
    let mut failed = 0;
    for &id in &r.admitted {
        let outs: Vec<usize> = (0..r.fin.outputs.len())
            .filter(|&k| r.fin.outputs[k].id == id)
            .collect();
        let ok = match (outs.as_slice(), r.server.report.output(id)) {
            ([k], Some(out)) => {
                let o = &r.fin.outputs[*k];
                o.n_samples == o.n_requested
                    && o.n_samples > 0
                    && r.fin.output_bytes[*k] == encode_session_output(out)
            }
            _ => false,
        };
        if !ok {
            failed += 1;
        }
    }
    failed
}

/// Runs the workload.
pub fn run(opts: &Opts, plan: &Plan) -> RunResult {
    let mut out = RunResult::default();
    let requests = plan.requests();
    let mut per_mode: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &plan.sessions {
        *per_mode.entry(s.mode.tag()).or_default() += 1;
    }
    let modes: Vec<String> = per_mode.iter().map(|(m, n)| format!("{m}={n}")).collect();
    out.note(format!(
        "input: {} sessions per round ({}), {} s of radio each, {} shards x {} worker, 1 client",
        plan.sessions.len(),
        modes.join(" "),
        plan.sessions[0].duration_s,
        plan.serve.n_shards,
        plan.serve.workers_per_shard
    ));

    wivi_obs::set_enabled(Some(false));
    // Untimed warm-up: one round of the first mode cycle.
    let warm = &requests[..requests.len().min(5)];
    if let Err(e) = round(plan, warm, &mut Tracer::new(false)) {
        out.problem(format!("warm-up round failed: {e}"));
        return out;
    }
    if opts.trace {
        traced(plan, &requests, &mut out);
    } else {
        untraced(opts, plan, &requests, &mut out);
    }
    wivi_obs::set_enabled(Some(false));
    out
}

/// What one untimed-overhead round measured.
#[derive(Default)]
struct RoundTimes {
    samples: f64,
    /// Connect → BYE.
    wall_s: f64,
    /// The sessions' summed shard step time.
    shard_s: f64,
    /// Each session's mean shard step, ms.
    steps_ms: Vec<f64>,
    /// The round's own set-up and the dedicated set-ups after it, s.
    setups_s: Vec<f64>,
    /// OPEN → OPEN_OK of every admitted session, ms.
    rtts_ms: Vec<f64>,
    /// The host factor over the round and its set-ups.
    host: f64,
}

fn untraced(opts: &Opts, plan: &Plan, requests: &[OpenRequest], out: &mut RunResult) {
    let mut rounds: Vec<RoundTimes> = Vec::new();
    let n_rounds = blocks_for(opts.seconds, ROUND_S, ROUNDS_PER_RTT_WINDOW);
    let mut first: Option<Round> = None;
    let t_run = Instant::now();
    // The shards keep both cores busy: read the host on both.
    let mut gauge = Gauge::start(2);
    while rounds.len() < n_rounds {
        out.attempted += requests.len() as u64;
        let r = match round(plan, requests, &mut Tracer::new(false)) {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("round failed: {e}"));
                out.failed += requests.len() as u64;
                return;
            }
        };
        out.failed += r.tally.failed() + failed_sessions(&r);
        if let Some(f) = &first {
            // Rounds serve identical inputs: identical bytes.
            if r.fin.output_bytes != f.fin.output_bytes || r.fin.event_bytes != f.fin.event_bytes {
                out.problem("a round's served bytes differ from the first round's");
            }
        }
        let mut setups_s = vec![r.setup_s];
        for _ in 0..plan.setups_per_round {
            match setup_once(plan) {
                Ok(s) => setups_s.push(s),
                Err(e) => out.problem(format!("set-up failed: {e}")),
            }
        }
        let outputs = &r.server.report.outputs;
        rounds.push(RoundTimes {
            samples: r.fin.outputs.iter().map(|o| o.n_samples).sum::<u64>() as f64,
            wall_s: r.wall_s,
            shard_s: outputs.iter().map(|o| o.stream_s).sum(),
            // Each session's mean shard step: its summed batch
            // processing time over its batches.
            steps_ms: outputs
                .iter()
                .map(|o| {
                    1e3 * o.stream_s / o.n_samples.div_ceil(plan.serve.batch_len).max(1) as f64
                })
                .collect(),
            setups_s,
            rtts_ms: r.rtts_s.iter().map(|s| s * 1e3).collect(),
            host: gauge.factor(),
        });
        if first.is_none() {
            first = Some(r);
        }
    }
    let first = first.expect("one round ran");
    out.note(format!(
        "input: {} rounds in {:.2} s",
        rounds.len(),
        t_run.elapsed().as_secs_f64()
    ));

    reference_check(opts.seed, plan, &first, out);
    out.note(quality(plan, &first).describe());

    let all = &rounds;
    let sum = |f: fn(&RoundTimes) -> f64| all.iter().map(f).sum::<f64>();
    let samples = sum(|t| t.samples);
    let pool = |f: fn(&RoundTimes) -> &Vec<f64>, scaled: bool| -> Vec<f64> {
        all.iter()
            .flat_map(|t| {
                let h = if scaled { t.host } else { 1.0 };
                f(t).iter().map(move |x| x / h)
            })
            .collect()
    };
    let steps = pool(|t| &t.steps_ms, true);
    let setups = pool(|t| &t.setups_s, true);
    let rtts = pool(|t| &t.rtts_ms, false);
    let round_rtts: Vec<Vec<f64>> = all.iter().map(|t| t.rtts_ms.clone()).collect();
    let rtt_tail = window_tail(&round_rtts, ROUNDS_PER_RTT_WINDOW * plan.sessions.len());
    let step_tail = tail(&steps);
    out.set("samples_per_s", samples / sum(|t| t.shard_s / t.host));
    out.set(
        "rt_sessions",
        samples / sum(|t| t.wall_s / t.host) / REALTIME_RATE,
    );
    out.set("step_ms.p50", median(&steps));
    out.set("step_ms.tail", step_tail.value);
    out.set("setup_s", median(&setups));
    out.set("open_rtt_ms.p50", median(&rtts));
    out.set("open_rtt_ms.tail", rtt_tail.value);
    let rates: Vec<String> = all
        .iter()
        .map(|t| format!("{:.0}", t.samples / t.wall_s * t.host))
        .collect();
    out.note(format!(
        "delivered rates at nominal host speed in run order (samples/s): {}",
        rates.join(" ")
    ));
    out.note(format!(
        "unscaled: samples_per_s {:.1}, rt_sessions {:.4}, step_ms.p50 {:.4}, setup_s {:.6}",
        samples / sum(|t| t.shard_s),
        samples / sum(|t| t.wall_s) / REALTIME_RATE,
        median(&pool(|t| &t.steps_ms, false)),
        median(&pool(|t| &t.setups_s, false))
    ));
    out.note(gauge.describe());
    out.note(format!(
        "step_ms.tail: {} sessions' mean shard steps",
        step_tail.describe()
    ));
    out.note(format!("open_rtt_ms.tail: {}", rtt_tail.describe()));
    out.note(format!("setup_s: median of {} set-ups", setups.len()));
}

/// Serves a seeded subset (one session per mode) in-process on the same
/// build and compares its canonical OUTPUT bytes with what the wire
/// delivered.
fn reference_check(seed: u64, plan: &Plan, first: &Round, out: &mut RunResult) {
    let n = plan.sessions.len();
    let per_mode = (n / 5).max(1);
    let ids: Vec<usize> = (0..5.min(n))
        .map(|m| m + 5 * (mix(seed, m as u64) % per_mode as u64) as usize)
        .filter(|&i| i < n)
        .collect();
    let mut engine = ServeEngine::start(plan.serve);
    for &i in &ids {
        if let Err(e) = engine.open(plan.session(i)) {
            out.problem(format!("in-process open {i} failed: {e}"));
        }
    }
    let reference = engine.finish();
    for &i in &ids {
        let id = plan.sessions[i].id;
        let served = first
            .fin
            .outputs
            .iter()
            .position(|o| o.id == id)
            .map(|k| &first.fin.output_bytes[k]);
        let local = reference.output(id).map(encode_session_output);
        if served.is_none() || served != local.as_ref() {
            out.problem(format!(
                "session {id}: wire OUTPUT differs from in-process serving"
            ));
            out.failed += 1;
        }
    }
}

/// Scores the delivered track_targets and imaging sessions. The
/// algorithms' quality bands are checked by `track_stream` and
/// `image_stream`; here the check is that the wire delivers exactly what
/// in-process serving produces.
fn quality(plan: &Plan, r: &Round) -> Quality {
    let mut q = Quality::default();
    for spec in &plan.sessions {
        let Some(o) = r.server.report.output(spec.id) else {
            continue;
        };
        if let Some(rep) = o.result.get::<TrackingReport>() {
            q.add_tracking(&spec.scene, &spec.config, rep);
        } else if let Some(rep) = o.result.get::<ImagingReport>() {
            q.add_imaging(&spec.scene, &ImageConfig::for_wivi(&spec.config), rep);
        }
    }
    q
}

fn traced(plan: &Plan, requests: &[OpenRequest], out: &mut RunResult) {
    // The scrapes and the decode are the benchmark's own work: the
    // untraced round does neither, so they stay out of the overhead.
    let t = traced_pairs(
        requests.len() as u64,
        out,
        &["serve.scrape", "serve.wire.decode"],
        |tr| round(plan, requests, tr),
        |a, b| match (a, b) {
            (Ok(a), Ok(b)) => a.fin.output_bytes == b.fin.output_bytes,
            _ => false,
        },
    );
    let r = match &t.result {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("round failed: {e}"));
            return;
        }
    };
    out.failed += r.tally.failed() + failed_sessions(r);
    let s = &r.scrape;
    if !s.decoded {
        out.problem("a drained payload did not decode to the client's frame");
    }
    let capacity = r.alive_s * plan.serve.threads() as f64;
    let spans = &t.tracer;
    out.set("serve.lifecycle_s", spans.self_s("serve.lifecycle"));
    out.set("serve.open_s", spans.self_s("serve.open"));
    out.set("serve.drain_s", spans.self_s("serve.drain"));
    out.set("serve.scrape_s", spans.self_s("serve.scrape"));
    out.set("serve.wire.decode_s", spans.self_s("serve.wire.decode"));
    out.set("serve.wire.bytes_in", s.bytes_in as f64);
    out.set("serve.queue_depth.max", s.queue_depth_max as f64);
    out.set("serve.shard.busy_frac", s.busy_ns / 1e9 / capacity);
    out.set(
        "serve.shard.batches",
        s.batch_buckets.values().sum::<u64>() as f64,
    );
    out.set(
        "serve.shard.batch_ms.p50",
        bucket_quantile(&s.batch_buckets, 50.0) / 1e6,
    );
    out.set(
        "serve.shard.batch_ms.p99",
        bucket_quantile(&s.batch_buckets, 99.0) / 1e6,
    );
    out.set("serve.shed", s.shed);
    quality(plan, r).report(out);
    t.report_common(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    #[test]
    fn shed_and_errored_opens_count_as_failed() {
        let mut t = OpenTally::default();
        t.record(&Ok(0));
        t.record(&Err(ClientError::Server {
            code: "overloaded".into(),
            id: 1,
            message: "queue full".into(),
        }));
        t.record(&Err(ClientError::Server {
            code: "unknown_scene".into(),
            id: 2,
            message: "no such scene".into(),
        }));
        t.record(&Err(ClientError::Protocol("expected OPEN_OK")));
        assert_eq!(
            t,
            OpenTally {
                admitted: 1,
                shed: 1,
                errored: 2
            }
        );
        assert_eq!(t.failed(), 3);
    }

    #[test]
    fn healthz_and_metrics_bodies_fold() {
        let h = r#"{"status":"ok","shards":[{"shard":0,"alive":true,"queue":2},{"shard":1,"alive":true,"queue":3}],"connections":1}"#;
        assert_eq!(healthz_queue_depth(h), 5);

        let m = "# TYPE wivi_serve_shard0_busy_ns counter\nwivi_serve_shard0_busy_ns 1000\n\
                 wivi_serve_shard1_busy_ns 500\nwivi_serve_admission_shed 2\n\
                 wivi_serve_shard0_batch_latency_ns_bucket{le=\"100\"} 1\n\
                 wivi_serve_shard0_batch_latency_ns_bucket{le=\"200\"} 3\n\
                 wivi_serve_shard0_batch_latency_ns_bucket{le=\"+Inf\"} 3\n\
                 wivi_serve_shard1_batch_latency_ns_bucket{le=\"200\"} 1\n";
        let mut s = Scrape::default();
        fold_metrics(m, &mut s);
        assert_eq!(s.busy_ns, 1500.0);
        assert_eq!(s.shed, 2.0);
        assert_eq!(s.batch_buckets, BTreeMap::from([(100, 1), (200, 3)]));
        assert_eq!(bucket_quantile(&s.batch_buckets, 25.0), 100.0);
        assert_eq!(bucket_quantile(&s.batch_buckets, 100.0), 200.0);
    }

    #[test]
    fn smoke_untraced_round_trip_is_correct() {
        let _g = crate::test_lock();
        let opts = Opts {
            seed: 7,
            seconds: 0.0,
            trace: false,
        };
        let mut r = run(&opts, &Plan::smoke(7));
        assert!(r.correct(), "problems: {:?}", r.problems);
        // One tail window of rounds, five sessions each.
        assert_eq!(r.attempted, 5 * ROUNDS_PER_RTT_WINDOW as u64);
        r.fill_unset(END_TO_END);
        r.json_line(END_TO_END);
        let get = |n: &str| r.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
        assert!(get("rt_sessions") > 0.0 && get("open_rtt_ms.p50") > 0.0);
        assert!(get("setup_s") > 0.0 && get("step_ms.tail") >= get("step_ms.p50"));
    }

    #[test]
    fn smoke_traced_round_reports_the_serving_layers() {
        let _g = crate::test_lock();
        let opts = Opts {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let mut r = run(&opts, &Plan::smoke(7));
        assert!(r.correct(), "problems: {:?}", r.problems);
        r.fill_unset(PER_LAYER);
        r.json_line(PER_LAYER);
        let get = |n: &str| r.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
        assert!(get("serve.shard.batches") > 0.0 && get("serve.wire.bytes_in") > 0.0);
        assert!(
            get("num.eig.calls") > 0.0,
            "server threads share the process probe"
        );
        assert!(get("track.count_accuracy") > 0.0 && get("image.detection_rate") > 0.0);
        assert_eq!(get("serve.shed"), 0.0);
        let un = get("bench.unattributed_s");
        assert!(
            un >= 0.0 && un < 0.1 * get("bench.wall_s"),
            "unattributed {un}"
        );
    }
}
