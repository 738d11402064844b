//! The benchmark's command line:
//!
//! ```text
//! wivi-benchmark --workload <track_stream|image_stream|serve_wire>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints input properties and host facts, then, as the last line of
//! standard output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 2 on bad arguments or an inherited
//! environment variable that would change the measured program.

use std::process::ExitCode;

use wivi_benchmark::report::{END_TO_END, PER_LAYER};
use wivi_benchmark::{env, image_stream, serve_wire, track_stream, Opts};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: must be a non-negative number"
        ));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("wivi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let vars = std::env::vars_os().map(|(k, v)| {
        (
            k.to_string_lossy().into_owned(),
            v.to_string_lossy().into_owned(),
        )
    });
    let inherited = env::inherited(vars);
    if !inherited.is_empty() {
        for (k, v) in &inherited {
            eprintln!(
                "wivi-benchmark: refusing to run with {k}={v} set: it changes the measured program"
            );
        }
        return ExitCode::from(2);
    }

    let mut result = match workload.as_str() {
        "track_stream" => track_stream::run(&opts, &track_stream::Plan::committed(opts.seed)),
        "image_stream" => image_stream::run(&opts, &image_stream::Plan::committed(opts.seed)),
        "serve_wire" => serve_wire::run(&opts, &serve_wire::Plan::committed(opts.seed)),
        other => {
            eprintln!("wivi-benchmark: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    result.fill_unset(catalog);
    for line in env::host_notes().iter().chain(&result.notes) {
        println!("# {line}");
    }
    for p in &result.problems {
        println!("# check failed: {p}");
    }
    if result.attempted > 0 {
        println!(
            "# fail_frac: {} ({} of {} failed)",
            result.failed as f64 / result.attempted as f64,
            result.failed,
            result.attempted
        );
    }
    println!("{}", result.json_line(catalog));
    ExitCode::SUCCESS
}
