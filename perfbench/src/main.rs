//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and the host fingerprint, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! metrics are the end-to-end set with `--trace 0` and the per-layer set
//! with `--trace 1`. Exits 2 on a usage error.

use g2pl_core::{set_grid_workers, set_verify};
use g2pl_perfbench::{cells, host, layers, result_json, run, spec, workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Child processes timed for `setup_s`; the median is reported.
const SETUP_RUNS: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad("seconds in (0, 60]"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Median wall time of starting this program, preparing every cell of
/// the workload (see `cells::prepare`), and exiting: the set-up a user
/// pays before the first simulated event.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let t = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-only", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("set-up child: {e}"))?;
        if !status.success() {
            return Err(format!("set-up child exited with {status}"));
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(layers::median(&samples))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(plan) = workload::plan(&args.workload, args.seed, workload::Size::Bench) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if args.setup_only {
        return match cells::prepare(&plan) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: invalid cell: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let workers = host::nproc();
    set_grid_workers(Some(workers));
    set_verify(true);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, catalogue) = if args.trace {
        let spans_out = root
            .join("out")
            .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        (
            run::traced(&plan, workers, args.seconds, args.seed, &spans_out),
            spec::PER_LAYER,
        )
    } else {
        let setup = match setup_seconds(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        (
            run::untraced(&plan, workers, args.seconds, setup),
            spec::END_TO_END,
        )
    };
    println!(
        "{}",
        host::fingerprint(root.parent().unwrap_or(Path::new(".")), workers, workers)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value) in &outcome.metrics {
        let m = catalogue.iter().find(|m| m.name == *name);
        println!(
            "{name} = {value} {}  [{}]",
            m.map_or("", |m| m.unit),
            m.map_or("", |m| m.moves)
        );
    }
    println!("{}", result_json(&outcome, catalogue));
    ExitCode::SUCCESS
}
