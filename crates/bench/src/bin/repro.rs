//! `repro` — regenerate every table and figure of the paper, and the
//! extension studies beyond it.
//!
//! ```text
//! repro [--scale smoke|default|full] [--out DIR] [--trace-out DIR]
//!       [--no-verify] [--ascii] [--bench-out FILE] [--baseline FILE] <artifact>...
//!
//! artifacts: table1 table2 fig1 headline scorecard bench scale-bench list
//!            all ext <figure id>...
//! ```
//!
//! Every figure is a row of the declarative registry
//! (`g2pl_core::experiments::FIGURES`): `repro <id>` builds it, `repro
//! list` prints the rows, and the usage message lists their ids. `all`
//! regenerates exactly the paper's artifacts; `ext` runs every `ext-*`
//! extension study in registry order; the fault, tail and scale figures
//! are requested by id.
//!
//! `repro scorecard` builds every row the paper's claims read
//! (`experiments::CLAIMS`) once at `--scale`, prints each claim's
//! expected and measured verdict, and exits 1 when a claim gated at that
//! scale disagrees with its expectation.
//!
//! Markdown goes to stdout; with `--out DIR`, each figure's raw data is
//! also written as `DIR/<id>.csv` — and, for figures that carry pooled
//! tail-quantile sketches (response-time metrics), a side file
//! `DIR/<id>_tail.csv` with `p50,p90,p99,p999,max,count` columns per
//! sweep point. `--ascii` appends a terminal chart under each table.
//! With `--trace-out DIR`, replication 0 of every data point dumps its
//! event stream as `DIR/*.jsonl` for the `trace-explain` analyzer.
//!
//! Every data point self-verifies by default: replication 0 of each
//! configuration is re-checked against the protocol trace properties
//! P1–P10 and conflict-serializability, and the run aborts with
//! diagnostics on any violation. `--no-verify` (or `--verify=off`)
//! disables this for quick, unchecked regeneration.
//!
//! `repro bench` runs the measurement harness (engine hot-spot cells
//! plus timed figure sweeps), prints the report, and writes it as JSON
//! to `--bench-out FILE` (default `BENCH_pr7.json`). With
//! `--baseline FILE`, the run fails if aggregate engine throughput
//! regressed more than 30% below the baseline's — the CI gate.
//!
//! `repro scale-bench` runs one big sharded scale-out cell on the
//! conservative PDES (10k/100k/1M clients at smoke/default/full scale),
//! prints the datapoint, and writes it as JSON to `--bench-out FILE`
//! (default `results/scale_datapoint.json`). `--baseline FILE` adds the
//! committed engine-cell throughput for comparison.

use g2pl_bench::harness;
use g2pl_core::experiments::{self, Scale, CLAIMS, FIGURES};
use g2pl_core::figure::FigureData;
use std::io::Write as _;
use std::path::PathBuf;

/// What `all` regenerates: exactly the paper's artifacts, in order.
const ALL: [&str; 18] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "headline",
];

/// The artifacts that are not registry figures.
const PROSE: [&str; 8] = [
    "table1",
    "table2",
    "fig1",
    "headline",
    "scorecard",
    "bench",
    "scale-bench",
    "list",
];

fn usage() -> ! {
    let figures: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!(
        "usage: repro [--scale smoke|default|full] [--out DIR] [--trace-out DIR] \
         [--no-verify] [--ascii] [--bench-out FILE] [--baseline FILE] <artifact>...\n\
         artifacts: {} all ext\n\
         figures (`list` describes them): {}\n\
         all = the paper's tables and figures; ext = every ext-* study\n\
         verification of every data point is on by default; --no-verify skips it\n\
         --trace-out DIR dumps replication 0 of each point as a JSONL event \
         trace for trace-explain\n\
         bench times engine cells + figure sweeps, writes --bench-out \
         (default BENCH_pr7.json), and fails on >30% throughput regression \
         vs --baseline FILE\n\
         scale-bench runs one big sharded PDES cell, writes --bench-out \
         (default results/scale_datapoint.json); --baseline FILE adds the \
         engine-cell throughput comparison",
        PROSE.join(" "),
        figures.join(" ")
    );
    std::process::exit(2);
}

fn emit_figure(fig: &FigureData, out_dir: &Option<PathBuf>) {
    println!("{}", fig.to_markdown());
    if std::env::args().any(|a| a == "--ascii") {
        println!("```\n{}```\n", fig.to_ascii(64, 16));
    }
    if let Some(dir) = out_dir {
        // lint:allow(L3): CLI fails fast when the output directory cannot be created
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join(format!("{}.csv", fig.id));
        // lint:allow(L3): CLI fails fast when the CSV cannot be created
        let mut f = std::fs::File::create(&path).expect("create csv");
        // lint:allow(L3): CLI fails fast when the CSV cannot be written
        f.write_all(fig.to_csv().as_bytes()).expect("write csv");
        eprintln!("wrote {}", path.display());
        if let Some(tail_csv) = fig.to_tail_csv() {
            let tail_path = dir.join(format!("{}_tail.csv", fig.id));
            // lint:allow(L3): CLI fails fast when the tail CSV cannot be written
            std::fs::write(&tail_path, tail_csv).expect("write tail csv");
            eprintln!("wrote {}", tail_path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;
    let mut bench_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut artifacts: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                i += 1;
                g2pl_core::set_trace_out(Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage()),
                )));
            }
            "--ascii" => {} // handled in emit_figure
            "--no-verify" | "--verify=off" => g2pl_core::set_verify(false),
            "--verify" | "--verify=on" => g2pl_core::set_verify(true),
            "--bench-out" => {
                i += 1;
                bench_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "all" => artifacts.extend(ALL.iter().map(std::string::ToString::to_string)),
            "ext" => artifacts.extend(
                FIGURES
                    .iter()
                    .filter(|f| f.id.starts_with("ext-"))
                    .map(|f| f.id.to_string()),
            ),
            a if PROSE.contains(&a) || experiments::figure(a).is_some() => {
                artifacts.push(a.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    if artifacts.is_empty() {
        usage();
    }

    let mut failed = false;
    for a in &artifacts {
        // lint:allow(L2): host-side wall-clock self-timing of the bench run, reported to stderr
        let started = std::time::Instant::now();
        match a.as_str() {
            "table1" => println!("{}", experiments::table1()),
            "table2" => println!("{}", experiments::table2()),
            "fig1" => println!("{}", experiments::fig1()),
            "headline" => println!("{}", experiments::headline(scale)),
            "list" => print!("{}", experiments::list_figures()),
            "scorecard" => {
                let figs = experiments::claim_rows(CLAIMS, scale);
                let card = experiments::check_claims(CLAIMS, &figs, scale);
                println!("{}", card.table);
                if !card.mismatches.is_empty() {
                    let ids = card.mismatches.join(", ");
                    eprintln!("scorecard: verdict differs from the expected one for {ids}");
                    failed = true;
                }
            }
            "bench" => {
                let report = harness::run_bench(scale);
                println!("{}", report.render());
                let path = bench_out
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("BENCH_pr7.json"));
                // lint:allow(L3): CLI fails fast when the bench report cannot be written
                std::fs::write(&path, report.to_json()).expect("write bench report");
                eprintln!("wrote {}", path.display());
                if let Some(base) = &baseline {
                    // lint:allow(L3): CLI fails fast when the --baseline file is unreadable
                    let text = std::fs::read_to_string(base).expect("read bench baseline");
                    match harness::regression_vs(&text, &report, 0.30) {
                        Some(msg) => {
                            eprintln!("bench: {msg}");
                            failed = true;
                        }
                        None => {
                            eprintln!("bench: within 30% of baseline {}", base.display());
                        }
                    }
                }
            }
            "scale-bench" => {
                let (clients, shards) = harness::scale_bench_size(scale);
                let baseline_text = baseline
                    .as_deref()
                    .or(Some(std::path::Path::new("BENCH_pr7.json")))
                    .and_then(|p| std::fs::read_to_string(p).ok());
                let (md, json) =
                    harness::run_scale_bench(scale, clients, shards, baseline_text.as_deref());
                println!("{md}");
                let path = bench_out
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("results/scale_datapoint.json"));
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    // lint:allow(L3): CLI fails fast when the output directory cannot be created
                    std::fs::create_dir_all(dir).expect("create output directory");
                }
                // lint:allow(L3): CLI fails fast when the datapoint cannot be written
                std::fs::write(&path, json).expect("write scale datapoint");
                eprintln!("wrote {}", path.display());
            }
            id => {
                // lint:allow(L3): argument parsing admits only prose artifacts and registry ids
                let spec = experiments::figure(id).expect("validated above");
                emit_figure(&spec.build(scale), &out_dir);
            }
        }
        // Throughput trailer: what the engines did during this artifact
        // (the counters are drained per artifact, so each line stands
        // alone). `bench` drains them itself and reports via its table.
        let perf = g2pl_core::take_perf();
        let wall = started.elapsed().as_secs_f64();
        if perf.runs > 0 {
            eprintln!(
                "[{a}: {wall:.1}s — {} runs, {} events, {:.2}M events/s, peak calendar {}]",
                perf.runs,
                perf.events,
                perf.events_per_sec() / 1e6,
                perf.peak_calendar
            );
        } else {
            eprintln!("[{a}: {wall:.1}s]");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
