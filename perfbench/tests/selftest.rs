//! Self-tests of the benchmark: names, the declaration file, seed
//! reproducibility, failure counting and traced/untraced agreement.

use g2pl_perfbench::cells::{run_pass, run_sweep, totals};
use g2pl_perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use g2pl_perfbench::workload::{plan, Plan, Size, Sweep};
use g2pl_perfbench::{result_json, run};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_unique_and_have_units() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(WORKLOADS.iter().map(|w| w.0));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(m.name), "bad metric name {:?}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{} has a bad unit {:?}",
            m.name,
            m.unit
        );
        assert!(!m.moves.is_empty(), "{} states no interaction", m.name);
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
    assert!(
        END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        "setup_s is required"
    );
}

/// The text of one `{ ... }` entry of BENCHMARK.json, found by its name.
fn entry<'a>(doc: &'a str, name: &str) -> &'a str {
    let key = format!("\"name\": \"{name}\"");
    let at = doc
        .find(&key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
    let end = doc[at..].find('}').expect("entries are objects") + at;
    &doc[at..end]
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, why) in WORKLOADS {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is not one short line"
        );
        assert!(
            entry(&doc, name).contains(&format!("\"why\": \"{why}\"")),
            "{name}: rationale differs from the catalogue"
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let e = entry(&doc, m.name);
        assert!(
            e.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "{}: unit",
            m.name
        );
        assert!(
            e.contains(&format!("\"better\": \"{}\"", m.better.as_str())),
            "{}: better",
            m.name
        );
        assert_eq!(
            e.contains("\"bound\""),
            END_TO_END.iter().any(|x| x.name == m.name),
            "{}: only end-to-end metrics carry a bound",
            m.name
        );
    }
    let declared = doc.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    // The "no change" predictions are part of the record.
    assert!(PER_LAYER.iter().any(|m| m.moves.contains("no change")));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.1.contains("predict") || w.1.contains("flat") || w.1.contains("split")));
}

fn tiny(name: &str, seed: u64) -> Plan {
    plan(name, seed, Size::Tiny).expect("a known workload")
}

#[test]
fn same_seed_reproduces_every_sim_and_count_metric() {
    for (name, _) in WORKLOADS {
        let a = run_pass(&tiny(name, 7), 2);
        let b = run_pass(&tiny(name, 7), 2);
        assert_eq!(a.failed(), 0, "{name}");
        assert_eq!(
            a.outcomes, b.outcomes,
            "{name}: same seed, different digests"
        );
        let c = run_pass(&tiny(name, 8), 2);
        assert_ne!(
            totals(a.ok_cells()),
            totals(c.ok_cells()),
            "{name}: a different seed must change the inputs"
        );
    }
}

#[test]
fn a_panicking_cell_is_counted_not_fatal() {
    let Plan::Engine(sweeps) = tiny("paper_writes", 1) else {
        unreachable!("paper_writes runs engine sweeps")
    };
    let mut points = sweeps[0].points[..2].to_vec();
    // An invalid config makes the grid runner panic on that cell.
    points[1].num_clients = 0;
    let sweep = Sweep {
        id: "broken",
        points,
        reps: 2,
    };
    let outcomes = run_sweep(&sweep, &mut Vec::new());
    assert_eq!(outcomes.len(), 4);
    assert!(
        outcomes[..2].iter().all(Option::is_some),
        "the valid point still counts"
    );
    assert!(
        outcomes[2..].iter().all(Option::is_none),
        "the broken point fails"
    );

    let out = run::untraced(&Plan::Engine(vec![sweep]), 2, 0.01, 0.001);
    assert!(!out.correct);
    assert_eq!(
        out.failed * 2,
        out.attempted,
        "half the cells failed on every pass"
    );
    assert_eq!(
        out.metrics.len(),
        END_TO_END.len(),
        "every metric still prints"
    );
    assert!(result_json(&out, END_TO_END).starts_with("{\"correct\": false, \"attempted\": "));
}

#[test]
fn traced_run_agrees_with_the_untraced_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    for (name, _) in WORKLOADS {
        let out = run::traced(&tiny(name, 3), 2, 0.5, 3, &dir.join("spans.jsonl"));
        assert!(out.correct, "{name}: {:?}", out.notes);
        assert_eq!(out.failed, 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(
            names, want,
            "{name}: the traced run prints every per-layer metric"
        );
    }
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans written");
    assert!(spans.lines().all(|l| l.starts_with("{\"id\":")));
    let _ = std::fs::remove_dir_all(&dir);
}
