//! End-to-end fixture tests: each `fixtures/*.rs` file seeds the exact
//! violations its lint family must catch (and clean look-alikes the
//! family must NOT catch), and the tests pin the golden diagnostics —
//! file, line, lint tag, and the load-bearing part of the message.
//! Lines are located by searching for the seeded snippet, so editing a
//! fixture's doc comment cannot silently rot the expectations.

use g2pl_lint::{analyze_sources, lint_source, machine, Diagnostic, FileConfig, Lint, SourceFile};

fn findings(fixture: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(fixture, source, FileConfig::default())
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture lost its seeded snippet {needle:?}"))
        + 1
}

fn source(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
        config: FileConfig::default(),
    }
}

#[test]
fn l1_fixture_trips_only_l1() {
    let diags = findings(
        "fixtures/l1_hash_iteration.rs",
        include_str!("../fixtures/l1_hash_iteration.rs"),
    );
    assert!(
        diags.len() >= 3,
        "expected the 3 seeded violations: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.lint == Lint::L1), "{diags:?}");
}

#[test]
fn l2_fixture_trips_only_l2() {
    let diags = findings(
        "fixtures/l2_ambient.rs",
        include_str!("../fixtures/l2_ambient.rs"),
    );
    assert!(diags.iter().any(|d| d.lint == Lint::L2), "{diags:?}");
    assert!(
        diags.iter().filter(|d| d.lint == Lint::L2).count() >= 3,
        "Instant::now, SystemTime::now and thread_rng must all trip: {diags:?}"
    );
}

#[test]
fn l3_fixture_trips_l3_and_audits_bad_marker() {
    let src = include_str!("../fixtures/l3_panics.rs");
    let diags = findings("fixtures/l3_panics.rs", src);
    let l3 = diags.iter().filter(|d| d.lint == Lint::L3).count();
    assert!(
        l3 >= 4,
        "unwrap, expect, panic! and the one under the reason-less allow: {diags:?}"
    );
    // The reason-less `lint:allow(L3)` is malformed, so it suppresses
    // nothing and is itself reported — as L7, the marker-hygiene family.
    let bad = diags
        .iter()
        .filter(|d| d.lint == Lint::L7)
        .collect::<Vec<_>>();
    assert_eq!(bad.len(), 1, "{diags:?}");
    assert_eq!(bad[0].line, line_of(src, "// lint:allow(L3)"));
    assert!(bad[0].message.contains("malformed"), "{}", bad[0]);
}

#[test]
fn l4_fixture_golden() {
    let src = include_str!("../fixtures/l4_rng.rs");
    let diags = findings("fixtures/l4_rng.rs", src);
    let want = [
        (line_of(src, "RngStream::new(seed)"), "unnamed stream"),
        (line_of(src, "seed, label"), "not a string literal"),
        (
            line_of(src, "duplicate of \"net\""),
            "duplicate RNG stream name",
        ),
        (
            line_of(src, "shadows client-<n>"),
            "collides with the indexed",
        ),
    ];
    assert_eq!(diags.len(), want.len(), "{diags:?}");
    for (d, (line, frag)) in diags.iter().zip(want) {
        assert_eq!((d.lint, d.line), (Lint::L4, line), "{d}");
        assert!(d.message.contains(frag), "{d}");
    }
}

#[test]
fn l5_fixture_golden() {
    let def = include_str!("../fixtures/l5_trace_def.rs");
    let drv = include_str!("../fixtures/l5_trace.rs");
    let diags = analyze_sources(&[
        source("fixtures/l5_trace_def.rs", def),
        source("fixtures/l5_trace.rs", drv),
    ])
    .diagnostics;
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Sorted by path, so the driver file's finding comes first.
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line, diags[0].lint),
        (
            "fixtures/l5_trace.rs",
            line_of(drv, "pub fn dispatch"),
            Lint::L5
        ),
        "{diags:?}"
    );
    assert!(diags[0].message.contains("decision function `dispatch`"));
    assert_eq!(
        (diags[1].file.as_str(), diags[1].line, diags[1].lint),
        ("fixtures/l5_trace_def.rs", line_of(def, "Ghost,"), Lint::L5),
        "{diags:?}"
    );
    assert!(diags[1]
        .message
        .contains("`TraceKind::Ghost` is never emitted"));
}

#[test]
fn l5_flight_fixture_golden() {
    // The flight-recorder marker shape: `TraceKind::SlowTxn` built in
    // expression position at export time, outside any `.emit(..)`,
    // counts as an emission, while the seeded `FlightGhost` (only ever
    // consumed) is flagged.
    let def = include_str!("../fixtures/l5_flight_def.rs");
    let drv = include_str!("../fixtures/l5_flight.rs");
    let diags = analyze_sources(&[
        source("fixtures/l5_flight_def.rs", def),
        source("fixtures/l5_flight.rs", drv),
    ])
    .diagnostics;
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line, diags[0].lint),
        (
            "fixtures/l5_flight_def.rs",
            line_of(def, "FlightGhost,"),
            Lint::L5
        ),
        "{diags:?}"
    );
    assert!(diags[0]
        .message
        .contains("`TraceKind::FlightGhost` is never emitted"));
}

#[test]
fn l6_fixture_golden() {
    let src = include_str!("../fixtures/l6_wal.rs");
    let diags = findings("fixtures/l6_wal.rs", src);
    assert_eq!(diags.len(), 3, "{diags:?}");
    for (d, seeded, func) in [
        (&diags[0], "seeded: send precedes", "`broadcast_first`"),
        (&diags[1], "seeded: instant send precedes", "`notify_first`"),
        (&diags[2], "seeded: helper send precedes", "`hop_first`"),
    ] {
        assert_eq!(
            (d.lint, d.line),
            (Lint::L6, line_of(src, seeded)),
            "{diags:?}"
        );
        assert!(d.message.contains(func), "{d}");
    }
}

/// Every send helper L6 counts is a real function of the protocol
/// engines: a renamed or deleted helper would otherwise leave L6
/// silently blind to the sends it ships.
#[test]
fn l6_send_helpers_exist_in_protocols() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../protocols/src");
    let mut engine_src = String::new();
    for entry in std::fs::read_dir(&src_dir).expect("protocols sources") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            engine_src += &std::fs::read_to_string(&path).expect("readable source");
        }
    }
    for helper in g2pl_lint::passes::L6_SEND_HELPERS {
        assert!(
            engine_src.contains(&format!("fn {helper}(")),
            "L6 matches `{helper}`, which no `fn` in crates/protocols/src defines"
        );
    }
}

#[test]
fn l7_fixture_golden() {
    let src = include_str!("../fixtures/l7_stale.rs");
    let diags = findings("fixtures/l7_stale.rs", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        (diags[0].lint, diags[0].line),
        (Lint::L7, line_of(src, "the slice is non-empty")),
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("stale lint:allow(L3)"),
        "{}",
        diags[0]
    );
    assert_eq!(
        (diags[1].lint, diags[1].line),
        (Lint::L7, line_of(src, "no such lint family")),
        "{diags:?}"
    );
    assert!(diags[1].message.contains("malformed"), "{}", diags[1]);
    // The live allow on `live_site` must keep suppressing its unwrap.
    assert!(diags.iter().all(|d| d.lint != Lint::L3), "{diags:?}");
}

#[test]
fn sm_fixture_golden() {
    let src = include_str!("../fixtures/sm_machine.rs");
    let analysis = analyze_sources(&[source("fixtures/sm_machine.rs", src)]);
    let diags = &analysis.diagnostics;
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        (diags[0].lint, diags[0].line),
        (Lint::SM, line_of(src, "Wedged, //")),
        "{diags:?}"
    );
    assert!(diags[0].message.contains("unreachable"), "{}", diags[0]);
    assert_eq!(
        (diags[1].lint, diags[1].line),
        (Lint::SM, line_of(src, "source state is dead")),
        "{diags:?}"
    );
    assert!(diags[1].message.contains("can never fire"), "{}", diags[1]);

    // The DOT render carries the same structure: Active is initial
    // (double circle), the untracked-context write shows as a dashed
    // implicit edge, the guarded self-loop as a solid one.
    let dot = machine::dot(&analysis.extraction);
    assert!(dot.contains("digraph sm_machine {"), "{dot}");
    assert!(dot.contains("\"Active\" [shape=doublecircle];"), "{dot}");
    assert!(
        dot.contains("\"Active\" -> \"Committed\" [style=dashed];"),
        "{dot}"
    );
    assert!(dot.contains("\"Wedged\" -> \"Wedged\";"), "{dot}");
}

#[test]
fn clean_fixture_passes() {
    let diags = findings("fixtures/clean.rs", include_str!("../fixtures/clean.rs"));
    assert!(
        diags.is_empty(),
        "clean fixture must produce no findings: {diags:?}"
    );
}

#[test]
fn diagnostics_point_into_the_fixture() {
    let src = include_str!("../fixtures/l1_hash_iteration.rs");
    let diags = findings("fixtures/l1_hash_iteration.rs", src);
    let lines: Vec<&str> = src.lines().collect();
    for d in &diags {
        assert_eq!(d.file, "fixtures/l1_hash_iteration.rs");
        assert!(d.line >= 1 && d.line <= lines.len(), "{d}");
    }
}

/// The self-test the CI gate leans on: the real workspace — every
/// member crate of the root manifest, minus explicit opt-outs — must
/// come back with zero findings, and the state-machine extractor must
/// actually see the protocol engines (an empty extraction would make
/// the reachability lints vacuously green).
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the workspace root");
    let analysis = g2pl_lint::analyze_workspace(root).expect("workspace discovery");
    assert!(
        analysis.diagnostics.is_empty(),
        "workspace must lint clean:\n{}",
        analysis
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        !analysis.extraction.machines.is_empty(),
        "state-machine extraction must find the protocol engines"
    );
}

/// Golden `--dot` output of the real workspace: one digraph per engine
/// file, no more. Shared protocol code must not grow a machine of its
/// own, and moving code between files must not change any engine's
/// transitions.
#[test]
fn workspace_dot_is_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the workspace root");
    let analysis = g2pl_lint::analyze_workspace(root).expect("workspace discovery");
    assert_eq!(machine::dot(&analysis.extraction), WORKSPACE_DOT);
}

const WORKSPACE_DOT: &str = r#"digraph c2pl {
  rankdir=LR;
  node [shape=circle];
  "Active" [shape=doublecircle];
  "Active";
  "Aborting";
  "Committed";
  "Aborted";
  "Active" -> "Aborted" [style=dashed];
  "Active" -> "Aborting";
  "Active" -> "Committed" [style=dashed];
}
digraph g2pl {
  rankdir=LR;
  node [shape=circle];
  "Active" [shape=doublecircle];
  "Active";
  "Aborting";
  "Committed";
  "Aborted";
  "Aborting" -> "Aborted";
  "Active" -> "Aborted";
  "Active" -> "Aborting";
  "Active" -> "Committed" [style=dashed];
}
digraph s2pl {
  rankdir=LR;
  node [shape=circle];
  "Active" [shape=doublecircle];
  "Active";
  "Aborting";
  "Committed";
  "Aborted";
  "Active" -> "Aborted" [style=dashed];
  "Active" -> "Aborting";
  "Active" -> "Committed" [style=dashed];
}
"#;
