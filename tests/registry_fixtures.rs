//! Every registered figure, pinned byte for byte.
//!
//! `tests/data/` holds the `repro --scale smoke --out` output of every
//! row of the experiment registry: `<id>.csv`, plus `<id>_tail.csv` for
//! the rows that carry pooled tail quantiles. Rebuilding each row through
//! today's code must reproduce both files exactly, so a refactor of the
//! registry, the grid runner or an engine that moves any number shows up
//! here, named by figure.

use g2pl_core::prelude::*;
use std::path::PathBuf;

/// The fixture names of a row: fig2 reuses the fixture pinned before the
/// sharding refactor, every other row is named by its id.
fn fixture_names(id: &str) -> (String, String) {
    match id {
        "fig2" => (
            "fig2_smoke_pr7.csv".into(),
            "fig2_tail_smoke_pr7.csv".into(),
        ),
        _ => (format!("{id}.csv"), format!("{id}_tail.csv")),
    }
}

fn read_fixture(name: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name);
    std::fs::read_to_string(path).ok()
}

#[test]
fn every_registry_row_matches_its_smoke_fixture() {
    for spec in experiments::FIGURES {
        let (csv_name, tail_name) = fixture_names(spec.id);
        let fig = spec.build(Scale::Smoke);
        let csv = read_fixture(&csv_name)
            .unwrap_or_else(|| panic!("{}: fixture tests/data/{csv_name} missing", spec.id));
        assert_eq!(
            fig.to_csv(),
            csv,
            "{} CSV diverged from its fixture",
            spec.id
        );
        match (fig.to_tail_csv(), read_fixture(&tail_name)) {
            (Some(got), Some(want)) => {
                assert_eq!(got, want, "{} tail CSV diverged from its fixture", spec.id);
            }
            (None, None) => {}
            (Some(_), None) => panic!("{}: fixture tests/data/{tail_name} missing", spec.id),
            (None, Some(_)) => panic!("{}: has a tail fixture but no tail data", spec.id),
        }
    }
}
