//! Every registered figure, pinned byte for byte, and every claim of the
//! paper checked on the figures it reads.
//!
//! `tests/data/` holds the `repro --scale smoke --out` output of every
//! row of the experiment registry: `<id>.csv`, plus `<id>_tail.csv` for
//! the rows that carry pooled tail quantiles. Rebuilding each row through
//! today's code must reproduce both files exactly, so a refactor of the
//! registry, the grid runner or an engine that moves any number shows up
//! here, named by figure. The same rows then feed the claim table
//! (`experiments::CLAIMS`): every claim gated at smoke scale must reach
//! its expected verdict.

use g2pl_core::experiments::{check_claims, claim_rows, CLAIMS};
use g2pl_core::prelude::*;
use std::path::PathBuf;

fn read_fixture(name: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name);
    std::fs::read_to_string(path).ok()
}

#[test]
fn every_registry_row_matches_its_smoke_fixture() {
    let mut figs = Vec::new();
    for spec in experiments::FIGURES {
        let (csv_name, tail_name) = (format!("{}.csv", spec.id), format!("{}_tail.csv", spec.id));
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
        figs.push(fig);
    }
    let card = check_claims(CLAIMS, &figs, Scale::Smoke);
    assert!(card.mismatches.is_empty(), "{}", card.table);
}

#[test]
fn default_scale_claims_reach_their_expected_verdict() {
    let claims = || CLAIMS.iter().filter(|c| c.from_scale == Scale::Default);
    let card = check_claims(
        claims(),
        &claim_rows(claims(), Scale::Default),
        Scale::Default,
    );
    assert!(card.mismatches.is_empty(), "{}", card.table);
}
