//! # g2pl-perfbench
//!
//! The repository benchmark. One command runs a named workload — a set
//! of figure sweeps or sharded scale cells built from the benchmark seed
//! — and prints every end-to-end metric by name with its unit; with
//! `--trace 1` it instead prints the per-layer profile. It reaches the
//! simulator only through public functions (`run_grid`, `run`,
//! `run_scale_with_workers`, the checkers and the substrate types), so
//! each layer is measured from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_writes --seed 1 --seconds 10 --trace 0
//! ```

pub mod cells;
pub mod host;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod workload;

use std::fmt::Write as _;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each `{"value", "unit"}`).
pub fn result_json(outcome: &run::Outcome, catalogue: &[spec::MetricSpec]) -> String {
    let mut metrics = String::new();
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let unit = catalogue
            .iter()
            .find(|m| m.name == *name)
            .map_or("count", |m| m.unit);
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}
