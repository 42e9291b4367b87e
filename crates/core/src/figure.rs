//! Figure/table data containers and text rendering.
//!
//! Every experiment produces a [`FigureData`]: named series of
//! `(x, y, ci)` points, plus axis labels — enough to regenerate any plot
//! of the paper as a markdown table, a CSV file, or a quick ASCII chart.

use g2pl_stats::TailSummary;
use serde::Serialize;
use std::fmt::Write as _;

/// One plotted series (e.g. "g-2PL" or "s-2PL").
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y, ci_half_width)` triples in x order.
    pub points: Vec<(f64, f64, f64)>,
}

/// One point of a tail-quantile series: the pooled response-time
/// quantiles at one sweep position (ticks, from the merged sketch).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TailPoint {
    /// Sweep x value.
    pub x: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
    /// Measured commits pooled into the sketch at this point.
    pub count: u64,
}

impl TailPoint {
    /// The tail row at sweep position `x` from a pooled sketch summary.
    pub fn new(x: f64, t: TailSummary) -> Self {
        TailPoint {
            x,
            p50: t.p50,
            p90: t.p90,
            p99: t.p99,
            p999: t.p999,
            max: t.max,
            count: t.count,
        }
    }
}

/// Per-series tail-quantile columns riding alongside the mean±CI series
/// of a figure. Rendered into a *separate* `<id>_tail.csv` so existing
/// figure CSVs stay byte-identical.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TailSeries {
    /// Legend label, matching the mean series it annotates.
    pub label: String,
    /// One entry per sweep x, in x order.
    pub points: Vec<TailPoint>,
}

impl Series {
    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.0 - x).abs() < 1e-9)
            .map(|p| p.1)
    }
}

/// The data behind one figure or table of the paper.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FigureData {
    /// Experiment id, e.g. "fig2".
    pub id: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
    /// Tail-quantile columns per series (empty when the figure's metric
    /// has no per-observation sketch, e.g. abort percentages).
    pub tails: Vec<TailSeries>,
}

impl FigureData {
    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// All distinct x values, in order of first appearance.
    pub fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _, _) in &s.points {
                if !xs.iter().any(|&v| (v - x).abs() < 1e-9) {
                    xs.push(x);
                }
            }
        }
        xs
    }

    /// Render as a GitHub-flavoured markdown table, one row per x, one
    /// column per series (`mean ± ci`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} ({}) |", s.label, self.y_label);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for x in self.xs() {
            let _ = write!(out, "| {x} |");
            for s in &self.series {
                match s.points.iter().find(|p| (p.0 - x).abs() < 1e-9) {
                    Some(&(_, y, ci)) if ci > 0.0 => {
                        let _ = write!(out, " {y:.1} ± {ci:.1} |");
                    }
                    Some(&(_, y, _)) => {
                        let _ = write!(out, " {y:.1} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as a quick ASCII chart (one glyph per series), for eyeball
    /// verification in a terminal. Linear axes, rows top-down from the
    /// maximum y.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        assert!(width >= 8 && height >= 4, "chart too small to draw");
        let xs = self.xs();
        if xs.is_empty() {
            return format!("({}: no data)\n", self.id);
        }
        let (xmin, xmax) = (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let ymax = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(1e-12);
        let glyphs = ['*', '+', 'o', 'x', '#', '@'];
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = glyphs[si % glyphs.len()];
            for &(x, y, _) in &s.points {
                let col = if xmax > xmin {
                    ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize
                } else {
                    0
                };
                let row = ((1.0 - y / ymax) * (height - 1) as f64).round() as usize;
                let row = row.min(height - 1);
                let col = col.min(width - 1);
                grid[row][col] = glyph;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {} (ymax {:.3e})", self.id, self.title, ymax);
        for row in grid {
            let _ = writeln!(out, "|{}", row.into_iter().collect::<String>());
        }
        let _ = writeln!(out, "+{}", "-".repeat(width));
        let _ = writeln!(out, " x: {xmin} .. {xmax} ({})", self.x_label);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "   {} {}", glyphs[si % glyphs.len()], s.label);
        }
        out
    }

    /// Render as CSV: `x,series,y,ci` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,series,y,ci\n");
        for s in &self.series {
            for &(x, y, ci) in &s.points {
                let _ = writeln!(out, "{x},{},{y},{ci}", s.label);
            }
        }
        out
    }

    /// Render the tail-quantile columns as CSV
    /// (`x,series,p50,p90,p99,p999,max,count`); `None` when the figure
    /// carries no tails, so callers skip the side file entirely.
    pub fn to_tail_csv(&self) -> Option<String> {
        if self.tails.is_empty() {
            return None;
        }
        let mut out = String::from("x,series,p50,p90,p99,p999,max,count\n");
        for s in &self.tails {
            for p in &s.points {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    p.x, s.label, p.p50, p.p90, p.p99, p.p999, p.max, p.count
                );
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureData {
        FigureData {
            id: "figX".into(),
            title: "test figure".into(),
            x_label: "latency".into(),
            y_label: "resp".into(),
            tails: Vec::new(),
            series: vec![
                Series {
                    label: "g-2PL".into(),
                    points: vec![(1.0, 10.0, 0.5), (50.0, 100.0, 2.0)],
                },
                Series {
                    label: "s-2PL".into(),
                    points: vec![(1.0, 12.0, 0.0), (50.0, 130.0, 3.0)],
                },
            ],
        }
    }

    #[test]
    fn xs_collects_unique_in_order() {
        assert_eq!(fig().xs(), vec![1.0, 50.0]);
    }

    #[test]
    fn series_lookup() {
        let f = fig();
        assert!(f.series("g-2PL").is_some());
        assert!(f.series("nope").is_none());
        assert_eq!(f.series("s-2PL").unwrap().y_at(50.0), Some(130.0));
        assert_eq!(f.series("s-2PL").unwrap().y_at(2.0), None);
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = fig().to_markdown();
        assert!(md.contains("| latency |"));
        assert!(md.contains("10.0 ± 0.5"));
        assert!(md.contains("12.0 |"), "zero-ci cell printed bare: {md}");
        assert!(md.contains("130.0 ± 3.0"));
    }

    #[test]
    fn ascii_chart_renders_all_series() {
        let a = fig().to_ascii(40, 10);
        assert!(a.contains('*') && a.contains('+'), "{a}");
        assert!(a.contains("g-2PL"));
        assert!(a.contains("x: 1 .. 50"));
        assert_eq!(a.lines().filter(|l| l.starts_with('|')).count(), 10);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn ascii_chart_rejects_tiny_canvas() {
        fig().to_ascii(4, 2);
    }

    #[test]
    fn ascii_chart_handles_empty_figure() {
        let f = FigureData {
            id: "empty".into(),
            title: "".into(),
            x_label: "".into(),
            y_label: "".into(),
            tails: Vec::new(),
            series: vec![],
        };
        assert!(f.to_ascii(20, 5).contains("no data"));
    }

    #[test]
    fn tail_csv_is_none_without_tails_and_lists_quantiles_with() {
        let mut f = fig();
        assert_eq!(f.to_tail_csv(), None, "no side file without tails");
        f.tails = vec![TailSeries {
            label: "g-2PL".into(),
            points: vec![TailPoint {
                x: 50.0,
                p50: 90,
                p90: 140,
                p99: 200,
                p999: 260,
                max: 300,
                count: 5000,
            }],
        }];
        let csv = f.to_tail_csv().unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,series,p50,p90,p99,p999,max,count");
        assert_eq!(lines[1], "50,g-2PL,90,140,200,260,300,5000");
        // The mean CSV is unchanged by the presence of tails.
        assert_eq!(f.to_csv(), fig().to_csv());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,series,y,ci");
        assert_eq!(lines.len(), 5);
        assert!(lines.contains(&"50,g-2PL,100,2"));
    }
}
