//! Workspace-wide determinism & protocol-invariant analyzer.
//!
//! The simulator's headline guarantee is that a run's seed fully
//! determines its trace. This crate enforces the source-level rules that
//! guarantee rests on, mechanically, over *every* workspace member (the
//! covered set is derived from the root `Cargo.toml` — see
//! [`workspace`]). It is a real lexer + item-tree parser built on
//! nothing outside `std` ([`lex`], [`parse`]): enough structure to tell
//! a match pattern from an expression and test code from engine code,
//! with no pretension to a full Rust grammar.
//!
//! Lint families:
//!
//! * **L1 — unordered-map iteration.** Iterating a `HashMap`/`HashSet`
//!   yields an arbitrary order that varies across runs and toolchains.
//!   In a decision path that is a nondeterminism bug even when every
//!   element is visited; use `BTreeMap`/`BTreeSet` or sort first.
//! * **L2 — ambient time or entropy.** `std::time::{Instant,
//!   SystemTime}`, `rand::thread_rng`, and hashing's `RandomState` read
//!   wall-clock or OS entropy. All time must come from the simulated
//!   clock, all randomness from seeded [`RngStream`]s; only `simcore`
//!   (which owns those abstractions) is exempt.
//! * **L3 — panicking calls.** `unwrap`/`expect`/`panic!` outside test
//!   code turn recoverable conditions into crashes. Deliberate invariant
//!   assertions are allowed with a justification (see below).
//! * **L4 — RNG-stream discipline.** Every RNG stream must be derived
//!   with a unique string-literal label (or a `derive_indexed` literal
//!   prefix); duplicate labels silently correlate two consumers' draws,
//!   and non-literal labels make uniqueness uncheckable ([`crossfile`]).
//! * **L5 — trace-event completeness.** Every `TraceKind` variant (the
//!   one event vocabulary) must have at least one emission site, and
//!   protocol decision functions must `.emit(..)` an event: an unemitted
//!   event is a verifier blind spot that type-checks ([`crossfile`]).
//! * **L6 — WAL write-ahead ordering.** Within a function, a commit
//!   acknowledgement send must not precede the log append that makes it
//!   durable ([`passes`]).
//! * **L7 — allow hygiene.** `lint:allow` markers must carry a reason
//!   and must still suppress something: a stale allow is a disabled
//!   check nobody remembers disabling.
//! * **SM — state-machine reachability.** The `TxnStatus` transition
//!   graph is extracted from the engines' `set_status` sites; states and
//!   transitions unreachable from the initial state are findings
//!   ([`machine`], rendered with `g2pl-lint --dot`).
//!
//! A finding on line *n* is suppressed by `// lint:allow(Lx): reason`
//! on line *n* or *n − 1*. The reason is mandatory — an allow without
//! one is itself an L7 finding, as is one that no longer fires.
//!
//! [`RngStream`]: ../g2pl_simcore/rng/struct.RngStream.html

pub mod crossfile;
pub mod lex;
pub mod machine;
pub mod parse;
pub mod passes;
pub mod workspace;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// Which lint a diagnostic belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Iteration over `HashMap`/`HashSet`.
    L1,
    /// Ambient time or entropy.
    L2,
    /// `unwrap`/`expect`/`panic!` in non-test engine code.
    L3,
    /// RNG-stream naming discipline.
    L4,
    /// Trace/span event completeness.
    L5,
    /// WAL write-ahead ordering.
    L6,
    /// Allow-marker hygiene (malformed or stale `lint:allow`).
    L7,
    /// State-machine reachability.
    SM,
}

impl Lint {
    fn as_str(self) -> &'static str {
        match self {
            Lint::L1 => "L1",
            Lint::L2 => "L2",
            Lint::L3 => "L3",
            Lint::L4 => "L4",
            Lint::L5 => "L5",
            Lint::L6 => "L6",
            Lint::L7 => "L7",
            Lint::SM => "SM",
        }
    }

    /// Tags a `lint:allow(..)` marker may name. L7 is deliberately
    /// absent: allowing the allow-auditor is a contradiction.
    const ALLOWABLE: [(&'static str, Lint); 7] = [
        ("L1", Lint::L1),
        ("L2", Lint::L2),
        ("L3", Lint::L3),
        ("L4", Lint::L4),
        ("L5", Lint::L5),
        ("L6", Lint::L6),
        ("SM", Lint::SM),
    ];
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a lint violated at a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as given to the analyzer (workspace-relative in CLI use).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated lint.
    pub lint: Lint,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Per-file lint configuration.
#[derive(Clone, Copy, Debug)]
pub struct FileConfig {
    /// Apply L2 (false for `simcore`, which owns the clock and RNG).
    pub check_ambient: bool,
}

impl Default for FileConfig {
    fn default() -> Self {
        FileConfig {
            check_ambient: true,
        }
    }
}

/// One source file handed to [`analyze_sources`].
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
    pub config: FileConfig,
}

/// The full analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// Findings after allow-marker suppression, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// The extracted transaction state machine (for `--dot`).
    pub extraction: machine::Extraction,
}

/// A `lint:allow` marker found in a comment.
#[derive(Debug)]
struct AllowMarker {
    line: usize,
    /// `None` = malformed (unknown tag or missing reason).
    lint: Option<Lint>,
}

fn parse_markers(file: &parse::ParsedFile) -> Vec<AllowMarker> {
    let mut markers = Vec::new();
    for (&line, comment) in &file.comments {
        // Doc comments are documentation: a rustdoc paragraph quoting the
        // marker syntax is not a suppression request.
        if comment.starts_with("///")
            || comment.starts_with("//!")
            || comment.starts_with("/**")
            || comment.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = comment.find("lint:allow(") else {
            continue;
        };
        let after = &comment[pos + "lint:allow(".len()..];
        let lint = Lint::ALLOWABLE.iter().find_map(|(tag, l)| {
            after.strip_prefix(tag).and_then(|rest| {
                let rest = rest.strip_prefix(')')?.trim_start();
                let reason = rest.strip_prefix(':')?.trim();
                (reason.len() >= 3).then_some(*l)
            })
        });
        markers.push(AllowMarker { line, lint });
    }
    markers
}

/// Analyze a set of source files together. Cross-file passes (L4, L5,
/// SM) see the whole set; allow markers are resolved per file and
/// audited for staleness (L7) against the *raw* findings.
#[must_use]
pub fn analyze_sources(sources: &[SourceFile]) -> Analysis {
    let files: Vec<(parse::ParsedFile, FileConfig)> = sources
        .iter()
        .map(|s| (parse::parse(&s.path, &s.text), s.config))
        .collect();

    let mut raw: Vec<Diagnostic> = Vec::new();
    for (file, config) in &files {
        raw.extend(passes::file_passes(file, *config));
    }
    raw.extend(crossfile::l4_rng_streams(&files));
    raw.extend(crossfile::l5_trace_completeness(&files));
    let extraction = machine::extract(&files);
    raw.extend(machine::findings(&extraction));

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for (file, _) in &files {
        let markers = parse_markers(file);
        let covered = passes::non_test_token_lines(file);
        let raw_here: Vec<&Diagnostic> = raw.iter().filter(|d| d.file == file.path).collect();

        // Suppression: a well-formed marker on the finding line or the
        // line above it.
        let suppressed = |d: &Diagnostic| {
            markers
                .iter()
                .any(|m| m.lint == Some(d.lint) && (m.line == d.line || m.line + 1 == d.line))
        };
        diagnostics.extend(
            raw_here
                .iter()
                .filter(|d| !suppressed(d))
                .map(|d| (*d).clone()),
        );

        for m in &markers {
            match m.lint {
                None => {
                    // Malformed markers are audited wherever they appear —
                    // a typo'd tag in test code still reads as a promise.
                    diagnostics.push(Diagnostic {
                        file: file.path.clone(),
                        line: m.line,
                        lint: Lint::L7,
                        message: "malformed lint:allow — use `lint:allow(Lx): reason` \
                                  (reason mandatory, tag one of L1-L6/SM)"
                            .to_string(),
                    });
                }
                Some(lint) => {
                    let used = raw_here
                        .iter()
                        .any(|d| d.lint == lint && (d.line == m.line || d.line == m.line + 1));
                    let on_code = covered.contains(&m.line) || covered.contains(&(m.line + 1));
                    if !used && on_code {
                        diagnostics.push(Diagnostic {
                            file: file.path.clone(),
                            line: m.line,
                            lint: Lint::L7,
                            message: format!(
                                "stale lint:allow({lint}) — no {lint} finding fires on this \
                                 line anymore; remove the marker"
                            ),
                        });
                    }
                }
            }
        }
    }

    diagnostics.sort();
    diagnostics.dedup();
    Analysis {
        diagnostics,
        extraction,
    }
}

/// Scan one file in isolation. Cross-file passes run over the single
/// file (so fixtures can seed L4/L5/SM bugs self-contained).
#[must_use]
pub fn lint_source(file: &str, source: &str, config: FileConfig) -> Vec<Diagnostic> {
    analyze_sources(&[SourceFile {
        path: file.to_string(),
        text: source.to_string(),
        config,
    }])
    .diagnostics
}

/// Analyze every covered workspace member under `root`. Coverage is
/// derived from the root `Cargo.toml` (see [`workspace::discover`]);
/// diagnostics carry workspace-relative paths.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let members = workspace::discover(root)?;
    let mut sources = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for member in &members {
        let config = member.config();
        let files = workspace::member_sources(root, member)
            .map_err(|e| format!("reading {}: {e}", member.rel))?;
        for path in files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if seen.insert(label.clone()) {
                sources.push(SourceFile {
                    path: label,
                    text,
                    config,
                });
            }
        }
    }
    Ok(analyze_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src, FileConfig::default())
    }

    #[test]
    fn flags_hashmap_iteration() {
        let src = "struct S { holds: HashMap<u32, u64> }\n\
                   impl S { fn f(&self) { for x in self.holds.values() { let _ = x; } } }\n";
        let d = lint(src);
        assert!(d.iter().any(|d| d.lint == Lint::L1 && d.line == 2), "{d:?}");
    }

    #[test]
    fn flags_for_loop_over_set() {
        let src =
            "fn f() { let seen: HashSet<u32> = HashSet::new();\nfor x in &seen { let _ = x; } }\n";
        let d = lint(src);
        assert!(d.iter().any(|d| d.lint == Lint::L1 && d.line == 2), "{d:?}");
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "struct S { holds: BTreeMap<u32, u64> }\n\
                   impl S { fn f(&self) { for x in self.holds.values() { let _ = x; } } }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn point_lookups_on_hashmap_are_fine() {
        let src = "struct S { holds: HashMap<u32, u64> }\n\
                   impl S { fn f(&self) -> Option<&u64> { self.holds.get(&1) } }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn flags_ambient_time_and_entropy() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n";
        let d = lint(src);
        assert!(
            d.iter().filter(|d| d.lint == Lint::L2).count() >= 2,
            "{d:?}"
        );
    }

    #[test]
    fn simcore_config_skips_ambient() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let d = lint_source(
            "test.rs",
            src,
            FileConfig {
                check_ambient: false,
            },
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_unwrap_expect_panic() {
        let src = "fn f(x: Option<u32>) -> u32 { let a = x.unwrap(); let b = x.expect(\"no\"); panic!(\"boom\"); }\n";
        let d = lint(src);
        assert_eq!(d.iter().filter(|d| d.lint == Lint::L3).count(), 3, "{d:?}");
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // lint:allow(L3): invariant — x checked above\n\
                   x.unwrap()\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        let same_line = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(L3): checked\n";
        assert!(lint(same_line).is_empty(), "{:?}", lint(same_line));
    }

    #[test]
    fn allow_without_reason_is_l7() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(L3)\n";
        let d = lint(src);
        assert!(
            d.iter()
                .any(|d| d.lint == Lint::L7 && d.message.contains("malformed")),
            "{d:?}"
        );
        // The unsuppressed L3 still fires.
        assert!(d.iter().any(|d| d.lint == Lint::L3), "{d:?}");
    }

    #[test]
    fn stale_allow_is_l7() {
        let src = "fn f(x: u32) -> u32 {\n\
                   // lint:allow(L3): this used to unwrap\n\
                   x + 1\n}\n";
        let d = lint(src);
        assert!(
            d.iter()
                .any(|d| d.lint == Lint::L7 && d.line == 2 && d.message.contains("stale")),
            "{d:?}"
        );
    }

    #[test]
    fn allow_in_test_code_is_never_stale() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t(x: Option<u32>) -> u32 {\n\
                   // lint:allow(L3): test-only helper\n\
                   x.unwrap()\n}\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn prod(x: Option<u32>) { let _ = x; }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[test]\n\
                   fn t() { panic!(\"fine in tests\"); }\n\
                   }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "fn f() -> &'static str {\n\
                   // mention of panic!( and .unwrap() in a comment\n\
                   \"std::time::Instant in a string, panic!(x.unwrap())\"\n\
                   }\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "/* start\n x.unwrap() still commented\n*/\nfn f() {}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn diagnostics_render_file_line_lint() {
        let d = Diagnostic {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            lint: Lint::L1,
            message: "m".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/a.rs:7: L1: m");
    }

    #[test]
    fn cross_file_l4_sees_both_files() {
        let a = SourceFile {
            path: "a.rs".into(),
            text: "fn a(s: u64) { let r = RngStream::derive(s, \"dup\"); }".into(),
            config: FileConfig::default(),
        };
        let b = SourceFile {
            path: "b.rs".into(),
            text: "fn b(s: u64) { let r = RngStream::derive(s, \"dup\"); }".into(),
            config: FileConfig::default(),
        };
        let an = analyze_sources(&[a, b]);
        assert!(
            an.diagnostics
                .iter()
                .any(|d| d.lint == Lint::L4 && d.file == "b.rs"),
            "{:?}",
            an.diagnostics
        );
    }
}
