//! Transaction state-machine extractor.
//!
//! The three engines drive a shared `TxnStatus` machine through
//! `set_status` calls scattered across thousands of lines; no single
//! file shows the whole graph. This pass rebuilds it: states from the
//! `TxnStatus` enum, the initial state from the struct-literal
//! initialiser, and one edge per `set_status` call with its *source*
//! state recovered from context — the enclosing `match status` arm, a
//! preceding `debug_assert_eq!(status, …)`, an `if status == …` guard,
//! or the fall-through set of a filtering match (arms that `return`
//! cannot reach the call). A call with no recoverable source is an
//! *implicit* edge from the initial state.
//!
//! Reachability over the union graph then makes dead protocol paths a
//! lint finding: a state no edge reaches is dead, and a transition out
//! of a dead state can never fire.

use crate::lex::Tok;
use crate::parse::{walk_enums, Arm, Block, ParsedFile, Stmt};
use crate::passes::non_test_fns;
use crate::{Diagnostic, Lint};
use std::collections::{BTreeMap, BTreeSet};

/// The status enum the extractor reconstructs.
pub const STATUS_ENUM: &str = "TxnStatus";
/// The setter whose calls are the machine's edges.
const SETTER: &str = "set_status";

/// One extracted transition.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: String,
    pub to: String,
    /// Line of the `set_status` call.
    pub line: usize,
    /// No source-state context was recoverable; `from` is the initial
    /// state by assumption, not by proof.
    pub implicit: bool,
}

/// The machine extracted from one engine file.
#[derive(Debug)]
pub struct Machine {
    /// Engine label: the file stem (`g2pl`, `s2pl`, `c2pl`).
    pub name: String,
    pub file: String,
    pub edges: Vec<Edge>,
}

/// The full extraction result.
#[derive(Debug, Default)]
pub struct Extraction {
    /// `(variant, line)` of the status enum, declaration order.
    pub states: Vec<(String, usize)>,
    /// File defining the status enum.
    pub def_file: String,
    pub initial: Option<String>,
    pub machines: Vec<Machine>,
}

/// Extract the status machine from the parsed workspace.
pub fn extract(files: &[(ParsedFile, crate::FileConfig)]) -> Extraction {
    let mut ext = Extraction::default();
    for (file, _) in files {
        walk_enums(&file.items, &mut |e| {
            if e.name == STATUS_ENUM && !e.in_test && ext.states.is_empty() {
                ext.states = e.variants.clone();
                ext.def_file = file.path.clone();
            }
        });
    }
    if ext.states.is_empty() {
        return ext;
    }

    // Initial state: the struct-literal field init `status: TxnStatus::X`.
    for (file, _) in files {
        non_test_fns(file, &mut |func| {
            crate::parse::walk_stmts(&func.body, &mut |stmt| {
                let toks = stmt_tokens(stmt);
                for i in 0..toks.len() {
                    if toks[i].is_ident("status")
                        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    {
                        if let Some(st) = variant_at(&toks, i + 2) {
                            ext.initial.get_or_insert(st);
                        }
                    }
                }
            });
        });
    }

    for (file, _) in files {
        let mut edges: Vec<Edge> = Vec::new();
        non_test_fns(file, &mut |func| {
            walk_block(&func.body, &[], &ext, &mut edges);
        });
        if !edges.is_empty() {
            edges.sort();
            edges.dedup();
            let name = file
                .path
                .rsplit('/')
                .next()
                .unwrap_or(&file.path)
                .trim_end_matches(".rs")
                .to_string();
            ext.machines.push(Machine {
                name,
                file: file.path.clone(),
                edges,
            });
        }
    }
    ext.machines.sort_by(|a, b| a.name.cmp(&b.name));
    ext
}

fn stmt_tokens(stmt: &Stmt) -> Vec<Tok> {
    match stmt {
        Stmt::Plain { tokens, .. } => tokens.clone(),
        Stmt::Match { scrutinee, .. } => scrutinee.clone(),
    }
}

/// `TxnStatus :: Variant` starting at token `i`? Returns the variant.
fn variant_at(toks: &[Tok], i: usize) -> Option<String> {
    if toks.get(i)?.is_ident(STATUS_ENUM)
        && toks.get(i + 1)?.kind == crate::lex::TokKind::PathSep
        && toks.get(i + 2)?.kind == crate::lex::TokKind::Ident
    {
        Some(toks[i + 2].text.clone())
    } else {
        None
    }
}

/// Every `TxnStatus::X` variant named in a token run (for `A | B` arm
/// patterns and assert arguments).
fn variants_in(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if let Some(v) = variant_at(toks, i) {
            out.push(v);
        }
    }
    out
}

fn mentions_status(toks: &[Tok]) -> bool {
    toks.iter().any(|t| t.is_ident("status"))
}

/// Does this arm body escape the enclosing function (so control cannot
/// fall through past the match)?
fn arm_escapes(arm: &Arm) -> bool {
    arm.body.stmts.iter().any(|s| {
        let toks = stmt_tokens(s);
        toks.first()
            .is_some_and(|t| t.is_ident("return") || t.is_ident("continue") || t.is_ident("break"))
    })
}

/// Walk one block with `ctx` = the set of states the status variable is
/// known to hold here (empty = unknown). Appends discovered edges.
fn walk_block(block: &Block, ctx: &[String], ext: &Extraction, edges: &mut Vec<Edge>) {
    let mut ctx: Vec<String> = ctx.to_vec();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Match {
                scrutinee, arms, ..
            } if mentions_status(scrutinee) => {
                // Inside each arm the state is the arm's pattern set.
                let mut fallthrough: Vec<String> = Vec::new();
                for arm in arms {
                    let states = variants_in(&arm.pattern);
                    walk_block(&arm.body, &states, ext, edges);
                    if !arm_escapes(arm) {
                        fallthrough.extend(states);
                    }
                }
                // After a filtering match, only fall-through arms' states
                // survive (g2pl `finalize_abort` shape). If any arm had
                // no recognisable state (wildcard), knowledge is lost.
                let complete = arms
                    .iter()
                    .all(|a| !variants_in(&a.pattern).is_empty() || arm_escapes(a));
                ctx = if complete { fallthrough } else { Vec::new() };
                ctx.sort();
                ctx.dedup();
            }
            Stmt::Match { arms, .. } => {
                for arm in arms {
                    walk_block(&arm.body, &ctx, ext, edges);
                }
            }
            Stmt::Plain {
                tokens, children, ..
            } => {
                let is_assert = tokens
                    .first()
                    .is_some_and(|t| t.is_ident("debug_assert_eq") || t.is_ident("assert_eq"));
                if is_assert && mentions_status(tokens) {
                    // debug_assert_eq!(status(..), TxnStatus::X) pins the
                    // state for the rest of this block.
                    let vs = variants_in(tokens);
                    if vs.len() == 1 {
                        ctx = vs;
                    }
                    continue;
                }
                // set_status(.., TxnStatus::X): one edge per known source
                // state, or an implicit edge from the initial state.
                for i in 0..tokens.len() {
                    if tokens[i].is_punct('.')
                        && tokens.get(i + 1).is_some_and(|t| t.is_ident(SETTER))
                    {
                        if let Some(to) = variants_in(&tokens[i + 2..]).into_iter().next() {
                            if ctx.is_empty() {
                                if let Some(init) = &ext.initial {
                                    edges.push(Edge {
                                        from: init.clone(),
                                        to: to.clone(),
                                        line: tokens[i + 1].line,
                                        implicit: true,
                                    });
                                }
                            } else {
                                for from in &ctx {
                                    edges.push(Edge {
                                        from: from.clone(),
                                        to: to.clone(),
                                        line: tokens[i + 1].line,
                                        implicit: false,
                                    });
                                }
                            }
                            // The write itself is the strongest context.
                            ctx = vec![to];
                        }
                    }
                }
                // `if status == TxnStatus::X { … }` guards the first child
                // block — but only when the comparison is the whole
                // condition (no `||` escape hatch).
                let has_or = tokens
                    .windows(2)
                    .any(|w| w[0].is_punct('|') && w[1].is_punct('|'));
                let guard = if tokens.first().is_some_and(|t| t.is_ident("if"))
                    && mentions_status(tokens)
                    && !has_or
                    && tokens
                        .windows(2)
                        .any(|w| w[0].is_punct('=') && w[1].is_punct('='))
                {
                    variants_in(tokens)
                } else {
                    Vec::new()
                };
                for (ci, child) in children.iter().enumerate() {
                    if ci == 0 && guard.len() == 1 {
                        walk_block(child, &guard, ext, edges);
                    } else {
                        walk_block(child, &ctx, ext, edges);
                    }
                }
                // A child block may have changed the state unpredictably.
                if !children.is_empty() && tokens.iter().any(|t| t.is_ident(SETTER)) {
                    ctx = Vec::new();
                }
            }
        }
    }
}

/// Reachability findings over the union of all machines' edges.
pub fn findings(ext: &Extraction) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if ext.states.is_empty() || ext.machines.is_empty() {
        return diags;
    }
    let Some(initial) = &ext.initial else {
        diags.push(Diagnostic {
            file: ext.def_file.clone(),
            line: ext.states.first().map_or(1, |(_, l)| *l),
            lint: Lint::SM,
            message: format!(
                "`{STATUS_ENUM}` has transitions but no recognisable initial state \
                 (expected a `status: {STATUS_ENUM}::X` field initialiser)"
            ),
        });
        return diags;
    };

    let mut out: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for m in &ext.machines {
        for e in &m.edges {
            out.entry(&e.from).or_default().insert(&e.to);
        }
    }
    let mut reach: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![initial.as_str()];
    while let Some(s) = stack.pop() {
        if reach.insert(s) {
            if let Some(next) = out.get(s) {
                stack.extend(next.iter().copied());
            }
        }
    }
    for (state, line) in &ext.states {
        if !reach.contains(state.as_str()) {
            diags.push(Diagnostic {
                file: ext.def_file.clone(),
                line: *line,
                lint: Lint::SM,
                message: format!(
                    "state `{STATUS_ENUM}::{state}` is unreachable from the initial state \
                     `{initial}` in every engine: dead protocol state"
                ),
            });
        }
    }
    for m in &ext.machines {
        for e in &m.edges {
            if !reach.contains(e.from.as_str()) {
                diags.push(Diagnostic {
                    file: m.file.clone(),
                    line: e.line,
                    lint: Lint::SM,
                    message: format!(
                        "transition `{}` -> `{}` can never fire: its source state is \
                         unreachable from `{initial}`",
                        e.from, e.to
                    ),
                });
            }
        }
    }
    diags
}

/// Render the extraction as Graphviz DOT: one digraph per engine,
/// initial state double-circled, implicit edges dashed.
pub fn dot(ext: &Extraction) -> String {
    let mut s = String::new();
    for m in &ext.machines {
        s.push_str(&format!("digraph {} {{\n", m.name));
        s.push_str("  rankdir=LR;\n  node [shape=circle];\n");
        if let Some(init) = &ext.initial {
            s.push_str(&format!("  \"{init}\" [shape=doublecircle];\n"));
        }
        for (state, _) in &ext.states {
            s.push_str(&format!("  \"{state}\";\n"));
        }
        let mut seen: BTreeSet<(String, String, bool)> = BTreeSet::new();
        for e in &m.edges {
            if !seen.insert((e.from.clone(), e.to.clone(), e.implicit)) {
                continue;
            }
            let style = if e.implicit { " [style=dashed]" } else { "" };
            s.push_str(&format!("  \"{}\" -> \"{}\"{style};\n", e.from, e.to));
        }
        s.push_str("}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::FileConfig;

    fn extract_src(srcs: &[(&str, &str)]) -> Extraction {
        let files: Vec<(ParsedFile, FileConfig)> = srcs
            .iter()
            .map(|(p, s)| (parse(p, s), FileConfig::default()))
            .collect();
        extract(&files)
    }

    const DEF: &str = "pub enum TxnStatus { Active, Aborting, Committed, Aborted }\n\
                       fn create() -> Txn { Txn { status: TxnStatus::Active } }";

    #[test]
    fn implicit_edge_from_initial() {
        let ext = extract_src(&[
            ("def.rs", DEF),
            ("eng.rs", "fn commit(&mut self, t: TxnId) { self.table.set_status(t, TxnStatus::Committed); }"),
        ]);
        assert_eq!(ext.initial.as_deref(), Some("Active"));
        let m = &ext.machines[0];
        assert_eq!(m.edges.len(), 1);
        assert_eq!(
            (
                m.edges[0].from.as_str(),
                m.edges[0].to.as_str(),
                m.edges[0].implicit
            ),
            ("Active", "Committed", true)
        );
    }

    #[test]
    fn assert_guard_pins_source_state() {
        let ext = extract_src(&[
            ("def.rs", DEF),
            (
                "eng.rs",
                "fn abort_victim(&mut self, v: TxnId) {\n\
                 debug_assert_eq!(self.table.status(v), TxnStatus::Active);\n\
                 self.table.set_status(v, TxnStatus::Aborting);\n}",
            ),
        ]);
        let e = &ext.machines[0].edges[0];
        assert_eq!(
            (e.from.as_str(), e.to.as_str(), e.implicit),
            ("Active", "Aborting", false)
        );
    }

    #[test]
    fn filtering_match_yields_fallthrough_sources() {
        let ext = extract_src(&[
            ("def.rs", DEF),
            (
                "eng.rs",
                "fn on_abort_notice(&mut self, t: TxnId) {\n\
                 match self.table.status(t) {\n\
                 TxnStatus::Committed => return,\n\
                 TxnStatus::Aborted => return,\n\
                 TxnStatus::Active | TxnStatus::Aborting => {}\n\
                 }\n\
                 self.table.set_status(t, TxnStatus::Aborted);\n}",
            ),
        ]);
        let edges = &ext.machines[0].edges;
        let pairs: Vec<(&str, &str)> = edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        assert!(pairs.contains(&("Active", "Aborted")), "{edges:?}");
        assert!(pairs.contains(&("Aborting", "Aborted")), "{edges:?}");
        assert!(edges.iter().all(|e| !e.implicit), "{edges:?}");
    }

    #[test]
    fn match_arm_context_and_dead_state_finding() {
        // `Frozen` is never a set_status target and not initial: dead.
        let ext = extract_src(&[
            (
                "def.rs",
                "pub enum TxnStatus { Active, Frozen, Committed }\n\
                        fn create() -> Txn { Txn { status: TxnStatus::Active } }",
            ),
            (
                "eng.rs",
                "fn tick(&mut self, t: TxnId) {\n\
                 match self.table.status(t) {\n\
                 TxnStatus::Active => { self.table.set_status(t, TxnStatus::Committed); }\n\
                 TxnStatus::Frozen => { self.table.set_status(t, TxnStatus::Active); }\n\
                 TxnStatus::Committed => {}\n\
                 }\n}",
            ),
        ]);
        let found = findings(&ext);
        assert!(
            found
                .iter()
                .any(|d| d.lint == Lint::SM && d.message.contains("`TxnStatus::Frozen`")),
            "{found:?}"
        );
        // The Frozen -> Active transition is dead too.
        assert!(
            found.iter().any(|d| d.message.contains("can never fire")),
            "{found:?}"
        );
    }

    #[test]
    fn healthy_machine_has_no_findings_and_dot_renders() {
        let ext = extract_src(&[
            ("def.rs", DEF),
            (
                "g2pl.rs",
                "fn commit(&mut self, t: TxnId) { self.table.set_status(t, TxnStatus::Committed); }\n\
                 fn abort_victim(&mut self, v: TxnId) {\n\
                 debug_assert_eq!(self.table.status(v), TxnStatus::Active);\n\
                 self.table.set_status(v, TxnStatus::Aborting);\n}\n\
                 fn finalize(&mut self, t: TxnId) {\n\
                 match self.table.status(t) {\n\
                 TxnStatus::Aborting => { self.table.set_status(t, TxnStatus::Aborted); }\n\
                 _ => {}\n\
                 }\n}",
            ),
        ]);
        assert!(findings(&ext).is_empty(), "{:?}", findings(&ext));
        let d = dot(&ext);
        assert!(d.contains("digraph g2pl"), "{d}");
        assert!(d.contains("\"Active\" [shape=doublecircle]"), "{d}");
        assert!(
            d.contains("\"Active\" -> \"Committed\" [style=dashed]"),
            "{d}"
        );
        assert!(d.contains("\"Aborting\" -> \"Aborted\";"), "{d}");
    }
}
