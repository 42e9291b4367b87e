//! Per-file lint passes over the parsed item tree: L1 (unordered-map
//! iteration), L2 (ambient time/entropy), L3 (panic discipline), and
//! L6 (WAL write-ahead ordering).
//!
//! All passes work on tokens, not lines, so strings/comments can never
//! trip them, and test code is excluded at item granularity (a
//! `#[cfg(test)]` module, a `#[test]` fn) rather than by brace-counting.

use crate::lex::{Tok, TokKind};
use crate::parse::{Arm, Block, FnItem, Item, ParsedFile, Stmt};
use crate::{Diagnostic, FileConfig, Lint};

/// Methods whose call on a `HashMap`/`HashSet` receiver iterates it.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
    "into_values",
];

/// One flattened statement with enough context to reason about order:
/// its head tokens and the chain of `(match, arm)` choices above it.
pub struct FlatStmt<'a> {
    pub line: usize,
    pub tokens: &'a [Tok],
    /// `(match-id, arm-index)` for every enclosing match arm. Two
    /// statements whose chains disagree on the arm of a shared match id
    /// are on mutually exclusive paths.
    pub arm_chain: Vec<(usize, usize)>,
}

/// Flatten a function body into statements in source order.
pub fn flatten<'a>(body: &'a Block) -> Vec<FlatStmt<'a>> {
    let mut out = Vec::new();
    let mut next_match_id = 0usize;
    fn go<'a>(
        block: &'a Block,
        chain: &[(usize, usize)],
        next: &mut usize,
        out: &mut Vec<FlatStmt<'a>>,
    ) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Plain {
                    line,
                    tokens,
                    children,
                } => {
                    out.push(FlatStmt {
                        line: *line,
                        tokens,
                        arm_chain: chain.to_vec(),
                    });
                    for c in children {
                        go(c, chain, next, out);
                    }
                }
                Stmt::Match {
                    line,
                    scrutinee,
                    arms,
                } => {
                    let id = *next;
                    *next += 1;
                    out.push(FlatStmt {
                        line: *line,
                        tokens: scrutinee,
                        arm_chain: chain.to_vec(),
                    });
                    for (ai, arm) in arms.iter().enumerate() {
                        let mut inner = chain.to_vec();
                        inner.push((id, ai));
                        go(&arm.body, &inner, next, out);
                    }
                }
            }
        }
    }
    go(body, &[], &mut next_match_id, &mut out);
    out
}

/// Whether two arm chains are on mutually exclusive control paths.
pub fn diverging(a: &[(usize, usize)], b: &[(usize, usize)]) -> bool {
    for (ma, aa) in a {
        for (mb, ab) in b {
            if ma == mb && aa != ab {
                return true;
            }
        }
    }
    false
}

/// Does `toks[i..]` start the token sequence `seq` (idents / `::` / `!`
/// / single punct, matched by text)?
pub fn seq_at(toks: &[Tok], i: usize, seq: &[&str]) -> bool {
    if i + seq.len() > toks.len() {
        return false;
    }
    seq.iter()
        .enumerate()
        .all(|(j, want)| toks[i + j].text == *want && toks[i + j].kind != TokKind::Str)
}

/// All start indices where `seq` occurs in `toks`.
pub fn find_seq(toks: &[Tok], seq: &[&str]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| seq_at(toks, i, seq)).collect()
}

/// Collect every token of an item (signature + body + patterns),
/// skipping items marked as test code.
fn item_tokens<'a>(item: &'a Item, out: &mut Vec<&'a Tok>) {
    match item {
        Item::Fn(f) => {
            if f.in_test {
                return;
            }
            out.extend(f.signature.iter());
            block_tokens(&f.body, out);
        }
        Item::Impl(imp) => {
            if imp.in_test {
                return;
            }
            for i in &imp.items {
                item_tokens(i, out);
            }
        }
        Item::Mod(m) => {
            if m.in_test {
                return;
            }
            for i in &m.items {
                item_tokens(i, out);
            }
        }
        Item::Use(u) => out.extend(u.tokens.iter()),
        Item::Enum(_) => {}
        Item::Other(o) => {
            if !o.in_test {
                out.extend(o.tokens.iter());
            }
        }
    }
}

fn block_tokens<'a>(block: &'a Block, out: &mut Vec<&'a Tok>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Plain {
                tokens, children, ..
            } => {
                out.extend(tokens.iter());
                for c in children {
                    block_tokens(c, out);
                }
            }
            Stmt::Match {
                scrutinee, arms, ..
            } => {
                out.extend(scrutinee.iter());
                for Arm { pattern, body, .. } in arms {
                    out.extend(pattern.iter());
                    block_tokens(body, out);
                }
            }
        }
    }
}

/// The set of source lines holding non-test code tokens. The stale-allow
/// audit (L7) only judges markers attached to lines the passes actually
/// scan — a marker inside `#[cfg(test)]` code can never be "stale"
/// because test code is exempt by design.
pub fn non_test_token_lines(file: &ParsedFile) -> std::collections::BTreeSet<usize> {
    let mut toks = Vec::new();
    for item in &file.items {
        item_tokens(item, &mut toks);
    }
    let mut lines: std::collections::BTreeSet<usize> = toks.iter().map(|t| t.line).collect();
    // Enum bodies are not in item_tokens; their variant lines still count.
    crate::parse::walk_enums(&file.items, &mut |e| {
        if !e.in_test {
            lines.insert(e.line);
            lines.extend(e.variants.iter().map(|(_, l)| *l));
        }
    });
    lines
}

/// Visit every non-test function (recursing through impls and mods).
pub fn non_test_fns<'a>(file: &'a ParsedFile, f: &mut dyn FnMut(&'a FnItem)) {
    crate::parse::walk_fns(&file.items, &mut |func, _| {
        if !func.in_test {
            f(func);
        }
    });
}

/// Run L1/L2/L3/L6 over one parsed file, returning *raw* diagnostics
/// (allow markers are applied by the caller, so the stale-allow audit
/// can see what each marker actually suppresses).
pub fn file_passes(file: &ParsedFile, config: FileConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    l1_unordered_iteration(file, &mut diags);
    if config.check_ambient {
        l2_ambient(file, &mut diags);
    }
    l3_panics(file, &mut diags);
    l6_wal_ordering(file, &mut diags);
    diags
}

/// L1 — iteration over `HashMap`/`HashSet`.
fn l1_unordered_iteration(file: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    // Pass 1: names declared with an unordered-map type anywhere in the
    // file (struct fields, parameters, annotated or inferred lets).
    let mut all: Vec<&Tok> = Vec::new();
    for item in &file.items {
        item_tokens(item, &mut all);
    }
    let mut unordered: Vec<String> = Vec::new();
    for (i, t) in all.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Skip a `std :: collections ::`-style path prefix backwards.
        let mut j = i;
        while j >= 2 && all[j - 1].kind == TokKind::PathSep && all[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name : [& mut]* HashMap`
        let mut k = j - 1;
        while k > 0
            && (all[k].is_punct('&') || all[k].is_ident("mut") || all[k].kind == TokKind::Lifetime)
        {
            k -= 1;
        }
        if all[k].is_punct(':') && k > 0 && all[k - 1].kind == TokKind::Ident {
            unordered.push(all[k - 1].text.clone());
            continue;
        }
        // `let [mut] name = HashMap…`
        if all[j - 1].is_punct('=')
            && j >= 3
            && all[j - 2].kind == TokKind::Ident
            && (all[j - 3].is_ident("let")
                || (all[j - 3].is_ident("mut") && j >= 4 && all[j - 4].is_ident("let")))
        {
            unordered.push(all[j - 2].text.clone());
        }
    }
    unordered.sort();
    unordered.dedup();
    if unordered.is_empty() {
        return;
    }

    // Pass 2: iterating calls and for-loops over those names.
    non_test_fns(file, &mut |func| {
        for fs in flatten(&func.body) {
            let toks = fs.tokens;
            for i in 0..toks.len() {
                if !toks[i].is_punct('.') {
                    continue;
                }
                let Some(m) = toks.get(i + 1) else { continue };
                let is_iter = ITER_METHODS.iter().any(|im| m.is_ident(im));
                if !is_iter || !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    continue;
                }
                if i == 0 {
                    continue;
                }
                let recv = &toks[i - 1];
                if recv.kind == TokKind::Ident && unordered.contains(&recv.text) {
                    diags.push(Diagnostic {
                        file: file.path.clone(),
                        line: m.line,
                        lint: Lint::L1,
                        message: format!(
                            "iteration over unordered container `{}` (`.{}()`): order is \
                             nondeterministic; use BTreeMap/BTreeSet or sort first",
                            recv.text, m.text
                        ),
                    });
                }
            }
            // `for pat in [&][mut] [self .] name` ending the loop head.
            if toks.first().is_some_and(|t| t.is_ident("for")) {
                if let Some(in_idx) = toks.iter().position(|t| t.is_ident("in")) {
                    let mut j = in_idx + 1;
                    while j < toks.len() && (toks[j].is_punct('&') || toks[j].is_ident("mut")) {
                        j += 1;
                    }
                    if j + 1 < toks.len() && toks[j].is_ident("self") && toks[j + 1].is_punct('.') {
                        j += 2;
                    }
                    if j < toks.len()
                        && j == toks.len() - 1
                        && toks[j].kind == TokKind::Ident
                        && unordered.contains(&toks[j].text)
                    {
                        diags.push(Diagnostic {
                            file: file.path.clone(),
                            line: toks[j].line,
                            lint: Lint::L1,
                            message: format!(
                                "`for` loop over unordered container `{}`: order is \
                                 nondeterministic; use BTreeMap/BTreeSet or sort first",
                                toks[j].text
                            ),
                        });
                    }
                }
            }
        }
    });
}

/// L2 — ambient time or entropy.
fn l2_ambient(file: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    const NEEDLES: [(&[&str], &str); 7] = [
        (&["std", "::", "time", "::", "Instant"], "wall-clock time"),
        (
            &["std", "::", "time", "::", "SystemTime"],
            "wall-clock time",
        ),
        (&["Instant", "::", "now"], "wall-clock time"),
        (&["SystemTime", "::", "now"], "wall-clock time"),
        (&["thread_rng"], "OS entropy"),
        (&["rand", "::", "random"], "OS entropy"),
        (&["RandomState", "::", "new"], "hasher entropy"),
    ];
    let mut all: Vec<&Tok> = Vec::new();
    for item in &file.items {
        item_tokens(item, &mut all);
    }
    let owned: Vec<Tok> = all.into_iter().cloned().collect();
    let mut hit_lines: Vec<(usize, String)> = Vec::new();
    for (seq, what) in NEEDLES {
        for idx in find_seq(&owned, seq) {
            // `std::time::Instant::now` would double-report: suppress the
            // short needle when the long one matched at the same spot.
            if seq.len() == 3 && idx >= 4 && seq_at(&owned, idx - 4, &["std", "::", "time", "::"]) {
                continue;
            }
            hit_lines.push((
                owned[idx].line,
                format!(
                    "`{}` reads {what}: engine code must use the simulated clock / seeded \
                     RngStream",
                    seq.join("")
                ),
            ));
        }
    }
    hit_lines.sort();
    hit_lines.dedup();
    for (line, message) in hit_lines {
        diags.push(Diagnostic {
            file: file.path.clone(),
            line,
            lint: Lint::L2,
            message,
        });
    }
}

/// L3 — panicking calls in non-test code.
fn l3_panics(file: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    non_test_fns(file, &mut |func| {
        let mut toks: Vec<&Tok> = Vec::new();
        block_tokens(&func.body, &mut toks);
        for i in 0..toks.len() {
            let desc = if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                Some(("`.unwrap()`", toks[i + 1].line))
            } else if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                Some(("`.expect(..)`", toks[i + 1].line))
            } else if toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                Some(("`panic!`", toks[i].line))
            } else {
                None
            };
            if let Some((what, line)) = desc {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line,
                    lint: Lint::L3,
                    message: format!(
                        "{what} in engine code: return an error or justify with \
                         `// lint:allow(L3): <invariant>`"
                    ),
                });
            }
        }
    });
}

/// The engine helpers that ship messages on a caller's behalf, so L6
/// counts a call to one of them as a send: g-2PL's `send_hop` (returns,
/// reader releases and every segment copy) and `send_segment` (a
/// dispatch or forward of the next forward-list segment).
pub const L6_SEND_HELPERS: [&str; 2] = ["send_hop", "send_segment"];

/// L6 — WAL write-ahead ordering.
///
/// Within a function that both appends durable records
/// (`…append(ServerRecord::…)` / `…append(LogRecord::…)`, or the
/// kernel's `log_at(shard, ServerRecord::…)`) and ships
/// messages (`….send(…)` / `….send_instant(…)` on a `net` receiver,
/// or a call to one of [`L6_SEND_HELPERS`]), a send that has a durable
/// append *after* it on the same straight-line path but none *before*
/// it violates write-ahead: the message would promise state the log
/// does not yet hold. Sends and appends on mutually exclusive match
/// arms are unrelated and never pair up.
fn l6_wal_ordering(file: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    non_test_fns(file, &mut |func| {
        let flat = flatten(&func.body);
        let mut appends: Vec<&FlatStmt> = Vec::new();
        let mut sends: Vec<&FlatStmt> = Vec::new();
        for fs in &flat {
            let toks = fs.tokens;
            let has_append = (find_seq(toks, &["append"]).iter().any(|&i| {
                toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            }) || !find_seq(toks, &["log_at", "("]).is_empty())
                && (!find_seq(toks, &["ServerRecord", "::"]).is_empty()
                    || !find_seq(toks, &["LogRecord", "::"]).is_empty());
            if has_append {
                appends.push(fs);
            }
            let is_send = (0..toks.len()).any(|i| {
                (toks[i].is_ident("send") || toks[i].is_ident("send_instant"))
                    && i >= 2
                    && toks[i - 1].is_punct('.')
                    && toks[i - 2].is_ident("net")
            }) || toks
                .iter()
                .any(|t| L6_SEND_HELPERS.iter().any(|&h| t.is_ident(h)));
            if is_send {
                sends.push(fs);
            }
        }
        if appends.is_empty() {
            return;
        }
        for s in &sends {
            let before = appends
                .iter()
                .any(|a| a.line <= s.line && !diverging(&a.arm_chain, &s.arm_chain));
            let after = appends
                .iter()
                .any(|a| a.line > s.line && !diverging(&a.arm_chain, &s.arm_chain));
            if after && !before {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: s.line,
                    lint: Lint::L6,
                    message: format!(
                        "message send in `{}` precedes the durable WAL append on the same \
                         path: force the ServerLog/SiteLog record before shipping the \
                         message it promises",
                        func.name
                    ),
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn run(src: &str) -> Vec<Diagnostic> {
        file_passes(&parse("t.rs", src), FileConfig::default())
    }

    #[test]
    fn l1_struct_field_iteration_flagged() {
        let src = "struct S { holds: HashMap<u32, u64> }\n\
                   impl S { fn f(&self) { for x in self.holds.values() { let _ = x; } } }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.lint == Lint::L1 && d.line == 2), "{d:?}");
    }

    #[test]
    fn l1_for_loop_over_set_flagged() {
        let src =
            "fn f() { let seen: HashSet<u32> = HashSet::new();\nfor x in &seen { let _ = x; } }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.lint == Lint::L1 && d.line == 2), "{d:?}");
    }

    #[test]
    fn l1_btreemap_and_point_lookup_clean() {
        let src = "struct S { holds: BTreeMap<u32, u64>, m: HashMap<u32, u64> }\n\
                   impl S { fn f(&self) -> Option<&u64> { for x in self.holds.values() { let _ = x; } self.m.get(&1) } }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn l2_ambient_time_and_entropy_flagged() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n";
        let d = run(src);
        assert!(
            d.iter().filter(|d| d.lint == Lint::L2).count() >= 2,
            "{d:?}"
        );
    }

    #[test]
    fn l3_unwrap_expect_panic_flagged_not_in_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { let a = x.unwrap(); let b = x.expect(\"n\"); panic!(\"b\") }\n\
                   #[cfg(test)]\nmod tests { #[test] fn t() { None::<u32>.unwrap(); panic!(\"ok\"); } }\n";
        let d = run(src);
        assert_eq!(d.iter().filter(|d| d.lint == Lint::L3).count(), 3, "{d:?}");
    }

    #[test]
    fn l3_strings_and_comments_do_not_trip() {
        let src = "fn f() -> &'static str {\n// panic!( and .unwrap() in a comment\n\"std::time::Instant, panic!(x.unwrap())\"\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn l6_send_before_append_same_path_flagged() {
        let src = "impl S { fn ack(&mut self) {\n\
                   self.net.send(a, b, c);\n\
                   self.slog.append(ServerRecord::Committed { txn });\n\
                   } }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.lint == Lint::L6 && d.line == 2), "{d:?}");
    }

    #[test]
    fn l6_append_before_send_clean() {
        let src = "impl S { fn ack(&mut self) {\n\
                   self.slog.append(ServerRecord::Committed { txn });\n\
                   self.net.send(a, b, c);\n\
                   } }\n";
        assert!(run(src).iter().all(|d| d.lint != Lint::L6));
    }

    #[test]
    fn l6_cross_arm_send_and_append_unrelated() {
        let src = "impl S { fn h(&mut self, m: M) {\n\
                   match m {\n\
                   M::A => { self.net.send(x, y, z); }\n\
                   M::B => { self.slog.append(ServerRecord::Home { item, version }); }\n\
                   }\n\
                   } }\n";
        assert!(
            run(src).iter().all(|d| d.lint != Lint::L6),
            "{:?}",
            run(src)
        );
    }

    #[test]
    fn l6_send_only_function_unchecked() {
        let src = "impl S { fn relay(&mut self) { self.net.send(a, b, c); } }\n";
        assert!(run(src).is_empty());
    }
}
