//! Cross-file passes: L4 (RNG-stream discipline) and L5 (trace-event
//! completeness). Both need the whole workspace parsed at once — a
//! stream-name collision or a never-emitted enum variant is invisible
//! from inside any single file.

use crate::lex::{Tok, TokKind};
use crate::parse::ParsedFile;
use crate::passes::{flatten, non_test_fns};
use crate::{Diagnostic, Lint};
use std::collections::BTreeMap;

/// L4 — RNG-stream discipline.
///
/// Determinism rests on every consumer of randomness drawing from its
/// own named [`RngStream`]: two streams derived with the same label from
/// the same master seed produce *identical* draws, which silently
/// correlates whatever the two consumers decide. The rules:
///
/// * `RngStream::derive(seed, name)` — `name` must be a string literal,
///   and the literal must be unique across the workspace;
/// * `RngStream::derive_indexed(seed, prefix, n)` — `prefix` must be a
///   string literal, unique among prefixes, and no plain literal may
///   shadow `prefix-<digits>`;
/// * `RngStream::new(seed)` in non-test code is an unnamed stream —
///   label it with `derive` so collisions stay checkable.
///
/// [`RngStream`]: ../../g2pl_simcore/rng/struct.RngStream.html
pub fn l4_rng_streams(files: &[(ParsedFile, crate::FileConfig)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // label -> (file, line) of first sighting; duplicates diagnose both.
    let mut literals: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut prefixes: BTreeMap<String, (String, usize)> = BTreeMap::new();

    struct Site {
        file: String,
        line: usize,
        kind: SiteKind,
    }
    enum SiteKind {
        Literal(String),
        Indexed(String),
        NonLiteral,
        Unnamed,
    }

    let mut sites: Vec<Site> = Vec::new();
    for (file, _) in files {
        non_test_fns(file, &mut |func| {
            for fs in flatten(&func.body) {
                let toks = fs.tokens;
                for i in 0..toks.len() {
                    if !(toks[i].is_ident("RngStream")
                        && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::PathSep))
                    {
                        continue;
                    }
                    let Some(method) = toks.get(i + 2) else {
                        continue;
                    };
                    let line = method.line;
                    if method.is_ident("new") {
                        sites.push(Site {
                            file: file.path.clone(),
                            line,
                            kind: SiteKind::Unnamed,
                        });
                    } else if method.is_ident("derive") || method.is_ident("derive_indexed") {
                        let indexed = method.is_ident("derive_indexed");
                        let args = call_args(toks, i + 3);
                        let label_arg = args.get(1);
                        match label_arg.and_then(|a| literal_of(a)) {
                            Some(lit) => sites.push(Site {
                                file: file.path.clone(),
                                line,
                                kind: if indexed {
                                    SiteKind::Indexed(lit)
                                } else {
                                    SiteKind::Literal(lit)
                                },
                            }),
                            None => sites.push(Site {
                                file: file.path.clone(),
                                line,
                                kind: SiteKind::NonLiteral,
                            }),
                        }
                    }
                }
            }
        });
    }

    for site in &sites {
        match &site.kind {
            SiteKind::Unnamed => diags.push(Diagnostic {
                file: site.file.clone(),
                line: site.line,
                lint: Lint::L4,
                message: "`RngStream::new` creates an unnamed stream: derive it from the \
                          master seed with a unique string-literal label instead"
                    .to_string(),
            }),
            SiteKind::NonLiteral => diags.push(Diagnostic {
                file: site.file.clone(),
                line: site.line,
                lint: Lint::L4,
                message: "RNG stream name is not a string literal, so uniqueness cannot be \
                          checked: use a literal label (or `derive_indexed` for per-entity \
                          streams)"
                    .to_string(),
            }),
            SiteKind::Literal(name) => {
                if let Some((f0, l0)) = literals.get(name) {
                    diags.push(Diagnostic {
                        file: site.file.clone(),
                        line: site.line,
                        lint: Lint::L4,
                        message: format!(
                            "duplicate RNG stream name {name:?} (first used at {f0}:{l0}): \
                             identical labels yield identical draws and silently correlate \
                             both consumers"
                        ),
                    });
                } else {
                    literals.insert(name.clone(), (site.file.clone(), site.line));
                }
            }
            SiteKind::Indexed(prefix) => {
                if let Some((f0, l0)) = prefixes.get(prefix) {
                    diags.push(Diagnostic {
                        file: site.file.clone(),
                        line: site.line,
                        lint: Lint::L4,
                        message: format!(
                            "duplicate indexed RNG stream prefix {prefix:?} (first used at \
                             {f0}:{l0}): two per-entity families would collide index by index"
                        ),
                    });
                } else {
                    prefixes.insert(prefix.clone(), (site.file.clone(), site.line));
                }
            }
        }
    }
    // A plain literal shadowing an indexed family (`"net-3"` vs
    // `derive_indexed(…, "net", i)`) collides for one index value.
    for (lit, (file, line)) in &literals {
        for (prefix, (f0, l0)) in &prefixes {
            let shadow = lit
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('-'))
                .is_some_and(|digits| {
                    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
                });
            if shadow || lit == prefix {
                diags.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    lint: Lint::L4,
                    message: format!(
                        "RNG stream name {lit:?} collides with the indexed stream family \
                         {prefix:?}-<n> (declared at {f0}:{l0})"
                    ),
                });
            }
        }
    }
    diags
}

/// Split the top-level comma-separated argument token runs of a call,
/// with `toks[open]` expected to be `(`.
fn call_args(toks: &[Tok], open: usize) -> Vec<Vec<&Tok>> {
    let mut args: Vec<Vec<&Tok>> = Vec::new();
    if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
        return args;
    }
    let mut depth = 0i32;
    let mut cur: Vec<&Tok> = Vec::new();
    for t in &toks[open..] {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            args.push(std::mem::take(&mut cur));
            continue;
        }
        if depth >= 1 {
            cur.push(t);
        }
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// If an argument run is a (possibly `&`-prefixed) lone string literal,
/// its content.
fn literal_of(arg: &[&Tok]) -> Option<String> {
    let mut it = arg.iter().filter(|t| !t.is_punct('&'));
    let first = it.next()?;
    if it.next().is_some() || first.kind != TokKind::Str {
        return None;
    }
    Some(first.text.clone())
}

/// L5 — trace-event completeness.
///
/// The self-verification properties P1–P10 and the phase attribution
/// are only as strong as the one event stream they read: a `TraceKind`
/// variant nobody emits is a blind spot that type-checks. The pass
/// cross-references every variant of that enum against *emission sites*
/// — expression-position uses outside the defining file, excluding match
/// patterns, `matches!`, `if let`/`while let` bindings, comparisons, and
/// asserts (those are consumers). It also requires the engines' protocol
/// decision functions (commit/abort/dispatch/recovery) to emit at least
/// one event through the kernel's `.emit(..)`, so a new decision path
/// cannot silently bypass observability.
pub fn l5_trace_completeness(files: &[(ParsedFile, crate::FileConfig)]) -> Vec<Diagnostic> {
    const EVENT_ENUM: &str = "TraceKind";
    /// Functions that *decide* protocol outcomes; each must emit.
    const DECISION_FNS: [&str; 7] = [
        "commit",
        "abort_victim",
        "finalize_abort",
        "dispatch",
        "close_window",
        "crash_server",
        "finish_recovery",
    ];

    let mut diags = Vec::new();
    // (defining file, Vec<(variant, line)>)
    let mut def: Option<(String, Vec<(String, usize)>)> = None;
    for (file, _) in files {
        crate::parse::walk_enums(&file.items, &mut |e| {
            if e.name == EVENT_ENUM && !e.in_test {
                def = Some((file.path.clone(), e.variants.clone()));
            }
        });
    }
    let Some((def_file, variants)) = def else {
        return diags;
    };

    let mut emitted: BTreeMap<String, usize> = BTreeMap::new();
    for (file, _) in files {
        non_test_fns(file, &mut |func| {
            for fs in flatten(&func.body) {
                let toks = fs.tokens;
                // Consumer-shaped statements never count as emissions.
                let is_consumer = toks
                    .windows(2)
                    .any(|w| w[0].text.ends_with("matches") && w[1].is_punct('!'))
                    || toks.windows(2).any(|w| {
                        (w[0].is_ident("if") || w[0].is_ident("while")) && w[1].is_ident("let")
                    })
                    || toks.iter().any(|t| {
                        t.kind == TokKind::Ident
                            && (t.text == "assert_eq"
                                || t.text == "assert_ne"
                                || t.text == "debug_assert_eq"
                                || t.text == "debug_assert_ne"
                                || t.text == "assert"
                                || t.text == "debug_assert")
                    });
                if is_consumer {
                    continue;
                }
                if file.path == def_file {
                    continue; // the defining file names its own variants freely
                }
                for i in 0..toks.len() {
                    let t = &toks[i];
                    if !t.is_ident(EVENT_ENUM) {
                        continue;
                    }
                    if toks.get(i + 1).map(|x| x.kind) != Some(TokKind::PathSep) {
                        continue;
                    }
                    let Some(variant) = toks.get(i + 2) else {
                        continue;
                    };
                    if variant.kind != TokKind::Ident {
                        continue;
                    }
                    // Comparisons are consumption, not emission; a
                    // single `=` (a `let` binding) is not a comparison.
                    let before_eq = i >= 2
                        && toks[i - 1].is_punct('=')
                        && (toks[i - 2].is_punct('=') || toks[i - 2].is_punct('!'));
                    let after = toks.get(i + 3);
                    let after_eq = after.is_some_and(|x| x.is_punct('='))
                        && toks.get(i + 4).is_some_and(|x| x.is_punct('='));
                    if before_eq || after_eq {
                        continue;
                    }
                    *emitted.entry(variant.text.clone()).or_default() += 1;
                }
            }
        });
    }

    for (variant, line) in &variants {
        if !emitted.contains_key(variant) {
            diags.push(Diagnostic {
                file: def_file.clone(),
                line: *line,
                lint: Lint::L5,
                message: format!(
                    "`{EVENT_ENUM}::{variant}` is never emitted by any engine: either \
                     wire up the emission or retire the variant — an unemitted event \
                     is a verifier blind spot"
                ),
            });
        }
    }

    // Decision functions must emit. Scoped to files that drive the
    // transaction state machine (contain a `set_status` call).
    for (file, _) in files {
        let mut drives_machine = false;
        non_test_fns(file, &mut |func| {
            for fs in flatten(&func.body) {
                if fs
                    .tokens
                    .windows(2)
                    .any(|w| w[0].is_punct('.') && w[1].is_ident("set_status"))
                {
                    drives_machine = true;
                }
            }
        });
        if !drives_machine {
            continue;
        }
        non_test_fns(file, &mut |func| {
            if !DECISION_FNS.contains(&func.name.as_str()) {
                return;
            }
            let emits = flatten(&func.body).iter().any(|fs| {
                fs.tokens
                    .windows(3)
                    .any(|w| w[0].is_punct('.') && w[1].is_ident("emit") && w[2].is_punct('('))
            });
            if !emits {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: func.line,
                    lint: Lint::L5,
                    message: format!(
                        "protocol decision function `{}` emits no trace event: \
                         `.emit(..)` the outcome (or justify why this decision is invisible)",
                        func.name
                    ),
                });
            }
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::FileConfig;

    fn analyze(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<(ParsedFile, FileConfig)> = srcs
            .iter()
            .map(|(p, s)| (parse(p, s), FileConfig::default()))
            .collect();
        let mut d = l4_rng_streams(&files);
        d.extend(l5_trace_completeness(&files));
        d
    }

    #[test]
    fn l4_duplicate_literal_flagged_once_at_second_site() {
        let d = analyze(&[
            (
                "a.rs",
                "fn a(s: u64) { let r = RngStream::derive(s, \"net\"); }",
            ),
            (
                "b.rs",
                "fn b(s: u64) { let r = RngStream::derive(s, \"net\"); }",
            ),
        ]);
        let l4: Vec<_> = d.iter().filter(|d| d.lint == Lint::L4).collect();
        assert_eq!(l4.len(), 1, "{d:?}");
        assert_eq!(l4[0].file, "b.rs");
        assert!(l4[0].message.contains("duplicate"));
    }

    #[test]
    fn l4_non_literal_and_unnamed_flagged() {
        let d = analyze(&[(
            "a.rs",
            "fn a(s: u64, i: u32) {\n\
             let r = RngStream::derive(s, &format!(\"c-{i}\"));\n\
             let q = RngStream::new(s);\n}",
        )]);
        assert!(
            d.iter().any(|d| d.lint == Lint::L4
                && d.line == 2
                && d.message.contains("not a string literal")),
            "{d:?}"
        );
        assert!(
            d.iter()
                .any(|d| d.lint == Lint::L4 && d.line == 3 && d.message.contains("unnamed")),
            "{d:?}"
        );
    }

    #[test]
    fn l4_indexed_family_and_shadowing() {
        let d = analyze(&[(
            "a.rs",
            "fn a(s: u64, i: u32) {\n\
             let r = RngStream::derive_indexed(s, \"client\", i);\n\
             let q = RngStream::derive(s, \"client-3\");\n}",
        )]);
        assert!(
            d.iter()
                .any(|d| d.lint == Lint::L4 && d.message.contains("collides with the indexed")),
            "{d:?}"
        );
    }

    #[test]
    fn l4_distinct_names_clean() {
        let d = analyze(&[(
            "a.rs",
            "fn a(s: u64, i: u32) {\n\
             let r = RngStream::derive(s, \"think\");\n\
             let q = RngStream::derive(s, \"idle\");\n\
             let z = RngStream::derive_indexed(s, \"client\", i);\n}",
        )]);
        assert!(d.iter().all(|d| d.lint != Lint::L4), "{d:?}");
    }

    #[test]
    fn l4_test_code_exempt() {
        let d = analyze(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests { fn t() { let a = RngStream::new(1); let b = RngStream::new(1); } }",
        )]);
        assert!(d.iter().all(|d| d.lint != Lint::L4), "{d:?}");
    }

    #[test]
    fn l5_unemitted_variant_flagged_at_definition() {
        let d = analyze(&[
            ("def.rs", "pub enum TraceKind {\nGranted,\nNeverUsed,\n}"),
            (
                "eng.rs",
                "fn f(&mut self) { self.emit(TraceKind::Granted.at(now, t, i, s)); }",
            ),
        ]);
        let l5: Vec<_> = d.iter().filter(|d| d.lint == Lint::L5).collect();
        assert_eq!(l5.len(), 1, "{d:?}");
        assert_eq!((l5[0].file.as_str(), l5[0].line), ("def.rs", 3));
    }

    #[test]
    fn l5_match_consumption_is_not_emission() {
        let d = analyze(&[
            ("def.rs", "pub enum TraceKind { Granted }"),
            (
                "checker.rs",
                "fn check(k: TraceKind) { match k { TraceKind::Granted => {} }\n\
                 if let TraceKind::Granted = k {}\n\
                 let b = matches!(k, TraceKind::Granted);\n\
                 let eq = k == TraceKind::Granted;\n\
                 let ne = k != TraceKind::Granted;\n\
                 assert_eq!(k, TraceKind::Granted); }",
            ),
        ]);
        assert!(
            d.iter()
                .any(|d| d.lint == Lint::L5 && d.message.contains("Granted")),
            "pattern/comparison uses must not count as emissions: {d:?}"
        );
    }

    #[test]
    fn l5_let_binding_counts_as_emission() {
        let d = analyze(&[
            ("def.rs", "pub enum TraceKind { Granted }"),
            (
                "eng.rs",
                "fn f(&mut self) { let ev = TraceKind::Granted.at(now, t, i, s); self.emit(ev); }",
            ),
        ]);
        assert!(d.iter().all(|d| d.lint != Lint::L5), "{d:?}");
    }

    #[test]
    fn l5_decision_fn_without_emission_flagged() {
        let d = analyze(&[
            ("def.rs", "pub enum TraceKind { Granted }"),
            (
                "eng.rs",
                "impl E {\n\
                 fn commit(&mut self, t: TxnId) { self.table.set_status(t, TxnStatus::Committed); }\n\
                 fn dispatch(&mut self, t: TxnId) { self.table.set_status(t, TxnStatus::Active); self.emit(TraceEvent::new(now, TraceKind::Granted, t)); }\n\
                 }",
            ),
        ]);
        let l5: Vec<_> = d.iter().filter(|d| d.lint == Lint::L5).collect();
        assert_eq!(l5.len(), 1, "{d:?}");
        assert!(l5[0].message.contains("`commit`"));
    }
}
