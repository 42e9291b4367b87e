//! `trace-explain` end to end on exported traces: the offline P1–P10
//! check passes on an intact export, fails on a tampered one, skips the
//! files it cannot check, and rejects malformed input with an error
//! rather than a panic.

use g2pl_core::prelude::*;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// A verified s-2PL run exported through the `--trace-out` path; the
/// JSONL text.
fn export() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("g2pl-explain-export-{}", std::process::id()));
        let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, 4, 100, 0.25);
        cfg.warmup_txns = 10;
        cfg.measured_txns = 60;
        set_trace_out(Some(dir.clone()));
        let _ = run_replicated(&cfg, 1);
        set_trace_out(None);
        let entry = std::fs::read_dir(&dir)
            .expect("export directory exists")
            .next()
            .expect("one exported trace")
            .expect("dir entry");
        let text = std::fs::read_to_string(entry.path()).expect("trace readable");
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

fn explain_path(path: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-explain"))
        .args(args)
        .arg(path)
        .output()
        .expect("trace-explain runs")
}

/// Run `trace-explain args FILE` on `text` written to a temporary file.
fn explain(name: &str, text: &str, args: &[&str]) -> Output {
    let path =
        std::env::temp_dir().join(format!("g2pl-explain-{}-{name}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("temporary trace written");
    let out = explain_path(&path, args);
    std::fs::remove_file(&path).ok();
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The single `trace-check:` line of a one-file run.
fn check_line(out: &Output) -> String {
    let text = stdout(out);
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("trace-check:"))
        .collect();
    assert_eq!(lines.len(), 1, "expected one trace-check line:\n{text}");
    lines[0].to_string()
}

#[test]
fn intact_export_passes_the_offline_check() {
    for args in [&[][..], &["--tail"][..]] {
        let out = explain("intact", export(), args);
        assert!(out.status.success(), "{args:?}:\n{}", stdout(&out));
        assert!(
            check_line(&out).starts_with("trace-check: PASS"),
            "{args:?}"
        );
    }
}

#[test]
fn deleting_a_grant_fails_the_check() {
    let text = export();
    // A grant of a transaction that went on to commit: without it the
    // commit no longer balances its requests.
    let granted = text
        .lines()
        .position(|l| {
            l.contains("\"kind\":\"granted\"")
                && l.split("\"txn\":").nth(1).is_some_and(|rest| {
                    let id = rest.split(',').next().unwrap_or_default();
                    text.contains(&format!("\"kind\":\"committed\",\"txn\":{id},"))
                })
        })
        .expect("a committed transaction's grant");
    let tampered: String = text
        .lines()
        .enumerate()
        .filter(|&(i, _)| i != granted)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let out = explain("tampered", &tampered, &[]);
    assert!(!out.status.success(), "a failed check must exit non-zero");
    let line = check_line(&out);
    assert!(
        line.starts_with("trace-check: FAIL") && (line.contains("P1") || line.contains("P2")),
        "{line}"
    );
}

#[test]
fn truncated_export_skips_the_check() {
    let text = export().replacen("\"dropped\":0", "\"dropped\":7", 1);
    let out = explain("truncated", &text, &[]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(check_line(&out).starts_with("trace-check: SKIP"));
}

#[test]
fn span_only_exports_skip_the_check() {
    for engine in ["s2pl", "g2pl", "c2pl"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../../tests/data/{engine}_best_case_pre_merge.jsonl"
        ));
        let out = explain_path(&path, &[]);
        assert!(out.status.success(), "{engine}:\n{}", stdout(&out));
        assert!(
            check_line(&out).starts_with("trace-check: SKIP"),
            "{engine}"
        );
    }
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let bad_lines = [
        "not json",
        "{\"at\":5,\"kind\":\"gran",
        "{\"at\":5,\"kind\":\"granted\",\"txn\":-3,\"site\":\"C0\"}",
        "{\"at\":5,\"kind\":\"granted\",\"txn\":4294967296,\"site\":\"C0\"}",
        "{\"at\":5,\"kind\":\"granted\",\"txn\":1,\"site\":\"Q9\"}",
        "{\"at\":5,\"kind\":\"teleported\",\"site\":\"C0\"}",
    ];
    for bad in bad_lines {
        let text = format!("{}{bad}\n", export());
        let out = explain("malformed", &text, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {stderr}");
        assert!(
            stderr.contains("line ") && !stderr.contains("panicked"),
            "{bad}: {stderr}"
        );
    }
}
