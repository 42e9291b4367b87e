//! `repro`'s command line: artifacts and flags it does not know, and
//! malformed values of the ones it does, fail with the usage message and
//! exit status 2, never with a panic.

use std::process::Command;

#[test]
fn unknown_and_malformed_arguments_print_usage_and_exit_2() {
    let cases: [&[&str]; 5] = [
        &["bench"],
        &["scale-bench"],
        &["--bench-out", "x", "fig2"],
        &["--scale", "bogus", "fig2"],
        &["--out"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "repro {args:?} prints no usage line: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "repro {args:?} panicked: {stderr}"
        );
    }
}
