//! `figure`'s usage errors, through the real binary: an unknown artifact
//! and a flag that does not apply both exit 2 with the usage text — which
//! names every artifact — on stderr, and print nothing to stdout.

use std::process::Command;

const NAMES: [&str; 6] = ["fig2", "fig3", "fig4", "table2", "ablation_age", "ablation_arrangement"];

fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figure")).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "figure {args:?}");
    assert!(out.stdout.is_empty(), "figure {args:?} printed to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for name in NAMES {
        assert!(stderr.contains(&format!("\n  {name} ")), "usage of {args:?} omits {name}");
    }
    stderr
}

#[test]
fn unknown_artifact_exits_2_with_the_artifact_list() {
    assert!(usage_error(&["nosuch"]).starts_with("error: unknown artifact nosuch\n"));
    assert!(usage_error(&[]).starts_with("error: missing artifact name\n"));
}

#[test]
fn pattern_outside_fig2_exits_2_naming_the_artifact() {
    let stderr = usage_error(&["table2", "--pattern", "un"]);
    assert!(stderr.starts_with("error: --pattern does not apply to table2"), "{stderr}");
}

#[test]
fn malformed_values_exit_2() {
    assert!(usage_error(&["fig3", "--seeds", "0"]).contains("--seeds needs a positive number"));
    assert!(usage_error(&["fig3", "--out"]).contains("--out needs a path"));
    assert!(usage_error(&["fig3", "--bogus"]).contains("unknown flag --bogus"));
}
