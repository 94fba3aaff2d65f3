//! The `experiments` binary against external input, run as a user runs it:
//! malformed flag values exit 2 with the usage text instead of panicking
//! deep inside a simulator, and the sweep's output does not depend on the
//! worker thread count.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args);
    if let Some(n) = threads {
        cmd.env("RAYON_NUM_THREADS", n);
    }
    cmd.output().expect("spawn experiments binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments_cli_inputs_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_usage(args: &[&str]) {
    let out = experiments(args, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("usage: experiments"),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn synthetic_rates_that_are_not_positive_and_finite_are_usage_errors() {
    let dir = scratch_dir("rates");
    let out = dir.to_str().unwrap();
    for rate in ["synth:nan", "synth:inf", "synth:-1", "synth:0"] {
        assert_usage(&["table1", "--source", rate, "--out", out]);
    }
}

#[test]
fn a_zero_call_replay_is_a_usage_error() {
    let dir = scratch_dir("replay");
    assert_usage(&["replay", "--calls", "0", "--out", dir.to_str().unwrap()]);
}

#[test]
fn sweep_output_does_not_depend_on_the_thread_count() {
    let dir = scratch_dir("threads");
    let out = dir.to_str().unwrap();
    let args = ["sweep", "--quick", "--seeds", "1", "--out", out];
    let one = experiments(&args, Some("1"));
    let two = experiments(&args, Some("2"));
    assert!(one.status.success() && two.status.success());
    assert!(String::from_utf8_lossy(&one.stdout).contains("Multi-resource sweep"));
    assert_eq!(one.stdout, two.stdout);
}
