//! End-to-end tests of `fedrun` as a real process, and of every
//! committed spec under `specs/`.
// Module-level helpers sit outside #[test] fns, where clippy.toml's
// allow-expect-in-tests does not reach.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox_bench::spec::{Overrides, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedprox-fedrun-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fedrun(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedrun")).args(args).output().expect("fedrun should start")
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

const SPEC: &str = r#"{
    "dataset": {"kind": "synthetic", "alpha": 0.5, "beta": 0.5},
    "model": {"kind": "logistic"},
    "algorithms": ["fedavg", "fedproxvr-svrg"],
    "devices": 3, "min_size": 20, "max_size": 40,
    "rounds": 3, "eval_every": 3, "smoothness": 3.0
}"#;

#[test]
fn fedrun_executes_a_spec_and_writes_output() {
    let dir = scratch("run");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, SPEC).unwrap();
    let out = fedrun(&[spec_path.to_str().unwrap(), "--out", dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fedavg") && stdout.contains("fedproxvr-svrg"), "stdout: {stdout}");
    // JSON artifacts exist and parse as histories.
    for name in ["fedrun_fedavg.json", "fedrun_fedproxvr-svrg.json"] {
        let text = std::fs::read_to_string(dir.join(name)).expect(name);
        assert_eq!(fedprox_core::History::from_json(&text).expect("history JSON").rounds_run, 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fedrun_rejects_bad_spec_and_flags() {
    let dir = scratch("bad");
    let spec_path = dir.join("bad.json");
    std::fs::write(&spec_path, "{not json").unwrap();
    let out = fedrun(&[spec_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid spec"));
    assert_eq!(fedrun(&[spec_path.to_str().unwrap(), "--scale", "paper"]).status.code(), Some(2));
    let help = fedrun(&["--help"]);
    assert!(help.status.success() && String::from_utf8_lossy(&help.stdout).contains("--rounds"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_spec_exits_2_before_the_obs_file_exists() {
    let dir = scratch("bogus");
    let spec_path = dir.join("bogus.json");
    std::fs::write(&spec_path, SPEC.replace("\"fedavg\"", "\"bogus\"")).unwrap();
    let obs = dir.join("o.jsonl");
    let out = fedrun(&[spec_path.to_str().unwrap(), "--obs", obs.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid spec") && stderr.contains("unknown algorithm 'bogus'"), "{stderr}");
    assert!(!obs.exists(), "no obs file may be created for a spec that does not validate");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_spec_key_exits_2() {
    let dir = scratch("dup");
    let spec_path = dir.join("dup.json");
    let dup = SPEC.replace(r#""algorithms": ["fedavg", "fedproxvr-svrg"],"#, r#""algorithms": ["fedavg"], "algorithms": ["fedproxvr-svrg"],"#);
    std::fs::write(&spec_path, dup).unwrap();
    let out = fedrun(&[spec_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid spec") && stderr.contains("duplicate field `algorithms`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_spec_exits_2_instead_of_overflowing_the_stack() {
    let dir = scratch("deep");
    let spec_path = dir.join("deep.json");
    std::fs::write(&spec_path, "[".repeat(50_000)).unwrap();
    let out = fedrun(&[spec_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid spec") && stderr.contains("nesting deeper than 128"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overrides_a_spec_kind_never_reads_exit_2() {
    for (spec, flags, kind) in [
        ("table1.small.json", &["--rounds", "3"][..], "search"),
        ("fig1.small.json", &["--rounds", "3"][..], "paramopt"),
        ("fig1.small.json", &["--seed", "3"][..], "paramopt"),
    ] {
        let path = specs_dir().join(spec);
        let out = fedrun(&[&[path.to_str().unwrap()], flags].concat());
        assert_eq!(out.status.code(), Some(2), "{spec} {flags:?}");
        let want = format!("{} does not apply to a {kind} spec", flags[0]);
        assert!(String::from_utf8_lossy(&out.stderr).contains(&want), "{spec} {flags:?}");
    }
}

#[test]
fn fig1_spec_prints_the_sweep() {
    let out = fedrun(&[specs_dir().join("fig1.small.json").to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for want in ["sigma_bar^2 = 0.1", "sigma_bar^2 = 10", "beta_min (eq. 15)"] {
        assert!(out.status.success() && stdout.contains(want), "{want}: {stdout}");
    }
}

/// Every committed spec parses and validates (under a `--seed` override
/// where its kind reads one) without running.
#[test]
fn every_committed_spec_validates() {
    let mut seen = 0;
    for entry in std::fs::read_dir(specs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = Spec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let seed = (spec.kind() != "paramopt").then_some(7);
        spec.resolve(&Overrides { seed, ..Overrides::default() })
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen += 1;
    }
    assert!(seen >= 12, "expected the figure, table and scenario specs, found {seen}");
}
