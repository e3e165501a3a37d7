//! End-to-end checks of the `perfbench` binary, run from the repository
//! root like the benchmark command: `cd perfbench && cargo test --release`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives in the repo")
        .to_owned()
}

/// Every file under `dir`, relative path → bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_owned()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable file");
                out.insert(path.strip_prefix(dir).expect("under dir").to_owned(), bytes);
            }
        }
    }
    out
}

/// Runs `perfbench run` and returns its standard output.
fn perfbench(args: &[&str]) -> String {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .arg("run")
        .args(args)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "perfbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn last_line(stdout: &str) -> serde_json::Value {
    let line = stdout.lines().last().expect("output has a last line");
    serde_json::from_str(line).expect("last line is JSON")
}

#[test]
fn sweep_leaves_results_byte_unchanged() {
    let results = repo_root().join("results");
    let before = snapshot(&results);
    let stdout = perfbench(&[
        "--workload",
        "sweep",
        "--seed",
        "0",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    let after = snapshot(&results);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>(),
        "files added or removed"
    );
    for (path, bytes) in &before {
        assert!(after[path] == *bytes, "{} changed", path.display());
    }
    let doc = last_line(&stdout);
    assert_eq!(
        doc.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{stdout}"
    );
    assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
}

#[test]
fn traced_run_reconciles_and_matches_untraced_digests() {
    let stdout = perfbench(&[
        "--workload",
        "leaky-dma",
        "--seed",
        "0",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    let doc = last_line(&stdout);
    // Digest equality with the untraced rounds is part of `correct`.
    assert_eq!(
        doc.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{stdout}"
    );
    let metric = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    let unattributed = metric("trace.unattributed_pct");
    assert!(
        unattributed.abs() < 5.0,
        "layer self-times miss {unattributed}% of the traced wall"
    );
    assert!(metric("workloads.run_pct") > 0.0 && metric("platform.epoch_self_pct") > 0.0);
    let trace =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test/leaky-dma-seed0.trace.json");
    let text = std::fs::read_to_string(trace).expect("trace written");
    let trace = serde_json::from_str(&text).expect("trace is JSON");
    assert!(trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .is_some_and(|e| e.len() > 10));
}
