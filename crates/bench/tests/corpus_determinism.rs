//! Determinism guarantees of the generated scenario corpus and the
//! figure registry migration.
//!
//! The corpus rides on the runner's byte-identity contract: every
//! random choice derives from `(root seed, job name, tag)`, so the same
//! `--corpus` seed must yield a byte-identical scenario list and
//! summary for any `--jobs` count, on the serial oracle and the batched
//! LLC pipeline alike.
//! The registry migration must keep regenerating the committed captures
//! byte-for-byte — the cheap deterministic groups are pinned here, the
//! full set in the `#[ignore]`d sweep (CI runs `repro --check`).

use iat_bench::corpus::{registry, validate_corpus_summary, CorpusSpec};
use iat_runner::{run, RunOptions, RunOutput};
use proptest::prelude::*;
use std::path::Path;

fn corpus_opts(seed: u64, jobs: usize, slice_workers: Option<u32>) -> RunOptions {
    // Exact execution: the quick spec's short intervals are below the
    // sampler's fixed one-second planning window, so a sampled quick run
    // would fast-forward everything. The sampled corpus path runs at
    // full intervals in the CI smoke guard (`repro --corpus --sampled`).
    RunOptions {
        jobs,
        root_seed: seed,
        slice_workers,
        ..RunOptions::default()
    }
}

fn run_corpus(seed: u64, jobs: usize, slice_workers: Option<u32>) -> RunOutput {
    let spec = CorpusSpec {
        count: 4,
        quick: true,
    };
    let out = run(registry(spec), &corpus_opts(seed, jobs, slice_workers));
    assert!(!out.failed(), "corpus jobs failed: {:?}", out.reports);
    out
}

fn summary_doc(out: &RunOutput) -> serde_json::Value {
    let (_, bytes) = out
        .files
        .iter()
        .find(|(name, _)| name == "corpus_summary.json")
        .expect("corpus run stages corpus_summary.json");
    serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same corpus seed ⇒ byte-identical scenario list and summary
    /// across `--jobs {1,4}` × LLC pipeline {serial oracle, batched}.
    #[test]
    fn corpus_is_byte_identical_across_engine_settings(seed in 0u64..1000) {
        let baseline = run_corpus(seed, 1, Some(0));
        let doc = summary_doc(&baseline);
        let ran = validate_corpus_summary(&doc).expect("summary validates");
        prop_assert_eq!(ran, 4);

        for (jobs, slice) in [(4, Some(0)), (1, None), (4, None)] {
            let other = run_corpus(seed, jobs, slice);
            prop_assert_eq!(
                &baseline.stdout, &other.stdout,
                "scenario list/console differs at jobs={} slice={:?}", jobs, slice
            );
            prop_assert_eq!(
                &baseline.files, &other.files,
                "staged artifacts differ at jobs={} slice={:?}", jobs, slice
            );
        }
    }
}

#[test]
fn corpus_seeds_are_distinguishable() {
    // Different seeds must actually change the generated scenarios —
    // otherwise the determinism property above would pass vacuously.
    let a = summary_doc(&run_corpus(11, 1, Some(0)));
    let b = summary_doc(&run_corpus(12, 1, Some(0)));
    assert_ne!(a["scenarios"], b["scenarios"]);
}

/// Migrated-figure spot check: the cheap fully-deterministic groups
/// regenerate their committed captures byte-for-byte through the new
/// catalog-driven registry.
#[test]
fn cheap_figures_match_committed_captures() {
    assert_figures_match(&["table1", "table2", "fig15"]);
}

/// The full 13-figure sweep against the committed captures. Ignored by
/// default — it is minutes of simulation; CI and the release gate run
/// the equivalent `repro --check` instead.
#[test]
#[ignore = "full sweep; covered by repro --check"]
fn all_figures_match_committed_captures() {
    let groups: Vec<&str> = iat_bench::catalog::figure_names();
    assert_figures_match(&groups);
}

fn assert_figures_match(groups: &[&str]) {
    let opts = RunOptions {
        jobs: 2,
        only: groups.iter().map(|g| (*g).to_owned()).collect(),
        ..RunOptions::default()
    };
    let out = run(iat_bench::jobs::registry(), &opts);
    assert!(!out.failed(), "figure jobs failed: {:?}", out.reports);
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let diverged = iat_runner::check_outputs(&out, &committed);
    assert!(
        diverged.is_empty(),
        "registry migration diverges from the committed captures:\n{}",
        diverged.join("\n")
    );
}
