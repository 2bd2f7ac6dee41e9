//! The paper's evaluation under `cargo test`: each experiment here runs
//! as its binary runs in `ci.sh` — every shape check must pass, and each
//! causal trace it exports must be valid, canonical JSONL (what
//! `tracectl check` asks) and byte-identical across two runs of the same
//! seeds.

use bench::experiments::{
    e10_forwarding, e11_recovery, e12_dsm, e13_pipeline, e1_access_methods, e2_cache_sweep,
    e3_migration, e7_loss,
};
use bench::ExperimentOutput;

/// Runs `run` twice and holds it to its checks and its traces.
fn holds(run: fn() -> ExperimentOutput) {
    let first = run();
    let failed: Vec<String> = (first.checks.iter())
        .filter(|c| !c.pass)
        .map(|c| format!("  [FAIL] {} — {}", c.name, c.detail))
        .collect();
    if !failed.is_empty() {
        let tables: String = first.tables.iter().map(bench::Table::render).collect();
        panic!(
            "{} — {}\n{tables}\n{}",
            first.id,
            first.title,
            failed.join("\n")
        );
    }
    let second = run();
    assert_eq!(
        first.traces.len(),
        second.traces.len(),
        "{}: traces",
        first.id
    );
    for (a, b) in first.traces.iter().zip(&second.traces) {
        let jsonl = obs::to_jsonl(&a.trace);
        let parsed = obs::from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("{} {}: invalid trace JSONL: {e}", first.id, a.label));
        assert_eq!(
            parsed.events.len(),
            a.trace.events.len(),
            "{}: events",
            a.label
        );
        assert!(
            obs::to_jsonl(&parsed) == jsonl,
            "{} {}: the re-export is not byte-identical",
            first.id,
            a.label
        );
        assert!(
            obs::to_jsonl(&b.trace) == jsonl,
            "{} {}: two runs exported different traces",
            first.id,
            a.label
        );
    }
}

#[test]
fn e1_access_methods_from_local_call_to_remote_stub() {
    holds(e1_access_methods::run);
}

#[test]
fn e2_caching_proxies_across_the_read_write_mix() {
    holds(e2_cache_sweep::run);
}

#[test]
fn e3_migration_and_the_moved_redirects_it_leaves() {
    holds(e3_migration::run);
}

#[test]
fn e7_at_most_once_under_loss_and_duplication() {
    holds(e7_loss::run);
}

#[test]
fn e10_forwarding_chains_and_path_compression() {
    holds(e10_forwarding::run);
}

#[test]
fn e11_crash_recovery_behind_an_unchanged_proxy() {
    holds(e11_recovery::run);
}

#[test]
fn e12_proxies_against_distributed_shared_memory() {
    holds(e12_dsm::run);
}

#[test]
fn e13_pipelined_and_batched_calls() {
    holds(e13_pipeline::run);
}
