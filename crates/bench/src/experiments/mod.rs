//! The experiment suite (see `DESIGN.md` §3 for the index).

pub mod e10_forwarding;
pub mod e11_recovery;
pub mod e12_dsm;
pub mod e13_pipeline;
pub mod e15_flight;
pub mod e16_million;
pub mod e17_obsplane;
pub mod e19_bulkplane;
pub mod e1_access_methods;
pub mod e20_profiler;
pub mod e2_cache_sweep;
pub mod e3_migration;
pub mod e4_replication;
pub mod e5_local_fastpath;
pub mod e6_binding_cost;
pub mod e7_loss;
pub mod e9_adaptive;

use crate::ExperimentOutput;

/// Runs every experiment, printing as it goes; returns true if every
/// shape check passed.
pub fn run_all() -> bool {
    let outputs: Vec<ExperimentOutput> = vec![
        e1_access_methods::run(),
        e2_cache_sweep::run(),
        e3_migration::run(),
        e4_replication::run(),
        e5_local_fastpath::run(),
        e6_binding_cost::run(),
        e7_loss::run(),
        e9_adaptive::run(),
        e10_forwarding::run(),
        e11_recovery::run(),
        e12_dsm::run(),
        e13_pipeline::run(),
        e15_flight::run(),
        e16_million::run(),
        e17_obsplane::run(),
        e19_bulkplane::run(),
        e20_profiler::run(),
    ];
    let mut all = true;
    for o in &outputs {
        all &= o.print();
    }
    println!("\n================================================================");
    println!(
        "shape checks: {}",
        if all {
            "ALL PASSED"
        } else {
            "FAILURES (see above)"
        }
    );
    println!("(E8 — per-call costs — is a test: `cargo test -p bench --test budgets`)");
    all
}
