//! Runs the full experiment suite (E1–E7, E9–E20) and exits nonzero if
//! any shape check fails. E8 (real-time overheads) runs under Criterion.
//! Set `PROXIDE_SMOKE=1` to run E14 and E16–E20 at their CI sizes.
fn main() {
    let ok = bench::experiments::run_all();
    std::process::exit(if ok { 0 } else { 1 });
}
