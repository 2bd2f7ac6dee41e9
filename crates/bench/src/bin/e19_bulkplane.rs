//! Runs experiment e19 standalone. Set `PROXIDE_SMOKE=1` for the
//! fast CI configuration.
fn main() {
    let ok = bench::experiments::e19_bulkplane::run().print();
    std::process::exit(if ok { 0 } else { 1 });
}
