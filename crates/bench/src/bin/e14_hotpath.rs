//! Runs experiment e14 standalone. Set `PROXIDE_SMOKE=1` for the
//! fast CI configuration.
fn main() {
    let ok = bench::experiments::e14_hotpath::run().print();
    std::process::exit(if ok { 0 } else { 1 });
}
