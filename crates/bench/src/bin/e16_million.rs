//! Runs experiment e16 standalone. Set `PROXIDE_SMOKE=1` for the
//! fast CI configuration.
fn main() {
    let ok = bench::experiments::e16_million::run().print();
    std::process::exit(if ok { 0 } else { 1 });
}
