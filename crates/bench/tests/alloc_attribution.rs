//! Where the budgets `fleet_stub` row's allocations come from.
//!
//! `budgets.rs` pins how many allocations a call costs; this says who
//! makes them. It runs the same shape (the budgets `FLEET` fleet on one
//! scheduler domain, profiler on, counted over `Simulation::run` after a
//! warm-up run) under an allocator that captures a backtrace at every
//! allocation on this thread. Each allocation is charged to the first
//! frame outside `wire`, `bytes` and the standard library: the code that
//! asked for a buffer, a string or a value, not the code that built it.
//!
//! Ignored by default, because it prints and takes a while (every
//! backtrace is symbolised):
//!
//! ```text
//! cargo test -p bench --test alloc_attribution -- --ignored --nocapture
//! ```
//!
//! Run it in the debug build: there every function keeps its own frame,
//! where the release build inlines callers into callees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use bench::fleet;
use simnet::{NetworkConfig, NodeId, Simulation};

/// What the allocator does with this thread's allocations.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Pass them through.
    Off,
    /// Capture a backtrace and charge its first caller.
    Recording,
    /// Inside a capture: pass through what the capture itself allocates.
    Capturing,
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
}

/// Allocations per caller, over the recorded run.
static CALLERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

struct Attributing;

/// Charges one allocation to its caller, if this thread is recording.
fn record() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if MODE.try_with(Cell::get) != Ok(Mode::Recording) {
        return;
    }
    // The guard against re-entry: the capture, its symbolisation and the
    // map allocate too, and must not be charged or captured in turn.
    MODE.with(|m| m.set(Mode::Capturing));
    let caller = first_caller(&Backtrace::force_capture().to_string());
    *CALLERS.lock().unwrap().entry(caller).or_default() += 1;
    MODE.with(|m| m.set(Mode::Recording));
}

// SAFETY: every call is forwarded unchanged to `System`; `record` only
// reads and writes this thread's const-initialised `Cell` before it
// allocates, and it allocates with that `Cell` set so that it is not
// entered again.
unsafe impl GlobalAlloc for Attributing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Attributing = Attributing;

/// The crate a demangled symbol belongs to: its first path segment, past
/// any `<`, `&`, `[` or `mut ` that opens a trait-impl path.
fn crate_of(symbol: &str) -> &str {
    let s = symbol.trim_start_matches(['<', '&', '[', '(']);
    let s = s.strip_prefix("mut ").unwrap_or(s);
    let end = s.find([':', ' ', '<', '>', ']']).unwrap_or(s.len());
    &s[..end]
}

/// Whether a frame is allocation machinery rather than its caller: this
/// test's own allocator, the codec, the buffers and the standard library,
/// including its impls on primitive types (`<u8 as ConvertVec>`,
/// `<str as ToString>`) and generic placeholders (`<T as Into<U>>`).
fn is_machinery(symbol: &str) -> bool {
    const MACHINERY: &[&str] = &[
        "alloc_attribution",
        "wire",
        "bytes",
        "std",
        "core",
        "alloc",
        "hashbrown",
    ];
    const PRIMITIVES: &str =
        "bool char str u8 u16 u32 u64 u128 usize i8 i16 i32 i64 i128 isize f32 f64";
    let c = crate_of(symbol);
    MACHINERY.contains(&c)
        || PRIMITIVES.split(' ').any(|p| p == c)
        || c.starts_with("__rust")
        || (c.len() == 1 && c.chars().all(|ch| ch.is_ascii_uppercase()))
}

/// The first frame of a rendered backtrace outside the machinery, with
/// closure suffixes dropped so a function's closures count as it does.
fn first_caller(trace: &str) -> String {
    trace
        .lines()
        .filter_map(|line| {
            let (index, symbol) = line.trim_start().split_once(": ")?;
            index.parse::<u32>().ok()?;
            Some(symbol)
        })
        .find(|symbol| !is_machinery(symbol))
        .map_or_else(
            || "(the standard library alone)".to_owned(),
            |symbol| symbol.replace("::{{closure}}", ""),
        )
}

/// The budgets `FLEET` shape.
const FLEET: fleet::Shape = fleet::Shape {
    clients: 64,
    calls_per_client: 4,
    shards: 8,
    nodes: 16,
};

fn fleet_stub() -> Simulation {
    let sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    fleet::spawn(&sim, FLEET, ns, 1);
    sim.obs().enable_profile(256);
    sim
}

#[test]
#[ignore = "prints the attribution table; run with --ignored --nocapture"]
fn fleet_stub_allocations_by_first_caller() {
    // A warm-up run first, as budgets does, so that state this thread
    // builds once is not charged to the shape.
    fleet_stub().run();
    let mut sim = fleet_stub();
    MODE.with(|m| m.set(Mode::Recording));
    sim.run();
    MODE.with(|m| m.set(Mode::Off));

    let callers = std::mem::take(&mut *CALLERS.lock().unwrap());
    let total: u64 = callers.values().sum();
    let calls = FLEET.total_calls() as f64;
    let mut rows: Vec<(u64, String)> = callers.into_iter().map(|(c, n)| (n, c)).collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    println!("| allocs | allocs/call | first caller outside wire, bytes and std |");
    println!("|---:|---:|---|");
    for (n, caller) in &rows {
        println!("| {n} | {:.3} | `{caller}` |", *n as f64 / calls);
    }
    println!(
        "| {total} | {:.3} | all, over {calls} calls |",
        total as f64 / calls
    );
    assert!(total > 0, "the run allocated nothing on this thread");
}
