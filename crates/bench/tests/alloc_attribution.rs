//! Where the budgets `fleet_stub` row's allocations and live bytes come
//! from.
//!
//! `budgets.rs` pins how many allocations a call costs and how many bytes
//! the run holds at its high-water mark; this says who makes them. Both
//! tests run the same shape as that row (the budgets `FLEET` fleet,
//! profiler on, counted over `Simulation::run` after a warm-up run)
//! under an allocator that captures a backtrace at every allocation on
//! this thread. Each allocation is charged to the first
//! frame outside `wire`, `bytes` and the standard library: the code that
//! asked for a buffer, a string or a value, not the code that built it.
//!
//! - `fleet_stub_allocations_by_first_caller` counts allocations per
//!   caller; its total is the row's `allocs` cell.
//! - `fleet_stub_live_bytes_at_peak_by_first_caller` charges every block
//!   live at the run's high-water mark to its first two callers; its
//!   total is the row's `peak_live_bytes` cell, above what was live when
//!   the run started, as budgets counts it. So blocks that were live at
//!   the start and freed before the peak count against it, in a row of
//!   their own. It also prints what was live at the start: the state the
//!   fleet is spawned with, which that cell leaves out.
//!
//! Ignored by default, because they print and take a while (every
//! backtrace is symbolised):
//!
//! ```text
//! cargo test -p bench --test alloc_attribution -- --ignored --nocapture
//! ```
//!
//! Run them in the debug build: there every function keeps its own frame,
//! where the release build inlines callers into callees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use bench::fleet;
use simnet::{NetworkConfig, NodeId, Simulation};

/// What the allocator does with this thread's allocations.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Pass them through.
    Off,
    /// Count each allocation against its first caller.
    Counting,
    /// Charge each block's bytes to its first two callers while it
    /// lives, and keep the charges as they stood at the high-water mark.
    Live,
    /// Inside the bookkeeping: pass through what the capture, its
    /// symbolisation, the ledger and the report allocate and free.
    Busy,
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
    /// Bytes allocated minus bytes freed on this thread, outside the
    /// bookkeeping.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LEDGER: RefCell<Ledger> = const { RefCell::new(Ledger::new()) };
}

/// Index of the row that blocks live at the start count against when
/// the run frees them or a realloc moves them: a realloc frees the old
/// block and charges the new one to its caller.
const FREED_FROM_START: usize = 0;

/// One recorded run's charges, kept per thread so that the two tests can
/// run at once.
struct Ledger {
    /// Each caller's index into `names` and `charged`.
    index: BTreeMap<String, usize>,
    names: Vec<String>,
    /// Per caller: allocations (counting) or bytes live (live bytes).
    charged: Vec<i64>,
    /// Blocks allocated during the run and not freed yet, by address:
    /// their size and the caller charged for them.
    blocks: BTreeMap<usize, (usize, usize)>,
    /// Bytes live now, and at the high-water mark, above the start.
    live: i64,
    peak: i64,
    /// `charged` as it stood at the high-water mark.
    at_peak: Vec<i64>,
}

impl Ledger {
    const fn new() -> Ledger {
        Ledger {
            index: BTreeMap::new(),
            names: Vec::new(),
            charged: Vec::new(),
            blocks: BTreeMap::new(),
            live: 0,
            peak: 0,
            at_peak: Vec::new(),
        }
    }

    /// The index of `caller`'s row, made on first sight.
    fn row(&mut self, caller: String) -> usize {
        let next = self.names.len();
        let row = *self.index.entry(caller.clone()).or_insert(next);
        if row == next {
            self.names.push(caller);
            self.charged.push(0);
        }
        row
    }

    fn on_alloc(&mut self, mode: Mode, ptr: usize, size: usize) {
        let depth = if mode == Mode::Counting { 1 } else { 2 };
        let trace = Backtrace::force_capture().to_string();
        let row = self.row(first_callers(&trace, depth));
        if mode == Mode::Counting {
            self.charged[row] += 1;
            return;
        }
        self.blocks.insert(ptr, (size, row));
        self.charged[row] += size as i64;
        self.live += size as i64;
        if self.live > self.peak {
            self.peak = self.live;
            self.at_peak.clone_from(&self.charged);
        }
    }

    fn on_free(&mut self, mode: Mode, ptr: usize, size: usize) {
        if mode == Mode::Live {
            let row = self
                .blocks
                .remove(&ptr)
                .map_or(FREED_FROM_START, |(_, row)| row);
            self.charged[row] -= size as i64;
            self.live -= size as i64;
        }
    }
}

/// Runs `f` on this thread's ledger if the thread is recording. The
/// guard against re-entry: everything `f` allocates or frees (the
/// capture, its symbolisation, the ledger's own maps) passes through
/// uncharged, because the mode is `Busy` while it runs.
fn record(f: impl FnOnce(Mode, &mut Ledger)) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let Ok(mode) = MODE.try_with(Cell::get) else {
        return;
    };
    if mode == Mode::Off || mode == Mode::Busy {
        return;
    }
    MODE.with(|m| m.set(Mode::Busy));
    let _ = LEDGER.try_with(|ledger| f(mode, &mut ledger.borrow_mut()));
    MODE.with(|m| m.set(mode));
}

/// Counts `delta` live bytes on this thread, outside the bookkeeping.
fn count_live(delta: i64) {
    if MODE.try_with(Cell::get) != Ok(Mode::Busy) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

struct Attributing;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// reads and writes this thread's const-initialised `Cell`s before it
// allocates, and allocates only with `MODE` set to `Busy`, so that it is
// not entered again.
unsafe impl GlobalAlloc for Attributing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed through.
        let ptr = unsafe { System.alloc(layout) };
        count_live(layout.size() as i64);
        record(|mode, l| l.on_alloc(mode, ptr as usize, layout.size()));
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        record(|mode, l| l.on_free(mode, ptr as usize, layout.size()));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        count_live(new_size as i64 - layout.size() as i64);
        record(|mode, l| {
            l.on_free(mode, ptr as usize, layout.size());
            l.on_alloc(mode, new as usize, new_size);
        });
        new
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

/// The first `depth` frames of a rendered backtrace outside the
/// machinery, innermost first and joined by ` ← `, with closure suffixes
/// dropped so a function's closures count as it does.
fn first_callers(trace: &str, depth: usize) -> String {
    let callers: Vec<String> = trace
        .lines()
        .filter_map(|line| {
            let (index, symbol) = line.trim_start().split_once(": ")?;
            index.parse::<u32>().ok()?;
            Some(symbol)
        })
        .filter(|symbol| !is_machinery(symbol))
        .take(depth)
        .map(|symbol| symbol.replace("::{{closure}}", ""))
        .collect();
    if callers.is_empty() {
        "(the standard library alone)".to_owned()
    } else {
        callers.join(" ← ")
    }
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

/// A cell of the budgets table's `fleet_stub` row, read from
/// `budgets.rs` itself so that the two tests cannot drift apart.
fn budgets_cell(column: &str) -> f64 {
    let row = include_str!("budgets.rs")
        .lines()
        .find(|line| line.trim_start().starts_with("Row { shape: \"fleet_stub\""))
        .expect("budgets.rs has a fleet_stub row");
    let at = row.find(&format!(" {column}: ")).expect("the column") + column.len() + 3;
    let cell = &row[at..];
    let end = cell.find([',', ' ']).unwrap_or(cell.len());
    cell[..end].parse().expect("a number")
}

/// Runs the shape with this thread's allocator in `mode`, after a
/// warm-up run (so that state this thread builds once is not charged to
/// the shape), and hands back the ledger with the bytes that were live
/// when the run started, per client, above what was live before the
/// fleet was spawned.
fn recorded(mode: Mode) -> (Ledger, f64) {
    fleet_stub().run();
    let before = LIVE.with(Cell::get);
    let mut sim = fleet_stub();
    let at_start = (LIVE.with(Cell::get) - before) as f64 / FLEET.clients as f64;
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        *l = Ledger::new();
        l.row("(blocks live at the start, freed or moved by a realloc before the peak)".to_owned());
    });
    MODE.with(|m| m.set(mode));
    sim.run();
    // Off before anything else: what the report below allocates and
    // frees, and the ledger it takes, must not reach the ledger.
    MODE.with(|m| m.set(Mode::Off));
    let ledger = LEDGER.with(|l| std::mem::replace(&mut *l.borrow_mut(), Ledger::new()));
    drop(sim);
    (ledger, at_start)
}

/// `(amount, caller)` rows, largest first, without the empty ones.
fn ranked(names: Vec<String>, amounts: &[i64]) -> Vec<(i64, String)> {
    let mut rows: Vec<(i64, String)> = amounts
        .iter()
        .copied()
        .zip(names)
        .filter(|&(n, _)| n != 0)
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    rows
}

#[test]
#[ignore = "prints the attribution table; run with --ignored --nocapture"]
fn fleet_stub_allocations_by_first_caller() {
    let (ledger, _) = recorded(Mode::Counting);
    let total: i64 = ledger.charged.iter().sum();
    let calls = FLEET.total_calls() as f64;
    println!("| allocs | allocs/call | first caller outside wire, bytes and std |");
    println!("|---:|---:|---|");
    for (n, caller) in ranked(ledger.names, &ledger.charged) {
        println!("| {n} | {:.3} | `{caller}` |", n as f64 / calls);
    }
    println!(
        "| {total} | {:.3} | all, over {calls} calls |",
        total as f64 / calls
    );
    assert_eq!(
        total as f64,
        budgets_cell("allocs") * calls,
        "the attribution's total is not the budgets `allocs` cell"
    );
}

#[test]
#[ignore = "prints the attribution table; run with --ignored --nocapture"]
fn fleet_stub_live_bytes_at_peak_by_first_caller() {
    let (ledger, at_start) = recorded(Mode::Live);
    let total: i64 = ledger.at_peak.iter().sum();
    assert_eq!(total, ledger.peak, "every live byte is charged to one row");
    let clients = FLEET.clients as f64;
    println!("| bytes at peak | B/client | first two callers outside wire, bytes and std |");
    println!("|---:|---:|---|");
    for (n, caller) in ranked(ledger.names, &ledger.at_peak) {
        println!("| {n} | {:.1} | `{caller}` |", n as f64 / clients);
    }
    println!(
        "| {total} | {:.1} | all, at the high-water mark above the start, over {clients} clients |",
        total as f64 / clients
    );
    println!("live at the start (the spawned fleet, its servers included): {at_start:.1} B/client");
    assert_eq!(
        total as f64,
        budgets_cell("peak_live_bytes"),
        "the attribution's total is not the budgets `peak_live_bytes` cell"
    );
}
