//! Allocation counts of the serial engine path, from a counting global
//! allocator. Counts are per thread, so tests running beside each other
//! stay apart and a serial update is counted exactly: the same update on
//! the same engine allocates the same number of times on every run, which
//! a wall time on a shared host never does.
//!
//! The allocator is this test crate's own; no library crate relaxes its
//! `forbid(unsafe_code)` for it.

use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::sched::LevelBased;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) this
    /// thread made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc`'s new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting on the calling thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate. The cells
    // are `const`-initialised and need no destructor, so reaching them
    // never allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller meets `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller meets `alloc_zeroed`'s contract, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller meets `realloc`'s contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread makes while running `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// What removing one edge of a 64-node ring allocated, on the commit
/// before the proof search named facts by row and tried exit rules on
/// sight: each fact it saw copied its tuple and kept its own waiter list,
/// and each rule walk allocated its bindings.
const RING_REMOVAL_BEFORE: u64 = 17_855;

/// The transitive closure of a ring of `n` nodes: every node reaches every
/// node, so taking one edge out puts half the closure to proof.
fn ring(n: usize) -> String {
    let mut src =
        String::from("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n");
    for i in 0..n {
        src.push_str(&format!("edge(n{i}, n{}).\n", (i + 1) % n));
    }
    src
}

/// One removal from a warm ring: the engine has taken `edge(n0, n1)` out
/// and put it back once, so the first-use costs (counters registered,
/// buffers grown) are paid, and what is counted is the update itself.
fn ring_removal() -> (u64, u64) {
    const NODES: usize = 64;
    let mut e = IncrementalEngine::new(&ring(NODES)).expect("valid program");
    let remove = [FactEdit::remove("edge", &["n0", "n1"])];
    let add = [FactEdit::add("edge", &["n0", "n1"])];
    for edits in [&remove, &add] {
        let mut sched = LevelBased::new(e.dag().clone());
        e.update(&mut sched, edits).expect("valid edit");
    }
    assert_eq!(e.count("path"), NODES * NODES);
    let mut sched = LevelBased::new(e.dag().clone());
    let cost = counted(|| {
        e.update(&mut sched, &remove).expect("valid edit");
    });
    // The ring is now the chain n1 -> ... -> n63 -> n0.
    assert_eq!(e.count("path"), NODES * (NODES - 1) / 2);
    cost
}

/// The ring removal allocates the same on every run, and at most half of
/// what it did before.
#[test]
fn a_ring_edge_removal_allocates_a_repeatable_bounded_count() {
    let runs: Vec<(u64, u64)> = (0..3).map(|_| ring_removal()).collect();
    println!("ring removal (allocations, bytes): {runs:?}");
    assert!(
        runs.iter().all(|&r| r == runs[0]),
        "counts differ between runs: {runs:?}"
    );
    let (allocs, _) = runs[0];
    assert!(
        2 * allocs <= RING_REMOVAL_BEFORE,
        "{allocs} allocations, more than half of {RING_REMOVAL_BEFORE}"
    );
}
