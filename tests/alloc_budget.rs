//! Allocation budget of the compile path.
//!
//! One sweep compiles the `compile_cold` corpus (ten sources under four
//! modes) through `parse_unit` → `lower_unit` → `apply_passes` →
//! `print_program` and counts heap allocations per layer. The count
//! repeats exactly from run to run, so the ceiling can sit close above
//! what the code reaches: it catches a regression the benchmark's 10 %
//! wall-clock bound is too loose to see. Run with `--nocapture` to print
//! the per-layer table.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator, and it holds a single test so that nothing else
//! allocates while a layer is being counted.

mod common;

use earthc::earth_frontend::{lower_unit, parse_unit};
use earthc::earth_ir::pretty;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations of one sweep over the four layers: 245,975 before the
/// compile path was taken out of the allocator (parse 49,040, lower
/// 35,864, passes 97,255, pretty 63,816), 59,037 after (18,152 / 11,324 /
/// 29,155 / 406); the ceiling is that plus 15 %.
const SWEEP_CEILING: u64 = 68_000;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and adds the allocations it made to `into`.
fn counted<T>(into: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    *into += ALLOCATIONS.load(Ordering::Relaxed) - before;
    out
}

#[derive(Default)]
struct Sweep {
    parse: u64,
    lower: u64,
    passes: u64,
    pretty: u64,
    lines: u64,
}

fn sweep() -> Sweep {
    let mut s = Sweep::default();
    let modes = common::modes();
    for (name, src) in common::sources() {
        for (mode, pipeline) in &modes {
            let unit = counted(&mut s.parse, || parse_unit(src)).expect("parses");
            let mut prog = counted(&mut s.lower, || lower_unit(&unit)).expect("lowers");
            counted(&mut s.passes, || pipeline.apply_passes(&mut prog))
                .unwrap_or_else(|e| panic!("{name} {mode}: {e}"));
            let text = counted(&mut s.pretty, || pretty::print_program(&prog));
            s.lines += text.lines().count() as u64;
        }
    }
    s
}

#[test]
fn compile_path_stays_within_its_allocation_budget() {
    // The first sweep pays for whatever is resolved once per process.
    sweep();
    let s = sweep();
    let total = s.parse + s.lower + s.passes + s.pretty;
    println!("layer    allocations");
    println!("parse    {:>11}", s.parse);
    println!("lower    {:>11}", s.lower);
    println!("passes   {:>11}", s.passes);
    println!("pretty   {:>11}  ({} lines)", s.pretty, s.lines);
    println!("sweep    {total:>11}  (ceiling {SWEEP_CEILING})");
    let again = sweep();
    assert_eq!(
        total,
        again.parse + again.lower + again.passes + again.pretty,
        "the count must repeat exactly"
    );
    assert!(
        s.pretty < s.lines,
        "print_program allocated {} times for {} lines",
        s.pretty,
        s.lines
    );
    assert!(
        total <= SWEEP_CEILING,
        "{total} allocations per sweep, ceiling {SWEEP_CEILING}"
    );
}
