//! Allocation guard: a `TestOut` or `HP-TestOut` wave allocates no more
//! often than a `CountNodes` wave over the same tree, however many edges
//! each node holds.
//!
//! A counting global allocator wraps the system allocator. On a warmed
//! minimum spanning tree of a dense graph (every node has ~64 incident
//! edges), one `CountNodes` broadcast-and-echo sets the engine's own
//! per-run allocation count. The node-local work of the search aggregates
//! (hash derivation, sub-interval lookup, products mod `2^61 − 1`) must add
//! nothing to it: a per-node allocation would add ~128 per wave. The only
//! extra allowed is the one `Vec` of sub-intervals in the `wide_test_out`
//! result.
//!
//! This file holds a single `#[test]` on purpose: the counter is global to
//! the test binary, and a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kkt_congest::broadcast_echo::{run_broadcast_echo, CountNodes};
use kkt_congest::{Network, NetworkConfig};
use kkt_core::{hp_test_out, wide_test_out, WeightInterval};
use kkt_graphs::{generators, kruskal};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// Count every call that can acquire heap memory and delegate the work to the
// system allocator; frees mirror the counted acquisitions.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn search_waves_allocate_no_more_than_a_count_wave() {
    let mut rng = StdRng::seed_from_u64(64);
    let g = generators::connected_gnp(128, 0.5, 1 << 20, &mut rng);
    let mst = kruskal(&g);
    let mut net = Network::new(g, NetworkConfig::default());
    net.mark_all(&mst.edges);
    let mean_degree = 2 * net.edge_count() / net.node_count();
    assert!((56..=72).contains(&mean_degree), "mean degree {mean_degree}");
    let interval = WeightInterval::up_to_raw(1 << 20, net.id_bits());

    // Warmup: builds every view and grows the pooled engine buffers for each
    // wave's message type.
    for _ in 0..2 {
        run_broadcast_echo(&mut net, 0, CountNodes).unwrap();
        wide_test_out(&mut net, 0, interval, 16, 4, &mut rng).unwrap();
        hp_test_out(&mut net, 0, interval, &mut rng).unwrap();
    }

    let (count, count_allocs) =
        allocations(|| run_broadcast_echo(&mut net, 0, CountNodes).unwrap());
    assert_eq!(count, 128, "the tree spans the graph");
    let (wide, wide_allocs) =
        allocations(|| wide_test_out(&mut net, 0, interval, 16, 4, &mut rng).unwrap());
    assert_eq!(wide.subintervals.len(), 16);
    let (_, hp_allocs) = allocations(|| hp_test_out(&mut net, 0, interval, &mut rng).unwrap());

    assert!(
        wide_allocs <= count_allocs + 1,
        "wide_test_out wave: {wide_allocs} allocations vs {count_allocs} for CountNodes"
    );
    assert!(
        hp_allocs <= count_allocs,
        "hp_test_out wave: {hp_allocs} allocations vs {count_allocs} for CountNodes"
    );
}
