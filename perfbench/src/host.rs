//! The host-speed reference: a fixed kernel, timed next to every measured
//! operation, that puts host times on one nominal host speed.
//!
//! The host these figures were sized on is shared. It alternates between fast
//! and slow phases that last from a second to minutes: one build of one graph
//! reads 26 or 45 ms a few seconds apart, and a whole 30-second run can sit in
//! a slow phase. The slowdown hits graph code (sorting, union-find, adjacency
//! walks, small allocations) far harder than a tight arithmetic loop, so the
//! reference kernel does that kind of work on a fixed random graph. Divided by
//! the kernel's time measured around it, an operation's time moves with the
//! program and much less with the host: on that host the per-window median of
//! a build's ratio stayed within ±4% while the raw median moved ±9%.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Seconds the reference kernel takes on the nominal host. Host times are
/// reported as `measured / reference × NOMINAL_S`, so they read as seconds on
/// a host that runs the kernel in 4 ms (about the sizing host's fast phase).
pub const NOMINAL_S: f64 = 0.004;

/// Nodes of the reference graph.
const NODES: usize = 2048;
/// Edges of the reference graph.
const EDGES: usize = 8192;
/// Breadth-first searches per kernel run.
const SEARCHES: u32 = 8;

/// Xorshift64: the kernel's input must not depend on any library code.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Union-find root with path halving.
fn root(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// The kernel: Kruskal over a fixed random multigraph, adjacency lists, and
/// breadth-first searches that record their parents in an ordered map.
/// Returns a checksum so that nothing is optimised away.
fn kernel() -> u64 {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut edges: Vec<(u64, u32, u32)> = (0..EDGES)
        .map(|_| {
            let w = rng.next() % 1000;
            let u = (rng.next() % NODES as u64) as u32;
            let v = (rng.next() % NODES as u64) as u32;
            (w, u, v)
        })
        .collect();
    edges.sort_unstable();
    let mut parent: Vec<u32> = (0..NODES as u32).collect();
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    let mut sum = 0;
    for &(w, u, v) in &edges {
        let (a, b) = (root(&mut parent, u), root(&mut parent, v));
        if a != b {
            parent[a as usize] = b;
            sum += w;
        }
        adjacency[u as usize].push(v);
        adjacency[v as usize].push(u);
    }
    let mut parents = BTreeMap::new();
    for source in 0..SEARCHES {
        let mut dist = vec![u32::MAX; NODES];
        let mut queue = VecDeque::from([source]);
        dist[source as usize] = 0;
        while let Some(x) = queue.pop_front() {
            for &y in &adjacency[x as usize] {
                if dist[y as usize] == u32::MAX {
                    dist[y as usize] = dist[x as usize] + 1;
                    queue.push_back(y);
                    parents.insert((y, source), x);
                }
            }
        }
        sum += dist.iter().filter(|&&d| d != u32::MAX).map(|&d| u64::from(d)).sum::<u64>();
    }
    sum + parents.len() as u64
}

/// Runs the reference kernel once; returns its host seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The factor that puts a host time measured between two reference runs of
/// `before` and `after` seconds on the nominal host.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scale_is_one_at_nominal_speed() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
    }
}
