//! Deterministic input generators.
//!
//! All inputs derive from a fixed-seed `StdRng` so every run (and every
//! throttling variant within a run) sees identical data — required for the
//! output-equivalence checks between baseline and transformed kernels.

use catt_prng::Rng;

/// The fixed seed all generators use.
pub const SEED: u64 = 0x5EED_CA77;

/// A seeded RNG for workload `tag` (different workloads get decorrelated
/// streams).
pub fn rng(tag: &str) -> Rng {
    let mut seed = SEED;
    for b in tag.bytes() {
        seed = seed.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
    }
    Rng::seed(seed)
}

/// Dense matrix with entries in [0, 1), row-major, `rows × cols`.
pub fn matrix(tag: &str, rows: usize, cols: usize) -> Vec<f32> {
    let mut r = rng(tag);
    (0..rows * cols).map(|_| r.f32()).collect()
}

/// Vector with entries in [0, 1).
pub fn vector(tag: &str, n: usize) -> Vec<f32> {
    let mut r = rng(tag);
    (0..n).map(|_| r.f32()).collect()
}

/// Vector of small positive integers in [0, k).
pub fn int_vector(tag: &str, n: usize, k: i32) -> Vec<i32> {
    let mut r = rng(tag);
    (0..n).map(|_| r.range_i32(0, k)).collect()
}

/// A CSR graph with `nodes` nodes and roughly `avg_degree` out-edges per
/// node (for BFS). Returns `(row_starts, edges)` with
/// `row_starts.len() == nodes + 1`.
pub fn csr_graph(tag: &str, nodes: usize, avg_degree: usize) -> (Vec<i32>, Vec<i32>) {
    let mut r = rng(tag);
    let mut starts = Vec::with_capacity(nodes + 1);
    let mut edges = Vec::new();
    starts.push(0);
    for v in 0..nodes {
        let deg = r.range_usize(0, avg_degree * 2 + 1);
        for _ in 0..deg {
            // Mix local and far edges so BFS reaches most of the graph
            // while neighbour lists stay irregular.
            let target = if r.bool(0.5) {
                ((v + r.range_usize(1, 17)) % nodes) as i32
            } else {
                r.range_i32(0, nodes as i32)
            };
            edges.push(target);
        }
        starts.push(edges.len() as i32);
    }
    (starts, edges)
}

/// An unstructured-mesh neighbour table for the CFD solver: `cells × k`
/// neighbour indices, irregular.
pub fn mesh_neighbors(tag: &str, cells: usize, k: usize) -> Vec<i32> {
    let mut r = rng(tag);
    (0..cells * k)
        .map(|i| {
            let cell = i / k;
            if r.bool(0.7) {
                // Mostly near neighbours (mesh locality)...
                ((cell + r.range_usize(1, 9)) % cells) as i32
            } else {
                // ...with far jumps from mesh irregularity.
                r.range_i32(0, cells as i32)
            }
        })
        .collect()
}

/// Relative L∞ error check between device output, read in place
/// ([`catt_sim::GlobalMem::f32s`]), and host reference.
pub fn assert_close(
    device: impl ExactSizeIterator<Item = f32>,
    host: &[f32],
    tol: f32,
    what: &str,
) {
    assert_eq!(device.len(), host.len(), "{what}: length mismatch");
    for (i, (d, h)) in device.zip(host).enumerate() {
        let scale = h.abs().max(1.0);
        assert!(
            (d - h).abs() <= tol * scale,
            "{what}[{i}]: device {d} vs host {h} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(matrix("a", 4, 4), matrix("a", 4, 4));
        assert_ne!(matrix("a", 4, 4), matrix("b", 4, 4));
        assert_eq!(csr_graph("g", 100, 4), csr_graph("g", 100, 4));
    }

    #[test]
    fn csr_graph_is_well_formed() {
        let (starts, edges) = csr_graph("g", 1000, 4);
        assert_eq!(starts.len(), 1001);
        assert_eq!(*starts.last().unwrap() as usize, edges.len());
        for w in starts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(edges.iter().all(|&e| (0..1000).contains(&e)));
        // Roughly avg_degree edges per node.
        let avg = edges.len() as f64 / 1000.0;
        assert!((2.0..=6.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn mesh_neighbors_in_range() {
        let nb = mesh_neighbors("m", 500, 4);
        assert_eq!(nb.len(), 2000);
        assert!(nb.iter().all(|&e| (0..500).contains(&e)));
    }

    #[test]
    #[should_panic(expected = "device")]
    fn assert_close_catches_mismatch() {
        assert_close([1.0].into_iter(), &[2.0], 1e-3, "x");
    }
}
