//! BFS — breadth-first search (Rodinia), the paper's canonical
//! *irregular* workload: neighbour indices come from memory, so `C_tid`
//! is not a compile-time constant and CATT conservatively sets it to 1
//! (§4.2), preserving the original TLP.
//!
//! Standard two-kernel frontier formulation: kernel 1 expands the current
//! frontier over a CSR graph; kernel 2 commits the next frontier and
//! raises a continuation flag the host polls.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Nodes in the synthetic graph (`graph128k.txt` stand-in at sim scale).
pub const NODES: usize = 16384;
/// Average out-degree.
pub const DEGREE: usize = 4;
/// Source node.
pub const SOURCE: usize = 0;

const SRC: &str = "
#define NODES 16384
__global__ void bfs_kernel1(int *starts, int *edges, int *mask, int *visited, int *updating, int *cost) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NODES) {
        if (mask[i] == 1) {
            mask[i] = 0;
            for (int j = starts[i]; j < starts[i + 1]; j++) {
                int nb = edges[j];
                if (visited[nb] == 0) {
                    cost[nb] = cost[i] + 1;
                    updating[nb] = 1;
                }
            }
        }
    }
}
__global__ void bfs_kernel2(int *mask, int *visited, int *updating, int *flag) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NODES) {
        if (updating[i] == 1) {
            updating[i] = 0;
            mask[i] = 1;
            visited[i] = 1;
            flag[0] = 1;
        }
    }
}
";

const GRID: u32 = (NODES / 256) as u32;
const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("bfs_kernel1", LaunchConfig::d1(GRID, 256)),
    ("bfs_kernel2", LaunchConfig::d1(GRID, 256)),
];

fn host_bfs(starts: &[i32], edges: &[i32]) -> Vec<i32> {
    let mut cost = vec![-1i32; NODES];
    cost[SOURCE] = 0;
    let mut frontier = vec![SOURCE];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &edge in &edges[starts[v] as usize..starts[v + 1] as usize] {
                let nb = edge as usize;
                if cost[nb] == -1 {
                    cost[nb] = cost[v] + 1;
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    cost
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let (starts, edges) = data::csr_graph("bfs", NODES, DEGREE);
    let want = validate.then(|| host_bfs(&starts, &edges));
    let mut mask = vec![0i32; NODES];
    mask[SOURCE] = 1;
    let mut visited = vec![0i32; NODES];
    visited[SOURCE] = 1;
    let mut cost = vec![-1i32; NODES];
    cost[SOURCE] = 0;
    let (mut mem, [bstarts, bedges, bmask, bvisited, bupdating, bcost, bflag]) =
        GlobalMem::with_buffers([
            Init::I32(starts),
            Init::I32(edges),
            Init::I32(mask),
            Init::I32(visited),
            Init::Zeroed(NODES as u32),
            Init::I32(cost),
            Init::Zeroed(1),
        ]);

    let mut total = LaunchStats::default();
    // Host loop: launch the kernel pair until kernel 2 stops raising the
    // flag (Rodinia's `stop` protocol). Bounded to the worst diameter.
    for _level in 0..NODES {
        mem.store(bflag.addr, 0);
        let stats = exec_sequence(
            kernels,
            &[LAUNCHES[0].1, LAUNCHES[1].1],
            &[
                vec![
                    Arg::Buf(bstarts),
                    Arg::Buf(bedges),
                    Arg::Buf(bmask),
                    Arg::Buf(bvisited),
                    Arg::Buf(bupdating),
                    Arg::Buf(bcost),
                ],
                vec![
                    Arg::Buf(bmask),
                    Arg::Buf(bvisited),
                    Arg::Buf(bupdating),
                    Arg::Buf(bflag),
                ],
            ],
            config,
            &mut mem,
        );
        total.accumulate(&stats);
        total.resident_tbs_per_sm = stats.resident_tbs_per_sm;
        if mem.load(bflag.addr) == 0 {
            break;
        }
    }
    if let Some(host) = want {
        // Reachability and distances must agree exactly.
        assert_eq!(mem.read_i32(bcost), host, "BFS cost mismatch");
    }
    total
}

/// The BFS workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "BFS",
        name: "Breadth-first search",
        suite: "Rodinia",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "16K-node CSR graph, avg degree 4",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn irregular_bfs_is_left_at_full_tlp() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        for (i, k) in app.kernels.iter().enumerate() {
            assert!(
                !k.is_transformed(),
                "kernel {i}: irregular accesses must be handled conservatively"
            );
        }
        // The expand kernel's neighbour accesses are irregular.
        let k1 = &app.kernels[0].analysis;
        let l = &k1.loops[0];
        assert!(
            l.accesses
                .iter()
                .any(|a| a.array == "visited" && a.c_tid.is_none()),
            "visited[nb] must be classified irregular"
        );
    }
}
