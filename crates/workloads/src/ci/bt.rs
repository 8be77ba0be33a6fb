//! BT — B+ tree search (Rodinia `b+tree`): each thread descends an
//! array-packed B+ tree for its own query key. The node walks are
//! data-dependent (irregular), but the touched footprint per descent is a
//! handful of lines, so the application is cache-insensitive and CATT's
//! conservative irregular handling leaves it at full TLP.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Fan-out per node.
pub const FANOUT: usize = 8;
/// Tree levels (8^4 = 4096 leaves).
pub const LEVELS: usize = 4;
/// Queries (one thread each).
pub const QUERIES: usize = 4096;
/// Leaves.
pub const LEAVES: usize = FANOUT.pow(LEVELS as u32);

const SRC: &str = "
#define FANOUT 8
#define LEVELS 4
#define QUERIES 4096
__global__ void btree_search(int *keys, int *queries, int *results) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < QUERIES) {
        int q = queries[i];
        int node = 0;
        for (int level = 0; level < LEVELS; level++) {
            int child = FANOUT - 1;
            for (int c = 0; c < FANOUT - 1; c++) {
                if (q < keys[node * FANOUT + c]) {
                    child = c;
                    break;
                }
            }
            node = node * FANOUT + child + 1;
        }
        results[i] = node;
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "btree_search",
    LaunchConfig::d1((QUERIES / 256) as u32, 256),
)];

/// Internal nodes of a complete tree of the given fan-out/levels
/// (`(8^4 − 1) / 7` in the default geometry).
pub fn internal_nodes() -> usize {
    (LEAVES - 1) / (FANOUT - 1)
}

/// Build separator keys so leaf `l` covers keys `[l*8, (l+1)*8)`.
fn build_keys() -> Vec<i32> {
    let nodes = internal_nodes();
    let mut keys = vec![i32::MAX; nodes * FANOUT];
    // Node numbering matches the kernel: child of `node` taking branch
    // `child` is `node * FANOUT + child + 1` (heap-like layout).
    // Separator c of a node at depth d spanning `span` keys from `base`:
    // key = base + (c+1) * span / FANOUT.
    fn fill(keys: &mut [i32], node: usize, base: i32, span: i32, depth: usize) {
        if depth == LEVELS {
            return;
        }
        let child_span = span / FANOUT as i32;
        for c in 0..FANOUT - 1 {
            keys[node * FANOUT + c] = base + (c as i32 + 1) * child_span;
        }
        for c in 0..FANOUT {
            fill(
                keys,
                node * FANOUT + c + 1,
                base + c as i32 * child_span,
                child_span,
                depth + 1,
            );
        }
    }
    fill(&mut keys, 0, 0, (LEAVES * FANOUT / FANOUT) as i32 * 8, 0);
    keys
}

fn host_search(keys: &[i32], q: i32) -> i32 {
    let mut node = 0usize;
    for _ in 0..LEVELS {
        let mut child = FANOUT - 1;
        for c in 0..FANOUT - 1 {
            if q < keys[node * FANOUT + c] {
                child = c;
                break;
            }
        }
        node = node * FANOUT + child + 1;
    }
    node as i32
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let keys = build_keys();
    let queries = data::int_vector("bt:q", QUERIES, (LEAVES * 8) as i32);
    let want: Option<Vec<i32>> =
        validate.then(|| queries.iter().map(|&q| host_search(&keys, q)).collect());
    let (mut mem, [bkeys, bq, bres]) = GlobalMem::with_buffers([
        Init::I32(keys),
        Init::I32(queries),
        Init::Zeroed(QUERIES as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(bkeys), Arg::Buf(bq), Arg::Buf(bres)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let res = mem.read_i32(bres);
        for i in 0..QUERIES {
            assert_eq!(res[i], want[i], "BT query {i}");
        }
    }
    stats
}

/// The BT workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "BT",
        name: "B+ tree search",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "4-level tree, 4096 queries",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bt_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
