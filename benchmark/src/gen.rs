//! Seeded input generators: the two kernel templates, their plain-Rust host
//! references, the Zipf popularity sampler and the request lines.
//!
//! The seed changes every constant of a generated kernel and never its
//! shape (threads, trip count, coalescing class), so two seeds give
//! different inputs of the same cost: the spread between seeds is then the
//! host's noise, not the draw.

use catt_prng::Rng;

/// Threads of every generated kernel: grid 32 × block 256.
pub const GRID: u32 = 32;
pub const BLOCK: u32 = 256;
pub const N: u32 = GRID * BLOCK;

/// The launch of every generated kernel.
pub fn launch() -> catt_ir::LaunchConfig {
    catt_ir::LaunchConfig::d1(GRID, BLOCK)
}

/// Loop trip count of both templates.
pub const TRIPS: i32 = 64;

/// The argument spec a `gen-stride` request carries (`a`, `out`, `n`).
pub const STRIDE_ARGS: &str = "f:8192,f:8192,si:8192";

/// Constants of one generated kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// `gen-alu`: three dependent register FMA chains, no loads.
    Alu {
        x0: f32,
        y0: f32,
        a: f32,
        b: f32,
        c: f32,
        d: f32,
        e: f32,
    },
    /// `gen-stride`: `acc += a[(i*S + j*T) % n] * C`.
    Stride { s: i32, t: i32, c: f32 },
}

/// One generated kernel: CUDA source plus what is needed to launch and
/// check it.
#[derive(Debug, Clone, PartialEq)]
pub struct GenKernel {
    pub name: String,
    pub source: String,
    pub template: Template,
}

/// A multiple of 1/1024 in `[lo, hi)`: exactly representable in `f32`
/// and in at most ten decimals, so the literal in the source and the
/// constant in the host reference are the same number.
fn dyadic(rng: &mut Rng, lo: f64, hi: f64) -> f32 {
    let k = rng.range_u32((lo * 1024.0) as u32, (hi * 1024.0) as u32);
    k as f32 / 1024.0
}

/// `v` as a CUDA `float` literal.
fn lit(v: f32) -> String {
    let s = format!("{:.10}", v);
    let s = s.trim_end_matches('0');
    if s.ends_with('.') {
        format!("{s}0f")
    } else {
        format!("{s}f")
    }
}

/// A `gen-alu` kernel: every coefficient keeps its chain contracting, so
/// values stay bounded for any trip count.
pub fn alu_kernel(rng: &mut Rng, name: &str) -> GenKernel {
    let (x0, y0) = (dyadic(rng, 0.0, 1.0), dyadic(rng, 0.0, 1.0));
    let (a, b) = (dyadic(rng, 0.5, 0.97), dyadic(rng, 0.03, 1.0));
    let c = dyadic(rng, 0.25, 0.75);
    let (d, e) = (dyadic(rng, 0.25, 0.75), dyadic(rng, 0.125, 0.5));
    let source = format!(
        "__global__ void {name}(float *out, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        float x = (float)(i % 61) * 0.03125f + {x0};
        float y = {y0};
        float z = 0.0f;
        for (int j = 0; j < {TRIPS}; j++) {{
            x = x * {a} + {b};
            y = y * {c} + x;
            z = z * {d} + y * {e};
        }}
        out[i] = x + y + z;
    }}
}}
",
        x0 = lit(x0),
        y0 = lit(y0),
        a = lit(a),
        b = lit(b),
        c = lit(c),
        d = lit(d),
        e = lit(e),
    );
    GenKernel {
        name: name.to_string(),
        source,
        template: Template::Alu {
            x0,
            y0,
            a,
            b,
            c,
            d,
            e,
        },
    }
}

/// A `gen-stride` kernel of coalescing class `class`: thread stride 1 (one
/// line per warp access), 4 (four lines) or an odd stride above 32 (32
/// lines). The class fixes the cost; the seed picks the constants within it.
pub fn stride_kernel(rng: &mut Rng, name: &str, class: usize) -> GenKernel {
    let odd = |rng: &mut Rng, lo: i32, hi: i32| rng.range_i32(lo / 2, hi / 2) * 2 + 1;
    let (s, t) = match class {
        0 => (1, odd(rng, 33, 95)),
        1 => (4, odd(rng, 33, 95)),
        _ => (odd(rng, 33, 95), odd(rng, 1, 31)),
    };
    // Multiples of 1/64 times the small integers of the input stay exact in
    // f32 whatever the summation order.
    let c = rng.range_u32(32, 96) as f32 / 64.0;
    let source = format!(
        "__global__ void {name}(float *a, float *out, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        float acc = 0.0f;
        for (int j = 0; j < {TRIPS}; j++) {{
            acc += a[(i * {s} + j * {t}) % n] * {c};
        }}
        out[i] = acc;
    }}
}}
",
        c = lit(c),
    );
    GenKernel {
        name: name.to_string(),
        source,
        template: Template::Stride { s, t, c },
    }
}

/// Which kernels a corpus holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Alu,
    /// `gen-stride`, cycling through the first `classes` coalescing classes.
    /// All three for the simulator's own workload; the two that cost the
    /// same (38 ms here against 31 ms for the third) for requests, whose
    /// median latency would otherwise sit on the edge between two modes.
    Stride {
        classes: usize,
    },
}

/// `count` kernels of one kind, named `<prefix><index>`.
pub fn corpus(seed: u64, prefix: &str, count: usize, kind: Kind) -> Vec<GenKernel> {
    let mut rng = Rng::seed(seed);
    (0..count)
        .map(|i| {
            let name = format!("{prefix}{i}");
            match kind {
                Kind::Alu => alu_kernel(&mut rng, &name),
                Kind::Stride { classes } => stride_kernel(&mut rng, &name, i % classes.clamp(1, 3)),
            }
        })
        .collect()
}

/// The daemon's deterministic fill for the `arg_index`-th buffer argument
/// (`catt run` uses the same pattern); the direct replay and the host
/// reference must see the bytes the daemon's own launch saw.
pub fn serve_fill(len: u32, arg_index: u32) -> Vec<f32> {
    (0..len)
        .map(|v| ((v * 7 + arg_index) % 13) as f32)
        .collect()
}

impl GenKernel {
    /// What `out` must hold after the kernel ran over `n` threads with
    /// input buffer `a` (ignored by `gen-alu`): the same `f32` operations
    /// in the same order, in plain Rust.
    pub fn reference(&self, a: &[f32], n: u32) -> Vec<f32> {
        (0..n as i32)
            .map(|i| match self.template {
                Template::Alu {
                    x0,
                    y0,
                    a,
                    b,
                    c,
                    d,
                    e,
                } => {
                    let mut x = (i % 61) as f32 * 0.03125 + x0;
                    let (mut y, mut z) = (y0, 0.0f32);
                    for _ in 0..TRIPS {
                        x = x * a + b;
                        y = y * c + x;
                        z = z * d + y * e;
                    }
                    x + y + z
                }
                Template::Stride { s, t, c } => {
                    let mut acc = 0.0f32;
                    for j in 0..TRIPS {
                        acc += a[((i * s + j * t) % n as i32) as usize] * c;
                    }
                    acc
                }
            })
            .collect()
    }

    /// One NDJSON `submit` line for this kernel.
    pub fn submit_line(&self, id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"op\":\"submit\",\"tenant\":\"bench\",\"kernel\":\"{}\",\
             \"name\":\"{}\",\"grid\":{GRID},\"block\":{BLOCK},\"args\":\"{STRIDE_ARGS}\"}}",
            crate::json::escape(&self.source),
            self.name
        )
    }
}

/// Zipf(s = 1) popularity over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_ir::LaunchConfig;
    use catt_sim::{Arg, GlobalMem, Gpu};
    use catt_workloads::harness::eval_config_max_l1d;

    #[test]
    fn literals_are_exact() {
        assert_eq!(lit(0.5), "0.5f");
        assert_eq!(lit(1.0), "1.0f");
        assert_eq!(lit(0.0009765625), "0.0009765625f");
        let mut rng = Rng::seed(3);
        for _ in 0..200 {
            let v = dyadic(&mut rng, 0.0, 1.0);
            let text = lit(v);
            assert_eq!(text.trim_end_matches('f').parse::<f32>().unwrap(), v);
        }
    }

    #[test]
    fn corpora_are_byte_identical_per_seed_and_differ_across_seeds() {
        for kind in [Kind::Alu, Kind::Stride { classes: 3 }] {
            let a = corpus(11, "k", 12, kind);
            assert_eq!(a, corpus(11, "k", 12, kind));
            let b = corpus(12, "k", 12, kind);
            assert!(a.iter().zip(&b).all(|(x, y)| x.source != y.source));
            // Distinct within one corpus, too: each is its own cache key.
            let mut sources: Vec<&str> = a.iter().map(|k| k.source.as_str()).collect();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), a.len());
        }
    }

    #[test]
    fn stride_classes_cycle() {
        let ks = corpus(5, "k", 6, Kind::Stride { classes: 3 });
        let strides: Vec<i32> = ks
            .iter()
            .map(|k| match k.template {
                Template::Stride { s, .. } => s,
                Template::Alu { .. } => unreachable!(),
            })
            .collect();
        assert_eq!((strides[0], strides[1]), (1, 4));
        assert!(strides[2] > 32 && strides[2] % 2 == 1);
        assert_eq!((strides[3], strides[4]), (1, 4));
        let two = corpus(5, "k", 4, Kind::Stride { classes: 2 });
        assert!(two
            .iter()
            .all(|k| matches!(k.template, Template::Stride { s: 1 | 4, .. })));
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(64);
        let draw = |seed| {
            let mut rng = Rng::seed(seed);
            (0..4000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < 64));
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        // P(rank 0) = 1 / H(64) = 0.211.
        assert!((top - 0.211).abs() < 0.03, "{top}");
    }

    /// Each template, run on the simulator at a tiny size, must agree with
    /// its host reference bit for bit.
    #[test]
    fn templates_agree_with_their_host_reference() {
        let n = 96u32; // 3 blocks of 32: exercises the `i < n` guard too
        for kind in [Kind::Alu, Kind::Stride { classes: 3 }] {
            let stride = kind != Kind::Alu;
            for k in corpus(9, "t", 3, kind) {
                let kernel = catt_frontend::parse_module(&k.source)
                    .unwrap_or_else(|e| panic!("{}: {e}", k.name))
                    .kernels
                    .remove(0);
                let program = catt_sim::lower(&kernel).unwrap();
                let mut mem = GlobalMem::new();
                let input = serve_fill(n, 0);
                let out = mem.alloc_f32(&vec![-1.0; 128]);
                let args = if stride {
                    vec![
                        Arg::Buf(mem.alloc_f32(&input)),
                        Arg::Buf(out),
                        Arg::I32(n as i32),
                    ]
                } else {
                    vec![Arg::Buf(out), Arg::I32(n as i32)]
                };
                Gpu::new(eval_config_max_l1d())
                    .launch_program(&program, LaunchConfig::d1(4, 32), &args, &mut mem)
                    .unwrap();
                let got = mem.read_f32(out);
                let want = k.reference(&input, n);
                for i in 0..n as usize {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "{} out[{i}]", k.name);
                }
                assert!(
                    got[n as usize..].iter().all(|&v| v == -1.0),
                    "guard breached"
                );
            }
        }
    }
}
