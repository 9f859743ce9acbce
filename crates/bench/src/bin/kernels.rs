//! Kernel throughput: GFLOP/s of the three GEMM variants at RNN task
//! shapes, per [`Backend`] kind: `scalar` (the portable loops of
//! `bpar_tensor::reference`) and `simd` (the dispatched kernels the free
//! functions run — same bits); and ns per element of the two gate
//! non-linearities (`activation::sigmoid_slice` / `tanh_slice`, the one
//! f32 polynomial every backend runs) beside one libm call per element.
//!
//! The shapes are the fused LSTM gate products `(batch × (input+hidden)) ·
//! ((input+hidden) × 4·hidden)` at the model scales of Tables III/IV, plus
//! an `m = 1` serving shape where the GEMM degenerates to a matrix-vector
//! product.
//!
//! Two yardsticks per row. `vs_scalar` is the distance from ourselves:
//! the speed-up over the portable loops at the same (op, shape).
//! `peak_frac` is the distance from the machine: GFLOP/s divided by the
//! rate a register-only FMA loop reaches on the same unit at the same
//! register width ([`bpar_tensor::gemm::fma_chains`]), measured once at
//! start-up. The run records which tier the dispatched kernels ran
//! (`avx512`, `avx2`, `neon` or `portable`: `SimdBackend::tier`).
//!
//! When a vector unit was detected (`Backend::simd().simd_active()`), the
//! binary *asserts* a ≥ 2× geomean speed-up of the dispatched forward-path
//! `NN` GEMM over the `scalar` row — the CI gate that keeps the dispatch
//! from silently rotting into the portable fallback. On machines without
//! AVX2+FMA, AVX-512F or NEON the gate is skipped (the kernels *are* the portable loops
//! there, by design). Under the same condition it asserts that the
//! polynomial non-linearities are ≥ 3× faster per element than libm at
//! every measured shape — the gate that keeps their loops vectorised.
//!
//! Usage:
//!   cargo run --release -p bpar-bench --bin kernels

use bpar_bench::{print_table, write_json};
use bpar_tensor::activation::{sigmoid_slice, tanh_slice};
use bpar_tensor::gemm::{fma_chain_flops, fma_chains};
use bpar_tensor::{init, Backend, BackendKind, Matrix, SimdBackend, Workspace};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 17;
const WARMUP: usize = 2;
/// Minimum FLOPs per timed sample; iteration counts are derived from the
/// shape so small shapes don't drown in timer noise.
const TARGET_FLOPS: f64 = 2e8;
/// The in-binary CI gate: the dispatched kernels must beat the portable
/// loops by this factor (geomean over shapes, forward `NN` GEMM) wherever
/// a vector unit was detected.
const SIMD_GATE: f64 = 2.0;
/// The second in-binary gate: the polynomial sigmoid/tanh must beat the
/// libm formulation by this factor per element, at every shape below,
/// wherever a vector unit was detected.
const ACTIVATION_GATE: f64 = 3.0;
/// Elements per timed activation sample.
const TARGET_ELEMS: f64 = 2e7;

/// `(batch, input + hidden, 4 * hidden)` LSTM gate-GEMM shapes.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 320, 512),
    (16, 96, 128),
    (32, 320, 512),
    (64, 512, 1024),
];

/// `(rows, cols)` of the activation rows: one LSTM gate block of the
/// `train_coarse` cell (16 × 4·48) and one register's worth.
const ACTIVATION_SHAPES: &[(usize, usize)] = &[(16, 192), (1, 8)];

#[derive(Serialize)]
struct KernelRow {
    op: &'static str,
    backend: &'static str,
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    gflops: f64,
    /// This row's speed-up over the portable loops (`scalar`) at the same
    /// (op, shape).
    vs_scalar: f64,
    /// `gflops` over the host's measured register-only FMA rate.
    peak_frac: f64,
}

#[derive(Serialize)]
struct ActivationRow {
    op: &'static str,
    rows: usize,
    cols: usize,
    iters: usize,
    /// The dispatched slice entry point, refilling the buffer included.
    ns_per_elem: f64,
    /// One libm call (`expf` / `tanhf`) per element over the same buffer.
    libm_ns_per_elem: f64,
    vs_libm: f64,
}

#[derive(Serialize)]
struct KernelsReport {
    seed: u64,
    simd_active: bool,
    /// The tier the dispatched kernels ran: `avx512`, `avx2`, `neon` or
    /// `portable`.
    tier: &'static str,
    simd_gate: f64,
    activation_gate: f64,
    /// Geomean simd/scalar speed-up on the forward-path NN GEMM.
    simd_nn_geomean: f64,
    /// GFLOP/s of the register-only FMA loop: `peak_frac`'s denominator.
    fma_peak_gflops: f64,
    config: String,
    rows: Vec<KernelRow>,
    activations: Vec<ActivationRow>,
}

/// Times `f` over a derived iteration count and returns (GFLOP/s, iters).
fn time_gflops(flops_per_iter: f64, mut f: impl FnMut()) -> (f64, usize) {
    let iters = ((TARGET_FLOPS / flops_per_iter).ceil() as usize).clamp(3, 10_000);
    for _ in 0..WARMUP {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (flops_per_iter * iters as f64 / secs / 1e9, iters)
}

/// Best of five timings of the register-only FMA loop at the dispatched
/// tier's register width, in GFLOP/s.
fn fma_peak_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(fma_chains(ITERS));
            (fma_chain_flops() * ITERS) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The comparison column's f32 sigmoid, composed from libm's `expf` (taken
/// of a non-positive argument only, so nothing overflows).
fn libm_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// ns per element of `f` applied in place to a `rows × cols` block of
/// pre-activations in [-6, 6], refilled from `src` before every call (both
/// columns pay for the copy).
fn time_ns_per_elem(src: &[f32], mut f: impl FnMut(&mut [f32])) -> (f64, usize) {
    let iters = ((TARGET_ELEMS / src.len() as f64).ceil() as usize).max(3);
    let mut buf = src.to_vec();
    let mut run = |n: usize| {
        for _ in 0..n {
            buf.copy_from_slice(black_box(src));
            f(&mut buf);
            black_box(buf[0]);
        }
    };
    run(WARMUP);
    let start = Instant::now();
    run(iters);
    let ns = start.elapsed().as_secs_f64() * 1e9;
    (ns / (iters * src.len()) as f64, iters)
}

fn activation_rows() -> Vec<ActivationRow> {
    let mut out = Vec::new();
    for &(rows, cols) in ACTIVATION_SHAPES {
        let src: Matrix<f32> = init::uniform(rows, cols, -6.0, 6.0, SEED + 4);
        let src = src.as_slice();
        let mut row = |op, poly: fn(&mut [f32]), libm: fn(f32) -> f32| {
            let (ns_per_elem, iters) = time_ns_per_elem(src, poly);
            let (libm_ns_per_elem, _) = time_ns_per_elem(src, |m| {
                for v in m {
                    *v = libm(*v);
                }
            });
            out.push(ActivationRow {
                op,
                rows,
                cols,
                iters,
                ns_per_elem,
                libm_ns_per_elem,
                vs_libm: libm_ns_per_elem / ns_per_elem,
            });
        };
        row("sigmoid", sigmoid_slice::<f32>, libm_sigmoid);
        row("tanh", tanh_slice::<f32>, f32::tanh);
    }
    out
}

fn main() {
    let simd_active = Backend::simd().simd_active();
    let tier = SimdBackend::tier();
    let peak = fma_peak_gflops();
    println!(
        "kernels: simd_active = {simd_active} (portable loops otherwise), tier = {tier}, \
         register-only FMA peak at that width = {peak:.1} GFLOP/s"
    );

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut table = Vec::new();
    for &(m, k, n) in SHAPES {
        let a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, SEED);
        let b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, SEED + 1);
        let bt: Matrix<f32> = init::uniform(n, k, -1.0, 1.0, SEED + 2);
        let at: Matrix<f32> = init::uniform(k, m, -1.0, 1.0, SEED + 3);
        let mut c: Matrix<f32> = Matrix::zeros(m, n);
        let mut ws: Workspace<f32> = Workspace::new();
        let flops = 2.0 * m as f64 * k as f64 * n as f64;

        // `scalar` comes first: every later row is compared to it.
        for kind in BackendKind::all() {
            let be = Backend::of(kind);
            let label = kind.as_str();

            for op in ["gemm_nn", "gemm_nt", "gemm_tn"] {
                let (gflops, iters) = time_gflops(flops, || {
                    let (a, b, at, bt) =
                        (black_box(&a), black_box(&b), black_box(&at), black_box(&bt));
                    match op {
                        "gemm_nn" => be.gemm(1.0f32, a, b, 0.0, &mut c, &mut ws),
                        "gemm_nt" => be.gemm_nt(1.0f32, a, bt, 0.0, &mut c),
                        _ => be.gemm_tn(1.0f32, at, b, 0.0, &mut c),
                    }
                    black_box(c.get(0, 0));
                });
                let vs_scalar = rows
                    .iter()
                    .find(|r| {
                        r.op == op
                            && r.backend == BackendKind::Scalar.as_str()
                            && (r.m, r.k, r.n) == (m, k, n)
                    })
                    .map_or(1.0, |r| gflops / r.gflops);
                let peak_frac = gflops / peak;
                table.push(vec![
                    op.to_string(),
                    label.to_string(),
                    format!("{m}x{k}x{n}"),
                    iters.to_string(),
                    format!("{gflops:.2}"),
                    format!("{vs_scalar:.2}x"),
                    format!("{peak_frac:.3}"),
                ]);
                rows.push(KernelRow {
                    op,
                    backend: label,
                    m,
                    k,
                    n,
                    iters,
                    gflops,
                    vs_scalar,
                    peak_frac,
                });
            }
        }
    }

    print_table(
        "kernels: GFLOP/s per backend and GEMM shape",
        &[
            "op",
            "backend",
            "shape",
            "iters",
            "GFLOP/s",
            "vs_scalar",
            "peak_frac",
        ],
        &table,
    );

    let nn_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.op == "gemm_nn" && r.backend == BackendKind::Simd.as_str())
        .map(|r| r.vs_scalar)
        .collect();
    let geomean =
        (nn_speedups.iter().map(|s| s.ln()).sum::<f64>() / nn_speedups.len().max(1) as f64).exp();
    println!(
        "\nsimd vs scalar, forward NN GEMM geomean: {geomean:.2}x \
         (gate: >= {SIMD_GATE}x when a vector unit is detected)"
    );
    if simd_active {
        assert!(
            geomean >= SIMD_GATE,
            "a vector unit is detected but the dispatched NN GEMM's geomean \
             speed-up over the portable loops ({geomean:.2}x) is below the \
             {SIMD_GATE}x gate — the dispatch has regressed to the fallback"
        );
    } else {
        println!("(no vector unit detected on this machine; gate skipped)");
    }

    let activations = activation_rows();
    print_table(
        "kernels: gate non-linearities, ns per element (one f32 polynomial on every backend)",
        &["op", "shape", "iters", "ns/elem", "libm ns/elem", "vs_libm"],
        &activations
            .iter()
            .map(|r| {
                vec![
                    r.op.to_string(),
                    format!("{}x{}", r.rows, r.cols),
                    r.iters.to_string(),
                    format!("{:.2}", r.ns_per_elem),
                    format!("{:.2}", r.libm_ns_per_elem),
                    format!("{:.2}x", r.vs_libm),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if simd_active {
        for r in &activations {
            assert!(
                r.vs_libm >= ACTIVATION_GATE,
                "a vector unit is detected but {} at {}x{} is only {:.2}x faster than \
                 libm (gate {ACTIVATION_GATE}x) — its loop no longer vectorises",
                r.op,
                r.rows,
                r.cols,
                r.vs_libm
            );
        }
    } else {
        println!("(no vector unit detected on this machine; activation gate skipped)");
    }

    let canonical = format!(
        "shapes={},activations={},warmup={WARMUP},target_flops={TARGET_FLOPS:.0},gate={SIMD_GATE},\
         activation_gate={ACTIVATION_GATE},simd={simd_active},tier={tier}",
        SHAPES
            .iter()
            .map(|&(m, k, n)| format!("{m}x{k}x{n}"))
            .collect::<Vec<_>>()
            .join("+"),
        ACTIVATION_SHAPES
            .iter()
            .map(|&(r, c)| format!("{r}x{c}"))
            .collect::<Vec<_>>()
            .join("+"),
    );
    let report = KernelsReport {
        seed: SEED,
        simd_active,
        tier,
        simd_gate: SIMD_GATE,
        activation_gate: ACTIVATION_GATE,
        simd_nn_geomean: geomean,
        fma_peak_gflops: peak,
        config: canonical.clone(),
        rows,
        activations,
    };
    write_json(
        &bpar_serve::metrics::report_name("kernels", SEED, &canonical),
        &report,
    );
}
