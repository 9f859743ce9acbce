//! Kernel throughput: GFLOP/s of the three GEMM variants at RNN task
//! shapes, per [`Backend`] kind: `scalar` (the portable loops of
//! `bpar_tensor::reference`), `simd` (the dispatched kernels the free
//! functions run — same bits) and int8 quantized inference.
//!
//! The shapes are the fused LSTM gate products `(batch × (input+hidden)) ·
//! ((input+hidden) × 4·hidden)` at the model scales of Tables III/IV, plus
//! an `m = 1` serving shape where the GEMM degenerates to a matrix-vector
//! product. Int8 rows report *effective* GFLOP/s — the f32 FLOP count of
//! the equivalent exact GEMM divided by wall time, i.e. "how much f32 work
//! this path replaces per second" (its inner loop does integer dot
//! products plus quantize/dequantize passes; its NT/TN rows are the
//! dispatched f32 kernels).
//!
//! Two yardsticks per row. `vs_scalar` is the distance from ourselves:
//! the speed-up over the portable loops at the same (op, shape).
//! `peak_frac` is the distance from the machine: GFLOP/s divided by the
//! rate a register-only FMA loop reaches on the same unit
//! ([`bpar_tensor::gemm::fma_chains`]), measured once at start-up.
//!
//! When a vector unit was detected (`Backend::simd().simd_active()`), the
//! binary *asserts* a ≥ 2× geomean speed-up of the dispatched forward-path
//! `NN` GEMM over the `scalar` row — the CI gate that keeps the dispatch
//! from silently rotting into the portable fallback. On machines without
//! AVX2+FMA/NEON the gate is skipped (the kernels *are* the portable loops
//! there, by design).
//!
//! Usage:
//!   cargo run --release -p bpar-bench --bin kernels

use bpar_bench::{print_table, write_json};
use bpar_tensor::gemm::{fma_chains, FMA_CHAIN_FLOPS};
use bpar_tensor::{init, Backend, BackendKind, Matrix, Workspace};
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

/// `(batch, input + hidden, 4 * hidden)` LSTM gate-GEMM shapes.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 320, 512),
    (16, 96, 128),
    (32, 320, 512),
    (64, 512, 1024),
];

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
struct KernelsReport {
    seed: u64,
    simd_active: bool,
    simd_gate: f64,
    /// Geomean simd/scalar speed-up on the forward-path NN GEMM.
    simd_nn_geomean: f64,
    /// GFLOP/s of the register-only FMA loop: `peak_frac`'s denominator.
    fma_peak_gflops: f64,
    config: String,
    rows: Vec<KernelRow>,
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

/// Best of five timings of the register-only FMA loop, in GFLOP/s.
fn fma_peak_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(fma_chains(ITERS));
            (FMA_CHAIN_FLOPS * ITERS) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

fn main() {
    let simd_active = Backend::simd().simd_active();
    let peak = fma_peak_gflops();
    println!(
        "kernels: simd_active = {simd_active} (portable loops otherwise), \
         register-only FMA peak = {peak:.1} GFLOP/s"
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
            // Warm the int8 quantization scratch outside the timed region.
            be.gemm(1.0f32, &a, &b, 0.0, &mut c, &mut ws);

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

    let canonical = format!(
        "shapes={},warmup={WARMUP},target_flops={TARGET_FLOPS:.0},gate={SIMD_GATE},simd={simd_active}",
        SHAPES
            .iter()
            .map(|&(m, k, n)| format!("{m}x{k}x{n}"))
            .collect::<Vec<_>>()
            .join("+"),
    );
    let report = KernelsReport {
        seed: SEED,
        simd_active,
        simd_gate: SIMD_GATE,
        simd_nn_geomean: geomean,
        fma_peak_gflops: peak,
        config: canonical.clone(),
        rows,
    };
    write_json(
        &bpar_serve::metrics::report_name("kernels", SEED, &canonical),
        &report,
    );
}
