//! Criterion benchmarks of the dense kernels that make up a B-Par task
//! body: blocked GEMM at RNN-cell shapes, full LSTM/GRU cell updates
//! (forward, and backward inside the BPTT chain) into persistent buffers
//! with one workspace, as a warm task body runs them, and the classifier
//! head's backward.

use bpar_core::cell::{CellCache, CellKind, CellParams, CellState, StateGrad};
use bpar_core::dense::DenseParams;
use bpar_tensor::{gemm, init, Backend, Matrix, Workspace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    // (batch × (input+hidden)) · ((input+hidden) × 4·hidden): the fused
    // LSTM gate product at three model scales.
    for &(b, ih, h4) in &[
        (16usize, 96usize, 128usize),
        (32, 320, 512),
        (64, 512, 1024),
    ] {
        let a: Matrix<f32> = init::uniform(b, ih, -1.0, 1.0, 1);
        let w: Matrix<f32> = init::uniform(ih, h4, -1.0, 1.0, 2);
        let mut out: Matrix<f32> = Matrix::zeros(b, h4);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{b}x{ih}x{h4}")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    gemm(1.0f32, black_box(&a), black_box(&w), 0.0, &mut out);
                    black_box(out.get(0, 0))
                })
            },
        );
    }
    group.finish();
}

fn bench_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_update");
    group.sample_size(10);
    // A mid-size cell, and tiny ones whose step is one call (every gate
    // product narrow): `fine_grain`'s one row and a 4-row serving batch.
    let mid = [(16usize, 64usize, 128usize)].map(|s| [(s, CellKind::Lstm), (s, CellKind::Gru)]);
    let tiny = [(1usize, 2usize, 2usize), (4, 2, 2)].map(|s| {
        [
            (s, CellKind::Lstm),
            (s, CellKind::Gru),
            (s, CellKind::Vanilla),
        ]
    });
    for ((batch, input, hidden), kind) in
        mid.into_iter().flatten().chain(tiny.into_iter().flatten())
    {
        let shape = format!("{batch}x{input}x{hidden}");
        let params: CellParams<f32> = CellParams::init(kind, input, hidden, 3);
        let x: Matrix<f32> = init::uniform(batch, input, -1.0, 1.0, 4);
        let prev = CellState::zeros(kind, batch, hidden);
        let mut state = CellState::zeros(kind, batch, hidden);
        let mut cache = CellCache::zeros(kind, batch, input, hidden);
        let mut ws = Workspace::new();
        let be = Backend::default();

        group.bench_function(format!("{kind:?}_forward/{shape}"), |bench| {
            bench.iter(|| {
                params.forward(black_box(&x), &prev, &mut state, &mut cache, &mut ws, be);
                black_box(state.h.get(0, 0))
            })
        });

        // A BPTT step inside the chain: upstream `dh` plus the recurrent
        // gradient of the step after it.
        let dh: Matrix<f32> = init::uniform(batch, hidden, -1.0, 1.0, 5);
        let mut rec = StateGrad::zeros(kind, batch, hidden);
        rec.dh = init::uniform(batch, hidden, -1.0, 1.0, 6);
        if let Some(dc) = &mut rec.dc {
            *dc = init::uniform(batch, hidden, -1.0, 1.0, 7);
        }
        let mut grads = params.zeros_like();
        let mut dx = Matrix::zeros(batch, input);
        let mut dprev = StateGrad::zeros(kind, batch, hidden);
        group.bench_function(format!("{kind:?}_backward/{shape}"), |bench| {
            bench.iter(|| {
                let (dh, rec) = (black_box(&dh), Some(black_box(&rec)));
                params.backward(
                    &cache, dh, rec, &mut grads, &mut dx, &mut dprev, &mut ws, be,
                );
                black_box(dx.get(0, 0))
            })
        });
    }
    // The classifier head's backward into 11 classes: `fine_grain`'s one
    // row of two features, and a 16-row batch of 48.
    for (batch, input) in [(1usize, 2usize), (16, 48)] {
        let dense: DenseParams<f32> = DenseParams::init(input, 11, 3);
        let x: Matrix<f32> = init::uniform(batch, input, -1.0, 1.0, 4);
        let dlogits: Matrix<f32> = init::uniform(batch, 11, -1.0, 1.0, 5);
        let mut grads = dense.zeros_like();
        let mut dx = Matrix::zeros(batch, input);
        group.bench_function(format!("Dense_backward/{batch}x{input}x11"), |bench| {
            bench.iter(|| {
                let dlogits = black_box(&dlogits);
                dense.backward(&x, dlogits, &mut grads, &mut dx, Backend::default());
                black_box(dx.get(0, 0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_cells);
criterion_main!(benches);
