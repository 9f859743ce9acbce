//! Backend parity harness: every kernel, cell kind × shape and executor
//! must honour the error-bound policy of DESIGN.md §11:
//!
//! * **Dispatched kernels = portable loops, bit for bit.** Whatever unit
//!   the host's dispatch picked (AVX2+FMA tiles, NEON, the `avx2,fma`
//!   wrapper, or nothing), NN, **NT**, TN and every element-wise op must
//!   reproduce [`bpar_tensor::reference`] exactly, in `f32` and `f64`,
//!   through every backend handle and through the free functions —
//!   non-finite operands included (`0·inf` and `0·NaN` stay `NaN`).
//! * **`scalar` and `simd` are the same bits**, forward and backward:
//!   `scalar` runs the portable loops as written, `simd` (the default)
//!   the dispatched kernels, and no cell, pass or executor may tell them
//!   apart.
//! * **One sigmoid, one tanh.** The `f32` gate non-linearities are the
//!   branch-free polynomials of `bpar_tensor::reference`; the dispatched
//!   slice loops every cell calls (eight lanes wide where the host allows,
//!   scalar in the tail) equal one `Float::sigmoid` / `Float::tanh` per
//!   element bit for bit, at every hidden width, under every backend.
//! * **Workspace reuse is backend-agnostic.** One [`Workspace`] serving
//!   interleaved shapes *and* interleaved backends never changes results.
//!
//! Backends only specialize `f32`, so the cell- and model-level cases run
//! on `f32` models; the kernel-level cases cover `f64` too.

use bpar_core::cell::{CellCache, CellKind, CellParams, CellState, StateGrad};
use bpar_core::dense::DenseParams;
use bpar_core::exec::{Executor, SequentialExec, TaskGraphExec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::{init, ops, reference, Backend, BackendKind, Float, Matrix, Workspace};
use proptest::prelude::*;

/// Bitwise equality, except that a NaN matches any NaN: `fmaf` and the
/// FMA unit agree on *where* a NaN appears, not on its sign and payload.
fn assert_bits<T: Float>(a: &Matrix<T>, b: &Matrix<T>, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let (x, y) = (x.to_f64(), y.to_f64());
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: bit mismatch at element {i}: {x} vs {y}"
        );
    }
}

fn widen(m: &Matrix<f32>) -> Matrix<f64> {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| f64::from(m.get(r, c)))
}

/// All three GEMM variants of one `(m, k, n, alpha, beta)` case through
/// the free functions and every backend handle, against the
/// portable loops. `a`, `b` are the NN operands; NT/TN transpose them.
fn gemms_match_reference<T: Float>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c0: &Matrix<T>,
    alpha: T,
    beta: T,
) {
    let (at, bt) = (a.transposed(), b.transposed());
    let want = |f: &dyn Fn(&mut Matrix<T>)| {
        let mut c = c0.clone();
        f(&mut c);
        c
    };
    let nn = want(&|c| reference::gemm(alpha, a, b, beta, c));
    let nt = want(&|c| reference::gemm_nt(alpha, a, &bt, beta, c));
    let tn = want(&|c| reference::gemm_tn(alpha, &at, b, beta, c));

    assert_bits(
        &want(&|c| bpar_tensor::gemm(alpha, a, b, beta, c)),
        &nn,
        "free nn",
    );
    assert_bits(
        &want(&|c| bpar_tensor::gemm_nt(alpha, a, &bt, beta, c)),
        &nt,
        "free nt",
    );
    assert_bits(
        &want(&|c| bpar_tensor::gemm_tn(alpha, &at, b, beta, c)),
        &tn,
        "free tn",
    );
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let be = Backend::of(kind);
        let mut ws = Workspace::new();
        let mut c = c0.clone();
        be.gemm(alpha, a, b, beta, &mut c, &mut ws);
        assert_bits(&c, &nn, &format!("{kind} nn"));
        assert_bits(
            &want(&|c| be.gemm_nt(alpha, a, &bt, beta, c)),
            &nt,
            &format!("{kind} nt"),
        );
        assert_bits(
            &want(&|c| be.gemm_tn(alpha, &at, b, beta, c)),
            &tn,
            &format!("{kind} tn"),
        );
    }
}

/// Every element-wise op through every backend handle against the
/// portable loop (fused ops) or the one-line definition (the rest).
fn elementwise_matches_reference<T: Float>(rows: usize, cols: usize, seed: u64, alpha: T) {
    let a: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, seed);
    let b: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, seed + 1);
    let y0: Matrix<T> = init::uniform(rows, cols, -1.0, 1.0, seed + 2);
    let row: Matrix<T> = init::uniform(1, cols, -1.0, 1.0, seed + 3);
    let zip =
        |f: &dyn Fn(T, T) -> T| Matrix::from_fn(rows, cols, |r, c| f(a.get(r, c), b.get(r, c)));
    let with = |f: &dyn Fn(&mut Matrix<T>)| {
        let mut y = y0.clone();
        f(&mut y);
        y
    };

    let axpy = with(&|y| reference::axpy(alpha, &a, y));
    let hadamard_add = with(&|y| reference::hadamard_add(&a, &b, y));
    let row_mul_add = with(&|y| reference::row_mul_add(&row, &a, &b, y));
    let hadamard = zip(&|x, y| x * y);
    let add = zip(&|x, y| x + y);
    let sub = zip(&|x, y| x - y);
    let scale = Matrix::from_fn(rows, cols, |r, c| y0.get(r, c) * alpha);
    let add_bias = Matrix::from_fn(rows, cols, |r, c| y0.get(r, c) + row.get(0, c));
    let row_scale = Matrix::from_fn(rows, cols, |r, c| y0.get(r, c) * row.get(0, c));

    assert_eq!(
        ops::dot(&a, &b).to_f64().to_bits(),
        reference::dot(&a, &b).to_f64().to_bits(),
        "dot"
    );
    for kind in BackendKind::all() {
        let be = Backend::of(kind);
        let what = |op: &str| format!("{kind} {op} {rows}x{cols}");
        assert_bits(&with(&|y| be.axpy(alpha, &a, y)), &axpy, &what("axpy"));
        assert_bits(
            &with(&|y| be.hadamard_add(&a, &b, y)),
            &hadamard_add,
            &what("hadamard_add"),
        );
        assert_bits(
            &with(&|y| be.row_mul_add(&row, &a, &b, y)),
            &row_mul_add,
            &what("row_mul_add"),
        );
        assert_bits(
            &with(&|y| be.hadamard(&a, &b, y)),
            &hadamard,
            &what("hadamard"),
        );
        assert_bits(&with(&|y| be.add(&a, &b, y)), &add, &what("add"));
        assert_bits(&with(&|y| be.sub(&a, &b, y)), &sub, &what("sub"));
        assert_bits(&with(&|y| be.scale(alpha, y)), &scale, &what("scale"));
        assert_bits(
            &with(&|y| be.add_bias(y, &row)),
            &add_bias,
            &what("add_bias"),
        );
        assert_bits(
            &with(&|y| be.row_scale(&row, y)),
            &row_scale,
            &what("row_scale"),
        );
    }
}

fn cell_kinds() -> impl Strategy<Value = CellKind> {
    prop_oneof![
        Just(CellKind::Lstm),
        Just(CellKind::Gru),
        Just(CellKind::Vanilla)
    ]
}

/// Runs one forward pass under `be` into fresh buffers.
fn forward_with(
    p: &CellParams<f32>,
    kind: CellKind,
    x: &Matrix<f32>,
    prev: &CellState<f32>,
    hidden: usize,
    ws: &mut Workspace<f32>,
    be: Backend,
) -> (CellState<f32>, CellCache<f32>) {
    let mut st = CellState::zeros(kind, x.rows(), hidden);
    let mut cache = CellCache::zeros(kind, x.rows(), x.cols(), hidden);
    p.forward(x, prev, &mut st, &mut cache, ws, be);
    (st, cache)
}

/// A realistic non-zero state: one forward step from zeros.
fn warm_state(
    p: &CellParams<f32>,
    kind: CellKind,
    batch: usize,
    input: usize,
    hidden: usize,
    seed: u64,
) -> CellState<f32> {
    let x = init::uniform(batch, input, -1.0, 1.0, seed);
    let zero = CellState::zeros(kind, batch, hidden);
    let ws = &mut Workspace::new();
    forward_with(p, kind, &x, &zero, hidden, ws, Backend::default()).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NN, NT and TN against the portable loops over shapes that hit a
    /// ragged right edge (`n % 8`), a ragged bottom edge (`m % 4`),
    /// `n < 8` (nothing to pack) and the 8-wide transpose tail (`k % 8`).
    #[test]
    fn gemms_match_reference_f32(
        m in 1usize..20, k in 1usize..40, n in 1usize..40,
        alpha in -2.0f32..2.0, beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let a = init::uniform(m, k, -1.0, 1.0, seed);
        let b = init::uniform(k, n, -1.0, 1.0, seed + 1);
        let c0 = init::uniform(m, n, -1.0, 1.0, seed + 2);
        gemms_match_reference::<f32>(&a, &b, &c0, alpha, beta);
    }

    /// `f64` never reaches a hand-written kernel; on x86-64 it runs the
    /// portable loops compiled for FMA, which must not change a bit.
    #[test]
    fn gemms_match_reference_f64(
        m in 1usize..12, k in 1usize..300, n in 1usize..20,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let a = init::uniform(m, k, -1.0, 1.0, seed);
        let b = init::uniform(k, n, -1.0, 1.0, seed + 1);
        let c0 = init::uniform(m, n, -1.0, 1.0, seed + 2);
        gemms_match_reference::<f64>(&a, &b, &c0, alpha, beta);
    }

    #[test]
    fn elementwise_ops_match_reference(
        rows in 1usize..6, cols in 1usize..40,
        alpha in -2.0f64..2.0, seed in 0u64..1000,
    ) {
        elementwise_matches_reference::<f32>(rows, cols, seed, alpha as f32);
        elementwise_matches_reference::<f64>(rows, cols, seed, alpha);
    }
}

/// The `k` dimension across the `KC = 256` accumulator flush: one, exactly
/// two and three blocks, each side of every boundary.
#[test]
fn gemms_match_reference_across_kc_blocks() {
    for k in [255usize, 256, 257, 511, 513, 600] {
        for (m, n) in [(1, 8), (3, 6), (5, 17), (16, 48)] {
            let a = init::uniform(m, k, -1.0, 1.0, k as u64);
            let b = init::uniform(k, n, -1.0, 1.0, k as u64 + 1);
            let c0 = init::uniform(m, n, -1.0, 1.0, k as u64 + 2);
            gemms_match_reference::<f32>(&a, &b, &c0, 0.75, -0.5);
            if m == 3 {
                let (a, b, c0) = (widen(&a), widen(&b), widen(&c0));
                gemms_match_reference::<f64>(&a, &b, &c0, 0.75, -0.5);
            }
        }
    }
}

/// The case the `gemm_tn` doc comment warns about, for all three variants
/// and both edges of the tile: a zero meeting `inf` or `NaN` is a `NaN`.
/// No kernel may skip a term because one factor is zero.
#[test]
fn zero_times_nonfinite_is_nan_in_every_variant() {
    let (m, k, n) = (6usize, 11usize, 21usize);
    let mut a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, 3);
    let mut b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, 4);
    // (row of A, p, column of B): a full-width strip, the ragged right
    // edge, and the partial bottom tile.
    for (i, p, j, v) in [
        (0, 1, 3, f32::INFINITY),
        (1, 9, 19, f32::NAN),
        (5, 10, 12, f32::NEG_INFINITY),
    ] {
        a.set(i, p, 0.0);
        b.set(p, j, v);
    }
    let mut want = Matrix::zeros(m, n);
    reference::gemm(1.0, &a, &b, 0.0, &mut want);
    for (i, j) in [(0, 3), (1, 19), (5, 12)] {
        assert!(
            want.get(i, j).is_nan(),
            "oracle must see 0·nonfinite at ({i},{j})"
        );
    }
    gemms_match_reference::<f32>(&a, &b, &Matrix::zeros(m, n), 1.0, 0.0);
    gemms_match_reference::<f64>(&widen(&a), &widen(&b), &Matrix::zeros(m, n), 1.0, 0.0);
}

/// What one forward step writes, element by element: `H_t`, `C_t` (LSTM)
/// and the named cache fields BPTT reads.
struct Expected {
    h: Matrix<f32>,
    c: Option<Matrix<f32>>,
    cache: Vec<(&'static str, Matrix<f32>)>,
}

/// One forward step written out per element, independently of the route
/// under test: the blocked portable GEMM (`reference::gemm`), a plain bias
/// loop, then one `Float::sigmoid` / `Float::tanh` call per gate value — no
/// dispatched kernel, no slice entry point, no backend handle.
fn per_element_forward(p: &CellParams<f32>, x: &Matrix<f32>, prev: &CellState<f32>) -> Expected {
    // By path: `x.tanh()` on an `f32` is the inherent libm method.
    let (sigmoid, tanh) = (<f32 as Float>::sigmoid, <f32 as Float>::tanh);
    let affine = |inp: &Matrix<f32>, w: &Matrix<f32>, b: &Matrix<f32>| {
        let mut out = Matrix::zeros(inp.rows(), w.cols());
        reference::gemm(1.0, inp, w, 0.0, &mut out);
        Matrix::from_fn(out.rows(), out.cols(), |r, j| out.get(r, j) + b.get(0, j))
    };
    let z = Matrix::hstack(&[x, &prev.h]);
    let (rows, input) = x.shape();
    match p {
        CellParams::Lstm(p) => {
            let (h, pre) = (p.hidden, affine(&z, &p.w, &p.b));
            let gates = Matrix::from_fn(rows, 4 * h, |r, j| {
                let act = if (2 * h..3 * h).contains(&j) {
                    tanh
                } else {
                    sigmoid
                };
                act(pre.get(r, j))
            });
            let c_prev = prev.c.as_ref().expect("LSTM state");
            let c = Matrix::from_fn(rows, h, |r, j| {
                gates.get(r, h + j) * c_prev.get(r, j) + gates.get(r, j) * gates.get(r, 2 * h + j)
            });
            let tanh_c = Matrix::from_fn(rows, h, |r, j| tanh(c.get(r, j)));
            let out = Matrix::from_fn(rows, h, |r, j| gates.get(r, 3 * h + j) * tanh_c.get(r, j));
            Expected {
                h: out,
                c: Some(c),
                cache: vec![("gates", gates), ("tanh_c", tanh_c)],
            }
        }
        CellParams::Gru(p) => {
            let h = p.hidden;
            let mut zr = affine(&z, &p.wzr, &p.bzr);
            zr.map_inplace(sigmoid);
            let h_in = Matrix::from_fn(rows, input + h, |r, j| {
                if j < input {
                    x.get(r, j)
                } else {
                    zr.get(r, h + j - input) * prev.h.get(r, j - input)
                }
            });
            let mut hbar = affine(&h_in, &p.wh, &p.bh);
            hbar.map_inplace(tanh);
            let out = Matrix::from_fn(rows, h, |r, j| {
                let zg = zr.get(r, j);
                zg * hbar.get(r, j) + (1.0 - zg) * prev.h.get(r, j)
            });
            Expected {
                h: out,
                c: None,
                cache: vec![("zr", zr), ("h_in", h_in), ("hbar", hbar)],
            }
        }
        CellParams::Vanilla(p) => {
            let mut out = affine(&z, &p.w, &p.b);
            out.map_inplace(tanh);
            Expected {
                cache: vec![("h", out.clone())],
                h: out,
                c: None,
            }
        }
        CellParams::Linear(_) => unreachable!("no gate non-linearity"),
    }
}

/// The cache fields [`Expected::cache`] names, as the forward wrote them.
fn cache_field<'a>(cache: &'a CellCache<f32>, name: &str) -> &'a Matrix<f32> {
    match (cache, name) {
        (CellCache::Lstm(c), "gates") => &c.gates,
        (CellCache::Lstm(c), "tanh_c") => &c.tanh_c,
        (CellCache::Gru(c), "zr") => &c.zr,
        (CellCache::Gru(c), "h_in") => &c.h_in,
        (CellCache::Gru(c), "hbar") => &c.hbar,
        (CellCache::Vanilla(c), "h") => &c.h,
        _ => unreachable!("no cache field {name}"),
    }
}

/// Hidden widths of the oracle tests: below, at and past one 8-lane
/// register, so that every gate range has a ragged vector tail somewhere;
/// each kind's last width on the one-call step and the first one past it
/// (LSTM 8 | 9, GRU 16 | 17, vanilla 32 | 33) and the widths where the
/// step's tier changes (LSTM 4 | 5, GRU 8 | 9, vanilla 16 | 17); and the
/// ledger's 48.
const HIDDEN_WIDTHS: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33, 48];

/// At every width of [`HIDDEN_WIDTHS`], batch 1 (`fine_grain`'s one row),
/// 3, 4 (a serving batch, one 4-row block) and 5 (a block and a row):
/// `forward` under `scalar` and `simd` agrees
/// with the per-element oracle, bit for bit, in `H_t`, `C_t` and every
/// cache field BPTT reads.
#[test]
fn forward_equals_the_per_element_oracle_at_every_gate_width() {
    for kind in [CellKind::Lstm, CellKind::Gru, CellKind::Vanilla] {
        for hidden in HIDDEN_WIDTHS {
            for batch in [1usize, 3, 4, 5] {
                let (input, seed) = (5, hidden as u64 + batch as u64);
                let p = CellParams::<f32>::init(kind, input, hidden, seed);
                let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
                let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
                let want = per_element_forward(&p, &x, &prev);
                let what = |path: &str| format!("{kind:?} h={hidden} batch={batch} {path}");
                for be in [Backend::scalar(), Backend::simd()] {
                    let mut ws = Workspace::new();
                    let (st, cache) = forward_with(&p, kind, &x, &prev, hidden, &mut ws, be);
                    let be = be.kind().as_str();
                    assert_bits(&st.h, &want.h, &what(be));
                    if let Some(c_want) = &want.c {
                        let c = st.c.as_ref().expect("LSTM state");
                        assert_bits(c, c_want, &what(&format!("{be} C_t")));
                    }
                    for (name, field) in &want.cache {
                        let got = cache_field(&cache, name);
                        assert_bits(got, field, &what(&format!("{be} cache.{name}")));
                    }
                }
            }
        }
    }
}

/// One gate product's backward the long way — the portable TN product into
/// the weight gradient, a plain column-sum loop added into the bias
/// gradient through `reference::axpy`, and the portable NT product into a
/// zeroed matrix — returning the input-side gradient.
fn gate_backward(
    z: &Matrix<f32>,
    dg: &Matrix<f32>,
    w: &Matrix<f32>,
    gw: &mut Matrix<f32>,
    gb: &mut Matrix<f32>,
) -> Matrix<f32> {
    reference::gemm_tn(1.0, z, dg, 1.0, gw);
    let mut sums = Matrix::zeros(1, dg.cols());
    for r in 0..dg.rows() {
        for j in 0..dg.cols() {
            sums.set(0, j, sums.get(0, j) + dg.get(r, j));
        }
    }
    reference::axpy(1.0, &sums, gb);
    let mut dz = Matrix::zeros(z.rows(), z.cols());
    reference::gemm_nt(1.0, dg, w, 0.0, &mut dz);
    dz
}

/// Columns `[from, to)` of `m`.
fn columns(m: &Matrix<f32>, from: usize, to: usize) -> Matrix<f32> {
    Matrix::from_fn(m.rows(), to - from, |r, j| m.get(r, from + j))
}

/// One backward step written out per element, independently of the cells'
/// code: `dH_t` plus the recurrent gradient through `reference::axpy`, the
/// element-wise BPTT formulas in their original association, and
/// [`gate_backward`] per gate product. Returns `(dX, dprev)` and
/// accumulates into `grads`.
fn per_element_backward(
    p: &CellParams<f32>,
    cache: &CellCache<f32>,
    dh: &Matrix<f32>,
    dstate: Option<&StateGrad<f32>>,
    grads: &mut CellParams<f32>,
) -> (Matrix<f32>, StateGrad<f32>) {
    let dsig = |y: f32| y * (1.0 - y);
    let dtanh = |y: f32| 1.0 - y * y;
    let mut dht = dh.clone();
    if let Some(s) = dstate {
        reference::axpy(1.0, &s.dh, &mut dht);
    }
    let rows = dh.rows();
    match (p, cache, grads) {
        (CellParams::Lstm(p), CellCache::Lstm(c), CellParams::Lstm(g)) => {
            let (h, gt) = (p.hidden, &c.gates);
            let rec_c = dstate.and_then(|s| s.dc.as_ref());
            let dc = Matrix::from_fn(rows, h, |r, j| {
                let d = dht.get(r, j) * gt.get(r, 3 * h + j) * dtanh(c.tanh_c.get(r, j));
                rec_c.map_or(d, |m| d + m.get(r, j))
            });
            let dgates = Matrix::from_fn(rows, 4 * h, |r, jj| {
                let (block, j) = (jj / h, jj % h);
                let gate = |b: usize| gt.get(r, b * h + j);
                let d = dc.get(r, j);
                match block {
                    0 => d * gate(2) * dsig(gate(0)),
                    1 => d * c.c_prev.get(r, j) * dsig(gate(1)),
                    2 => d * gate(0) * dtanh(gate(2)),
                    _ => dht.get(r, j) * c.tanh_c.get(r, j) * dsig(gate(3)),
                }
            });
            let dc_prev = Matrix::from_fn(rows, h, |r, j| dc.get(r, j) * gt.get(r, h + j));
            let dz = gate_backward(&c.z, &dgates, &p.w, &mut g.w, &mut g.b);
            let dprev = StateGrad {
                dh: columns(&dz, p.input, p.input + h),
                dc: Some(dc_prev),
            };
            (columns(&dz, 0, p.input), dprev)
        }
        (CellParams::Gru(p), CellCache::Gru(c), CellParams::Gru(g)) => {
            let (h, input) = (p.hidden, p.input);
            let (zg, rg) = (columns(&c.zr, 0, h), columns(&c.zr, h, 2 * h));
            let (hb, hp) = (&c.hbar, &c.h_prev);
            let mut dprev = Matrix::from_fn(rows, h, |r, j| dht.get(r, j) * (1.0 - zg.get(r, j)));
            let dhbar = Matrix::from_fn(rows, h, |r, j| {
                dht.get(r, j) * zg.get(r, j) * dtanh(hb.get(r, j))
            });
            let dz = Matrix::from_fn(rows, h, |r, j| {
                dht.get(r, j) * (hb.get(r, j) - hp.get(r, j)) * dsig(zg.get(r, j))
            });
            let dh_in = gate_backward(&c.h_in, &dhbar, &p.wh, &mut g.wh, &mut g.bh);
            let drh = columns(&dh_in, input, input + h);
            let dr = Matrix::from_fn(rows, h, |r, j| {
                drh.get(r, j) * hp.get(r, j) * dsig(rg.get(r, j))
            });
            for r in 0..rows {
                for j in 0..h {
                    let v = dprev.get(r, j) + drh.get(r, j) * rg.get(r, j);
                    dprev.set(r, j, v);
                }
            }
            let dzr = Matrix::hstack(&[&dz, &dr]);
            let dzr_in = gate_backward(&c.zr_in, &dzr, &p.wzr, &mut g.wzr, &mut g.bzr);
            let dx = Matrix::from_fn(rows, input, |r, j| dh_in.get(r, j) + dzr_in.get(r, j));
            let dprev = Matrix::from_fn(rows, h, |r, j| dprev.get(r, j) + dzr_in.get(r, input + j));
            (
                dx,
                StateGrad {
                    dh: dprev,
                    dc: None,
                },
            )
        }
        (CellParams::Vanilla(p), CellCache::Vanilla(c), CellParams::Vanilla(g)) => {
            let dpre = Matrix::from_fn(rows, p.hidden, |r, j| dht.get(r, j) * dtanh(c.h.get(r, j)));
            let dz = gate_backward(&c.z, &dpre, &p.w, &mut g.w, &mut g.b);
            let dprev = columns(&dz, p.input, p.input + p.hidden);
            (
                columns(&dz, 0, p.input),
                StateGrad {
                    dh: dprev,
                    dc: None,
                },
            )
        }
        (CellParams::Linear(p), CellCache::Linear(c), CellParams::Linear(g)) => {
            let dx = gate_backward(&c.x, &dht, &p.w, &mut g.w, &mut g.b);
            let mut sums = Matrix::zeros(1, p.hidden);
            for r in 0..rows {
                for j in 0..p.hidden {
                    let v = sums.get(0, j) + dht.get(r, j) * c.h_prev.get(r, j);
                    sums.set(0, j, v);
                }
            }
            reference::axpy(1.0, &sums, &mut g.lambda);
            let dprev = Matrix::from_fn(rows, p.hidden, |r, j| dht.get(r, j) * p.lambda.get(0, j));
            (
                dx,
                StateGrad {
                    dh: dprev,
                    dc: None,
                },
            )
        }
        _ => unreachable!("cell kind mismatch"),
    }
}

/// Hidden widths and batches as in the forward oracle, with and
/// without a recurrent gradient, every cell kind: `backward` under
/// `scalar` and `simd` agrees with [`per_element_backward`], bit for bit,
/// in `dX`, `dprev.dh`, `dprev.dc` and every gradient field, accumulated
/// onto non-zero gradients. The dense head's `backward` is checked the
/// same way against [`gate_backward`].
#[test]
fn backward_equals_the_per_element_oracle_at_every_gate_width() {
    let kinds = [
        CellKind::Lstm,
        CellKind::Gru,
        CellKind::Vanilla,
        CellKind::Linear,
    ];
    for kind in kinds {
        for hidden in HIDDEN_WIDTHS {
            for batch in [1usize, 3, 4, 5] {
                let (input, seed) = (5, 3 * hidden as u64 + batch as u64);
                let p = CellParams::<f32>::init(kind, input, hidden, seed);
                let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
                let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
                let ws = &mut Workspace::new();
                let (_, cache) = forward_with(&p, kind, &x, &prev, hidden, ws, Backend::scalar());
                let dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 3);
                let mut rec = StateGrad::zeros(kind, batch, hidden);
                rec.dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 4);
                if let Some(dc) = &mut rec.dc {
                    *dc = init::uniform(batch, hidden, -1.0, 1.0, seed + 5);
                }
                let grads0 = CellParams::<f32>::init(kind, input, hidden, seed + 6);
                for dstate in [None, Some(&rec)] {
                    let mut want_g = grads0.clone();
                    let (want_dx, want_dp) =
                        per_element_backward(&p, &cache, &dh, dstate, &mut want_g);
                    for be in [Backend::scalar(), Backend::simd()] {
                        let what = |field: &str| {
                            let rec = dstate.is_some();
                            format!("{kind:?} h={hidden} batch={batch} rec={rec} {be:?} {field}")
                        };
                        let mut g = grads0.clone();
                        let mut dx = Matrix::full(batch, input, f32::NAN);
                        let mut dp = StateGrad::zeros(kind, batch, hidden);
                        dp.dh.as_mut_slice().fill(f32::NAN);
                        p.backward(&cache, &dh, dstate, &mut g, &mut dx, &mut dp, ws, be);
                        assert_bits(&dx, &want_dx, &what("dX"));
                        assert_bits(&dp.dh, &want_dp.dh, &what("dprev.dh"));
                        if let (Some(a), Some(b)) = (&dp.dc, &want_dp.dc) {
                            assert_bits(a, b, &what("dprev.dc"));
                        }
                        g.for_each_param(&want_g, &mut |a, b| assert_bits(a, b, &what("grads")));
                    }
                }
            }
            // The classifier head: `hidden` features into 11 classes.
            let batch = 3;
            let d = DenseParams::<f32>::init(hidden, 11, hidden as u64);
            let x = init::uniform(batch, hidden, -1.0, 1.0, 7);
            let dlogits = init::uniform(batch, 11, -1.0, 1.0, 8);
            let g0 = DenseParams::<f32>::init(hidden, 11, 9);
            let mut want = g0.clone();
            let want_dx = gate_backward(&x, &dlogits, &d.w, &mut want.w, &mut want.b);
            for be in [Backend::scalar(), Backend::simd()] {
                let (mut g, mut dx) = (g0.clone(), Matrix::full(batch, hidden, f32::NAN));
                d.backward(&x, &dlogits, &mut g, &mut dx, be);
                let what = |f: &str| format!("dense {hidden}x11 {be:?} {f}");
                assert_bits(&dx, &want_dx, &what("dX"));
                assert_bits(&g.w, &want.w, &what("dW"));
                assert_bits(&g.b, &want.b, &what("dB"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cell forward under `simd` is bit-identical to `scalar` for every
    /// cell kind and shape.
    #[test]
    fn simd_forward_is_bit_identical(
        kind in cell_kinds(),
        batch in 1usize..6, input in 1usize..12, hidden in 1usize..12,
        seed in 0u64..1000,
    ) {
        let p = CellParams::<f32>::init(kind, input, hidden, seed);
        let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
        let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
        let mut ws_s = Workspace::new();
        let mut ws_v = Workspace::new();

        let (st_ref, _) = forward_with(&p, kind, &x, &prev, hidden, &mut ws_s, Backend::scalar());
        let (st_simd, _) = forward_with(&p, kind, &x, &prev, hidden, &mut ws_v, Backend::simd());
        assert_bits(&st_ref.h, &st_simd.h, "h");
        if let (Some(a), Some(b)) = (&st_ref.c, &st_simd.c) {
            assert_bits(a, b, "c");
        }
    }

    /// Cell backward under `simd` is bit-identical to `scalar`: `gemm_nt`
    /// keeps the portable operation order, so nothing on the backward
    /// path carries a tolerance. Both passes read the *same* forward
    /// cache, isolating the backward kernels.
    #[test]
    fn simd_backward_is_bit_identical(
        kind in cell_kinds(),
        batch in 1usize..5, input in 1usize..10, hidden in 1usize..10,
        seed in 0u64..1000,
    ) {
        let p = CellParams::<f32>::init(kind, input, hidden, seed);
        let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
        let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
        let mut ws = Workspace::new();
        let (_, cache) = forward_with(&p, kind, &x, &prev, hidden, &mut ws, Backend::scalar());
        let dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 3);

        let run = |be: Backend| {
            let mut grads = p.zeros_like();
            let mut dx = Matrix::zeros(batch, input);
            let mut dprev = StateGrad::zeros(kind, batch, hidden);
            let mut ws = Workspace::new();
            p.backward(&cache, &dh, None, &mut grads, &mut dx, &mut dprev, &mut ws, be);
            (grads, dx, dprev)
        };
        let (mut g_ref, dx_ref, dp_ref) = run(Backend::scalar());
        let (g_simd, dx_simd, dp_simd) = run(Backend::simd());

        assert_bits(&dx_ref, &dx_simd, "dx");
        assert_bits(&dp_ref.dh, &dp_simd.dh, "dprev.dh");
        if let (Some(a), Some(b)) = (&dp_ref.dc, &dp_simd.dc) {
            assert_bits(a, b, "dprev.dc");
        }
        g_ref.for_each_param(&g_simd, &mut |a, b| assert_bits(a, b, "param grads"));
    }

    /// One workspace reused across interleaved shapes AND backends leaves
    /// scalar results bit-identical: pooled buffers carry no cross-call
    /// state.
    #[test]
    fn workspace_reuse_across_backends_is_inert(
        kind in cell_kinds(),
        b1 in 1usize..5, i1 in 1usize..8, h1 in 1usize..8,
        b2 in 1usize..5, i2 in 1usize..8, h2 in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut shared = Workspace::new();
        for (round, (batch, input, hidden)) in
            [(b1, i1, h1), (b2, i2, h2), (b1, i1, h1)].into_iter().enumerate()
        {
            let s = seed + 10 * round as u64;
            let p = CellParams::<f32>::init(kind, input, hidden, s);
            let prev = warm_state(&p, kind, batch, input, hidden, s + 1);
            let x = init::uniform(batch, input, -1.0, 1.0, s + 2);

            // Pollute the shared pool with the other backend's scratch.
            forward_with(&p, kind, &x, &prev, hidden, &mut shared, Backend::simd());

            let (st_shared, _) =
                forward_with(&p, kind, &x, &prev, hidden, &mut shared, Backend::scalar());
            let (st_fresh, _) = forward_with(
                &p, kind, &x, &prev, hidden, &mut Workspace::new(), Backend::scalar(),
            );
            assert_bits(&st_fresh.h, &st_shared.h, "pooled h");
            if let (Some(a), Some(b)) = (&st_fresh.c, &st_shared.c) {
                assert_bits(a, b, "pooled c");
            }
        }
    }
}

proptest! {
    // Whole-model cases build task graphs and thread pools; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End to end: a `simd` task-graph executor produces logits
    /// bit-identical to the sequential reference, warm and cold.
    #[test]
    fn simd_executor_matches_sequential_bitwise(
        kind in cell_kinds(),
        many_to_many in any::<bool>(),
        rows in 1usize..4, seq in 1usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = BrnnConfig {
            cell: kind,
            input_size: 3,
            hidden_size: 4,
            layers: 2,
            seq_len: seq,
            output_size: 3,
            merge: MergeMode::Concat,
            kind: if many_to_many { ModelKind::ManyToMany } else { ModelKind::ManyToOne },
        };
        let model = Brnn::<f32>::new(cfg, seed);
        let xs: Vec<Matrix<f32>> = (0..seq)
            .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let exec =
            TaskGraphExec::with_backend(2, SchedulerPolicy::LocalityAware, 1, BackendKind::Simd);
        let reference = SequentialExec.forward(&model, &xs);
        for _pass in 0..2 {
            let got = exec.forward(&model, &xs);
            assert_bits(&reference.logits, &got.logits, "logits");
            for (a, b) in reference.seq_logits.iter().zip(&got.seq_logits) {
                assert_bits(a, b, "seq logits");
            }
        }
    }
}
