//! The one-call cell step against the composed route it replaces: per
//! gate product [`Backend::affine`] or [`Backend::affine_grad`], with the
//! cells' element-wise passes in between. Bit for bit, at every hidden
//! width on the route, for rows 1–9 (a full 4-row block and each
//! remainder), with and without a recurrent gradient, under `scalar` (the
//! portable loops) and `simd` (the tier wrapper the shape picks).

use bpar_tensor::activation::dsigmoid_from_y;
use bpar_tensor::reference::{gru_update_grads, lstm_gate_grads, tanh_pre_grads};
use bpar_tensor::step::{
    GruBackward, GruForward, LstmBackward, LstmForward, Step, VanillaBackward, VanillaForward,
};
use bpar_tensor::{init, Activation, Backend, Float, Matrix};
use proptest::prelude::*;

/// The gated cells and the widest hidden width on the one-call route.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Lstm,
    Gru,
    Vanilla,
}

const KINDS: [(Kind, usize); 3] = [(Kind::Lstm, 8), (Kind::Gru, 16), (Kind::Vanilla, 32)];

fn assert_bits<T: Float>(got: &Matrix<T>, want: &Matrix<T>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_f64().to_bits(),
            b.to_f64().to_bits(),
            "{what}: element {i}: {a} vs {b}"
        );
    }
}

/// Columns `[from, to)` of `m`.
fn columns<T: Float>(m: &Matrix<T>, from: usize, to: usize) -> Matrix<T> {
    Matrix::from_fn(m.rows(), to - from, |r, j| m.get(r, from + j))
}

/// One cell's weights, forward inputs and BPTT inputs, drawn from `seed`.
#[derive(Clone)]
struct Case<T: Float> {
    kind: Kind,
    x: Matrix<T>,
    h_prev: Matrix<T>,
    c_prev: Matrix<T>,
    /// `[W, b]` per gate product: LSTM `[i, f, g, o]`; GRU `[z, r]` then
    /// the candidate; vanilla the one.
    wb: Vec<(Matrix<T>, Matrix<T>)>,
    dh: Matrix<T>,
    rec: Option<(Matrix<T>, Matrix<T>)>,
    /// Non-zero starting values of the gradient accumulators.
    grads: Vec<(Matrix<T>, Matrix<T>)>,
}

impl<T: Float> Case<T> {
    fn new(kind: Kind, rows: usize, input: usize, h: usize, rec: bool, seed: u64) -> Self {
        let k = input + h;
        let u = |r, c, s: u64| init::uniform(r, c, -1.0, 1.0, seed * 31 + s);
        let widths = match kind {
            Kind::Lstm => vec![4 * h],
            Kind::Gru => vec![2 * h, h],
            Kind::Vanilla => vec![h],
        };
        let seeds =
            |i: usize, n: usize, s: u64| (u(k, n, s + 2 * i as u64), u(1, n, s + 1 + 2 * i as u64));
        let wb: Vec<_> = widths
            .iter()
            .enumerate()
            .map(|(i, &n)| seeds(i, n, 0))
            .collect();
        let grads = widths.iter().enumerate().map(|(i, &n)| seeds(i, n, 10));
        Self {
            kind,
            x: u(rows, input, 30),
            h_prev: u(rows, h, 31),
            c_prev: u(rows, h, 32),
            grads: grads.collect(),
            wb,
            dh: u(rows, h, 33),
            rec: rec.then(|| (u(rows, h, 34), u(rows, h, 35))),
        }
    }
}

/// What a forward step writes, in the order the step's operands list it.
type Outputs<T> = Vec<Matrix<T>>;

/// The composed route forward: `affine` per gate product, the cells'
/// element-wise passes between and after.
fn composed_forward<T: Float>(c: &Case<T>, be: Backend) -> Outputs<T> {
    let (rows, input, h) = (c.x.rows(), c.x.cols(), c.h_prev.cols());
    let z = Matrix::hstack(&[&c.x, &c.h_prev]);
    match c.kind {
        Kind::Lstm => {
            let (w, b) = &c.wb[0];
            let mut gates = Matrix::zeros(rows, 4 * h);
            be.affine(Activation::LstmGates, &z, w, b, &mut gates);
            let g = |r, j| gates.get(r, j);
            let cs = Matrix::from_fn(rows, h, |r, j| {
                g(r, h + j) * c.c_prev.get(r, j) + g(r, j) * g(r, 2 * h + j)
            });
            let mut tanh_c = cs.clone();
            be.tanh_inplace(&mut tanh_c);
            let out = Matrix::from_fn(rows, h, |r, j| g(r, 3 * h + j) * tanh_c.get(r, j));
            vec![z, gates, tanh_c, c.c_prev.clone(), out, cs]
        }
        Kind::Gru => {
            let ((wzr, bzr), (wh, bh)) = (&c.wb[0], &c.wb[1]);
            let mut zr = Matrix::zeros(rows, 2 * h);
            be.affine(Activation::Sigmoid, &z, wzr, bzr, &mut zr);
            let rh = Matrix::from_fn(rows, h, |r, j| zr.get(r, h + j) * c.h_prev.get(r, j));
            let h_in = Matrix::hstack(&[&c.x, &rh]);
            let mut hbar = Matrix::zeros(rows, h);
            be.affine(Activation::Tanh, &h_in, wh, bh, &mut hbar);
            let out = Matrix::from_fn(rows, h, |r, j| {
                let zg = zr.get(r, j);
                zg * hbar.get(r, j) + (T::ONE - zg) * c.h_prev.get(r, j)
            });
            assert_eq!(h_in.cols(), input + h);
            vec![z, h_in, zr, hbar, c.h_prev.clone(), out]
        }
        Kind::Vanilla => {
            let (w, b) = &c.wb[0];
            let mut out = Matrix::zeros(rows, h);
            be.affine(Activation::Tanh, &z, w, b, &mut out);
            vec![z, out.clone(), out]
        }
    }
}

/// The step forward, its outputs in [`composed_forward`]'s order.
fn step_forward<T: Float>(c: &Case<T>, be: Backend) -> Outputs<T> {
    let (rows, input, h) = (c.x.rows(), c.x.cols(), c.h_prev.cols());
    let m = |cols| Matrix::full(rows, cols, T::from_f64(f64::NAN));
    let (x, h_prev) = (&c.x, &c.h_prev);
    match c.kind {
        Kind::Lstm => {
            let mut o = [m(input + h), m(4 * h), m(h), m(h), m(h), m(h)];
            let [z, gates, tanh_c, c_prev_copy, h, cs] = &mut o;
            let (w, b) = (&c.wb[0].0, &c.wb[0].1);
            be.step(Step::LstmForward(LstmForward {
                x,
                h_prev,
                c_prev: &c.c_prev,
                w,
                b,
                z,
                gates,
                tanh_c,
                c_prev_copy,
                h,
                c: cs,
            }));
            o.into()
        }
        Kind::Gru => {
            let mut o = [m(input + h), m(input + h), m(2 * h), m(h), m(h), m(h)];
            let [zr_in, h_in, zr, hbar, h_prev_copy, h] = &mut o;
            let ((wzr, bzr), (wh, bh)) = (&c.wb[0], &c.wb[1]);
            be.step(Step::GruForward(GruForward {
                x,
                h_prev,
                wzr,
                bzr,
                wh,
                bh,
                zr_in,
                h_in,
                zr,
                hbar,
                h_prev_copy,
                h,
            }));
            o.into()
        }
        Kind::Vanilla => {
            let mut o = [m(input + h), m(h), m(h)];
            let [z, h_copy, h] = &mut o;
            let (w, b) = (&c.wb[0].0, &c.wb[0].1);
            be.step(Step::VanillaForward(VanillaForward {
                x,
                h_prev,
                w,
                b,
                z,
                h_copy,
                h,
            }));
            o.into()
        }
    }
}

/// What a backward step writes: `dX`, `dH_{t-1}`, `dC_{t-1}` (LSTM) and
/// the gradient accumulators, in [`Case::grads`] order.
type Grads<T> = (
    Matrix<T>,
    Matrix<T>,
    Option<Matrix<T>>,
    Vec<(Matrix<T>, Matrix<T>)>,
);

/// The composed route backward: the cells' element-wise passes around
/// `affine_grad` per gate product, on the forward's cache `fw`.
fn composed_backward<T: Float>(c: &Case<T>, fw: &Outputs<T>, be: Backend) -> Grads<T> {
    let (rows, input, h) = (c.x.rows(), c.x.cols(), c.h_prev.cols());
    let mut g = c.grads.clone();
    let rec = c.rec.as_ref();
    match c.kind {
        Kind::Lstm => {
            let [z, gates, tanh_c, c_prev, ..] = &fw[..] else {
                unreachable!()
            };
            let (mut dg, mut dcp) = (Matrix::zeros(rows, 4 * h), Matrix::zeros(rows, h));
            for r in 0..rows {
                let ins = [gates.row(r), tanh_c.row(r), c_prev.row(r), c.dh.row(r)];
                let (dgr, dcr) = (dg.row_mut(r), dcp.row_mut(r));
                match rec {
                    Some((rh, rc)) => {
                        lstm_gate_grads::<T, true>(h, ins, rh.row(r), rc.row(r), dgr, dcr)
                    }
                    None => lstm_gate_grads::<T, false>(h, ins, &[], &[], dgr, dcr),
                }
            }
            let mut dz = Matrix::zeros(rows, input + h);
            let (gw, gb) = &mut g[0];
            be.affine_grad(z, &dg, &c.wb[0].0, gw, gb, &mut dz);
            let (dx, dp) = (columns(&dz, 0, input), columns(&dz, input, input + h));
            (dx, dp, Some(dcp), g)
        }
        Kind::Gru => {
            let [zr_in, h_in, zr, hbar, hp, ..] = &fw[..] else {
                unreachable!()
            };
            let mut dzr = Matrix::zeros(rows, 2 * h);
            let (mut dhbar, mut dp) = (Matrix::zeros(rows, h), Matrix::zeros(rows, h));
            for r in 0..rows {
                let ins = [zr.row(r), hbar.row(r), hp.row(r), c.dh.row(r)];
                let (dpr, dhb, dz) = (dp.row_mut(r), dhbar.row_mut(r), dzr.row_mut(r));
                match rec {
                    Some((rh, _)) => gru_update_grads::<T, true>(h, ins, rh.row(r), dpr, dhb, dz),
                    None => gru_update_grads::<T, false>(h, ins, &[], dpr, dhb, dz),
                }
            }
            let mut din = Matrix::zeros(rows, input + h);
            let (gw, gb) = &mut g[1];
            be.affine_grad(h_in, &dhbar, &c.wb[1].0, gw, gb, &mut din);
            let mut dx = columns(&din, 0, input);
            for r in 0..rows {
                for j in 0..h {
                    let (drh, rs, hpv) = (din.get(r, input + j), zr.get(r, h + j), hp.get(r, j));
                    dzr.set(r, h + j, drh * hpv * dsigmoid_from_y(rs));
                    dp.set(r, j, dp.get(r, j) + drh * rs);
                }
            }
            let (gw, gb) = &mut g[0];
            be.affine_grad(zr_in, &dzr, &c.wb[0].0, gw, gb, &mut din);
            for r in 0..rows {
                for j in 0..input {
                    dx.set(r, j, dx.get(r, j) + din.get(r, j));
                }
                for j in 0..h {
                    dp.set(r, j, dp.get(r, j) + din.get(r, input + j));
                }
            }
            (dx, dp, None, g)
        }
        Kind::Vanilla => {
            let [z, hc, ..] = &fw[..] else { unreachable!() };
            let mut dpre = Matrix::zeros(rows, h);
            let (dh, ys) = (c.dh.as_slice(), hc.as_slice());
            match rec {
                Some((rh, _)) => {
                    tanh_pre_grads::<T, true>(dh, rh.as_slice(), ys, dpre.as_mut_slice())
                }
                None => tanh_pre_grads::<T, false>(dh, &[], ys, dpre.as_mut_slice()),
            }
            let mut dz = Matrix::zeros(rows, input + h);
            let (gw, gb) = &mut g[0];
            be.affine_grad(z, &dpre, &c.wb[0].0, gw, gb, &mut dz);
            (
                columns(&dz, 0, input),
                columns(&dz, input, input + h),
                None,
                g,
            )
        }
    }
}

/// The step backward on the forward's cache `fw`, its outputs in
/// [`composed_backward`]'s order.
fn step_backward<T: Float>(c: &Case<T>, fw: &Outputs<T>, be: Backend) -> Grads<T> {
    let (rows, input, h) = (c.x.rows(), c.x.cols(), c.h_prev.cols());
    let nan = T::from_f64(f64::NAN);
    let (mut dx, mut dp) = (Matrix::full(rows, input, nan), Matrix::full(rows, h, nan));
    let mut g = c.grads.clone();
    let mut scratch = vec![nan; rows * (5 * h + input)];
    let dh = &c.dh;
    match c.kind {
        Kind::Lstm => {
            let [z, gates, tanh_c, c_prev, ..] = &fw[..] else {
                unreachable!()
            };
            let mut dcp = Matrix::full(rows, h, nan);
            let [(dw, db)] = &mut g[..] else {
                unreachable!()
            };
            be.step(Step::LstmBackward(LstmBackward {
                z,
                gates,
                tanh_c,
                c_prev,
                w: &c.wb[0].0,
                dh,
                rec: c.rec.as_ref().map(|(a, b)| (a, b)),
                dw,
                db,
                dx: &mut dx,
                dh_prev: &mut dp,
                dc_prev: &mut dcp,
                scratch: &mut scratch,
            }));
            (dx, dp, Some(dcp), g)
        }
        Kind::Gru => {
            let [zr_in, h_in, zr, hbar, h_prev, ..] = &fw[..] else {
                unreachable!()
            };
            let [(dwzr, dbzr), (dwh, dbh)] = &mut g[..] else {
                unreachable!()
            };
            be.step(Step::GruBackward(GruBackward {
                zr_in,
                h_in,
                zr,
                hbar,
                h_prev,
                wzr: &c.wb[0].0,
                wh: &c.wb[1].0,
                dh,
                rec: c.rec.as_ref().map(|(a, _)| a),
                dwzr,
                dbzr,
                dwh,
                dbh,
                dx: &mut dx,
                dh_prev: &mut dp,
                scratch: &mut scratch,
            }));
            (dx, dp, None, g)
        }
        Kind::Vanilla => {
            let [z, hc, ..] = &fw[..] else { unreachable!() };
            let [(dw, db)] = &mut g[..] else {
                unreachable!()
            };
            be.step(Step::VanillaBackward(VanillaBackward {
                z,
                h: hc,
                w: &c.wb[0].0,
                dh,
                rec: c.rec.as_ref().map(|(a, _)| a),
                dw,
                db,
                dx: &mut dx,
                dh_prev: &mut dp,
                scratch: &mut scratch,
            }));
            (dx, dp, None, g)
        }
    }
}

/// Every kind at every width on the route: the step's forward and
/// backward equal the composed route's under both backends.
fn check_all_widths<T: Float>(rows: usize, input: usize, seed: u64) {
    for (kind, max_h) in KINDS {
        for h in 1..=max_h {
            for rec in [false, true] {
                let c = Case::<T>::new(kind, rows, input, h, rec, seed + h as u64);
                for be in [Backend::scalar(), Backend::simd()] {
                    let what =
                        |f: &str| format!("{kind:?} {rows}x{input}x{h} rec={rec} {be:?} {f}");
                    let (want, got) = (composed_forward(&c, be), step_forward(&c, be));
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_bits(a, b, &what(&format!("forward output {i}")));
                    }
                    let (wx, wp, wc, wg) = composed_backward(&c, &want, be);
                    let (gx, gp, gc, gg) = step_backward(&c, &want, be);
                    assert_bits(&gx, &wx, &what("dX"));
                    assert_bits(&gp, &wp, &what("dH_prev"));
                    if let (Some(a), Some(b)) = (&gc, &wc) {
                        assert_bits(a, b, &what("dC_prev"));
                    }
                    for ((gw, gb), (ww, wb)) in gg.iter().zip(&wg) {
                        assert_bits(gw, ww, &what("dW"));
                        assert_bits(gb, wb, &what("db"));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows 1–9 (a full 4-row block, two, and each remainder), any input
    /// width up to a few registers, every hidden width on the route of
    /// every gated kind.
    #[test]
    fn steps_equal_the_composed_route_bitwise(
        rows in 1usize..10, input in 1usize..21, seed in 0u64..1000,
    ) {
        check_all_widths::<f32>(rows, input, seed);
    }
}

/// `f64` takes the same kernels (the tier wrappers are generic), and a
/// weight gradient over more than `KC = 256` rows is flushed into `dW`
/// once per `KC` rows, as the blocked TN product does: in registers below
/// 16 lanes (LSTM 3, GRU 7, vanilla 15) and through the tier's TN product
/// at each kind's widest width.
#[test]
fn steps_equal_the_composed_route_in_f64_and_across_kc_rows() {
    check_all_widths::<f64>(3, 5, 7);
    let narrow = [(Kind::Lstm, 3), (Kind::Gru, 7), (Kind::Vanilla, 15)];
    for rows in [256, 257, 600] {
        for (kind, h) in narrow.into_iter().chain(KINDS) {
            let c = Case::<f32>::new(kind, rows, 4, h, true, 11);
            for be in [Backend::scalar(), Backend::simd()] {
                let fw = composed_forward(&c, be);
                let (_, _, _, want) = composed_backward(&c, &fw, be);
                let (_, _, _, got) = step_backward(&c, &fw, be);
                for ((gw, gb), (ww, wb)) in got.iter().zip(&want) {
                    assert_bits(gw, ww, &format!("{kind:?} rows={rows} {be:?} dW"));
                    assert_bits(gb, wb, &format!("{kind:?} rows={rows} {be:?} db"));
                }
            }
        }
    }
}

/// A cell past the one-call route has no one-call step.
#[test]
#[should_panic(expected = "no one-call step at hidden width 9")]
fn a_wide_lstm_step_is_refused() {
    let c = Case::<f32>::new(Kind::Lstm, 1, 2, 9, false, 1);
    step_forward(&c, Backend::simd());
}

/// The first width past the route of every kind, and a product one `KC`
/// block too deep, have no one-call step: forward and backward panic.
#[test]
fn steps_off_the_route_are_refused() {
    let panics = |kind, input, h| {
        let c = Case::<f32>::new(kind, 2, input, h, true, 1);
        let fw = composed_forward(&c, Backend::scalar());
        for be in [Backend::scalar(), Backend::simd()] {
            let forward = || drop(step_forward(&c, be));
            let backward = || drop(step_backward(&c, &fw, be));
            for (what, run) in [("forward", &forward as &dyn Fn()), ("backward", &backward)] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                assert!(err.is_err(), "{kind:?} {input}+{h} {be:?} {what}: no panic");
            }
        }
    };
    for (kind, h) in KINDS {
        panics(kind, 3, h + 1);
        panics(kind, 257 - h, h);
    }
}

/// A backward step whose kernel or forward cache is a row short panics
/// before a product reads it: at each kind's widest width, where `simd`
/// hands the input and weight gradients to the widest tier's NT and TN
/// products, at 16 lanes, where the `avx2` wrapper's products take them,
/// and just below, where they run in registers.
#[test]
fn backward_steps_with_a_short_kernel_or_cache_are_refused() {
    let short = |m: &Matrix<f32>| Matrix::from_fn(m.rows() - 1, m.cols(), |r, j| m.get(r, j));
    let narrower = [
        (Kind::Lstm, 4),
        (Kind::Gru, 8),
        (Kind::Vanilla, 16),
        (Kind::Lstm, 3),
        (Kind::Gru, 7),
        (Kind::Vanilla, 15),
    ];
    for (kind, h) in KINDS.into_iter().chain(narrower) {
        let c = Case::<f32>::new(kind, 4, 3, h, true, 5);
        let fw = composed_forward(&c, Backend::scalar());
        let mut cases = Vec::new();
        for i in 0..c.wb.len() {
            let mut bad = c.clone();
            bad.wb[i].0 = short(&c.wb[i].0);
            cases.push((format!("kernel {i}"), bad, fw.clone()));
        }
        // The caches the weight gradients read: `z` (GRU: `zr_in`, `h_in`).
        let caches = if matches!(kind, Kind::Gru) { 2 } else { 1 };
        for i in 0..caches {
            let mut bad = fw.clone();
            bad[i] = short(&fw[i]);
            cases.push((format!("cache {i}"), c.clone(), bad));
        }
        for be in [Backend::scalar(), Backend::simd()] {
            for (what, c, fw) in &cases {
                let run = || drop(step_backward(c, fw, be));
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                assert!(err.is_err(), "{kind:?} h={h} {be:?} short {what}: no panic");
            }
        }
    }
}
