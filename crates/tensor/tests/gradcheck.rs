//! Numerical gradient checks for every differentiable op in `wb-tensor`.
//!
//! For a scalar loss `L(θ)` built from one parameter tensor, the analytic
//! gradient from `Graph::backward` must match the central finite difference
//! `(L(θ+h) − L(θ−h)) / 2h` at every coordinate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wb_tensor::{Graph, ParamId, Params, Tensor, Var};

/// Builds params with one tensor `w` of `shape`, evaluates `f` to a scalar
/// loss, and compares analytic vs numeric gradients.
fn check(shape: &[usize], f: impl Fn(&mut Graph, Var) -> Var) {
    check_with_id(shape, |g, wv, _| f(g, wv));
}

/// [`check`] for a loss that also reads `w` by id, as ops that take
/// parameter ids (`Graph::lstm_cell`) do.
fn check_with_id(shape: &[usize], f: impl Fn(&mut Graph, Var, ParamId) -> Var) {
    let mut rng = StdRng::seed_from_u64(42);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut params = Params::new();
    let w = params.add("w", Tensor::from_vec(shape, data));

    let analytic = {
        let mut g = Graph::new(&params, false, 0);
        let wv = g.param(w);
        let loss = f(&mut g, wv, w);
        assert_eq!(g.value(loss).len(), 1, "loss must be scalar");
        g.backward(loss)
    };
    let analytic = analytic.get(w).expect("no gradient for w").clone();

    let h = 1e-3f32;
    let eval = |params: &Params| -> f32 {
        let mut g = Graph::new(params, false, 0);
        let wv = g.param(w);
        let loss = f(&mut g, wv, w);
        g.value(loss).item()
    };
    for i in 0..n {
        let orig = params.get(w).data()[i];
        params.get_mut(w).data_mut()[i] = orig + h;
        let up = eval(&params);
        params.get_mut(w).data_mut()[i] = orig - h;
        let down = eval(&params);
        params.get_mut(w).data_mut()[i] = orig;
        let numeric = (up - down) / (2.0 * h);
        let a = analytic.data()[i];
        let denom = 1.0f32.max(a.abs()).max(numeric.abs());
        assert!(
            (a - numeric).abs() / denom < 2e-2,
            "coordinate {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn grad_matmul_left() {
    let b = Tensor::from_vec(&[3, 2], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
    check(&[2, 3], move |g, w| {
        let bv = g.input(b.clone());
        let y = g.matmul(w, bv);
        g.sum_all(y)
    });
}

#[test]
fn grad_matmul_right() {
    let a = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
    check(&[3, 2], move |g, w| {
        let av = g.input(a.clone());
        let y = g.matmul(av, w);
        let t = g.tanh(y);
        g.sum_all(t)
    });
}

#[test]
fn grad_matmul_nt() {
    let b = Tensor::from_vec(&[4, 3], (0..12).map(|i| (i as f32 - 6.0) * 0.2).collect());
    check(&[2, 3], move |g, w| {
        let bv = g.input(b.clone());
        let y = g.matmul_nt(w, bv);
        let t = g.tanh(y);
        g.sum_all(t)
    });
    let a = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
    check(&[4, 3], move |g, w| {
        let av = g.input(a.clone());
        let y = g.matmul_nt(av, w);
        let t = g.sigmoid(y);
        g.sum_all(t)
    });
}

#[test]
fn grad_add_sub_mul_scale() {
    check(&[2, 2], |g, w| {
        let c = g.input(Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 0.5, 3.0]));
        let a = g.add(w, c);
        let s = g.sub(a, w);
        let m = g.mul(s, w);
        let sc = g.scale(m, 0.7);
        g.sum_all(sc)
    });
}

#[test]
fn grad_mul_self() {
    // w appears on both sides of Mul — gradient accumulation must double.
    check(&[3], |g, w| {
        let sq = g.mul(w, w);
        g.sum_all(sq)
    });
}

#[test]
fn grad_add_bias() {
    check(&[3], |g, w| {
        let x = g.input(Tensor::from_vec(&[2, 3], vec![0.1, 0.2, 0.3, -0.1, -0.2, -0.3]));
        let y = g.add_bias(x, w);
        let t = g.tanh(y);
        g.sum_all(t)
    });
}

#[test]
fn grad_mul_row_broadcast() {
    check(&[1, 3], |g, w| {
        let x = g.input(Tensor::from_vec(&[2, 3], vec![0.6, 0.2, -0.3, -0.4, 0.5, 0.9]));
        let y = g.mul_row_broadcast(x, w);
        g.sum_all(y)
    });
    // Also check gradient through the matrix operand.
    check(&[2, 3], |g, w| {
        let v = g.input(Tensor::from_vec(&[1, 3], vec![0.5, -1.5, 2.0]));
        let y = g.mul_row_broadcast(w, v);
        let t = g.sigmoid(y);
        g.sum_all(t)
    });
}

#[test]
fn grad_mul_col_broadcast() {
    check(&[3, 1], |g, w| {
        let x = g.input(Tensor::from_vec(&[3, 2], vec![0.5, -0.2, 0.8, 0.1, -0.6, 0.4]));
        let y = g.mul_col_broadcast(x, w);
        let t = g.tanh(y);
        g.sum_all(t)
    });
    check(&[3, 2], |g, w| {
        let s = g.input(Tensor::from_vec(&[3, 1], vec![0.7, -1.2, 0.4]));
        let y = g.mul_col_broadcast(w, s);
        g.sum_all(y)
    });
}

#[test]
fn grad_activations() {
    check(&[2, 3], |g, w| {
        let t = g.tanh(w);
        let s = g.sigmoid(t);
        let r = g.relu(s);
        g.sum_all(r)
    });
}

#[test]
fn grad_softmax_rows() {
    check(&[2, 4], |g, w| {
        let s = g.softmax_rows(w, 1.0);
        // Weighted sum so the gradient is non-trivial.
        let weights = g.input(Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]));
        let m = g.mul(s, weights);
        g.sum_all(m)
    });
}

#[test]
fn grad_softmax_with_temperature() {
    check(&[1, 4], |g, w| {
        let s = g.softmax_rows(w, 2.0);
        let weights = g.input(Tensor::from_vec(&[1, 4], vec![3., 1., -2., 0.5]));
        let m = g.mul(s, weights);
        g.sum_all(m)
    });
}

#[test]
fn grad_softmax_matmul_nt_fused() {
    // Left operand (the queries).
    let b = Tensor::from_vec(&[4, 3], (0..12).map(|i| (i as f32 - 6.0) * 0.2).collect());
    let weights = Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
    let w2 = weights.clone();
    check(&[2, 3], move |g, w| {
        let bv = g.input(b.clone());
        let att = g.softmax_matmul_nt(w, bv, 0.7, 1.3);
        // Weighted sum so the gradient is non-trivial (softmax rows sum
        // to 1, so a plain sum has zero gradient).
        let wv = g.input(w2.clone());
        let m = g.mul(att, wv);
        g.sum_all(m)
    });
    // Right operand (the keys / phrase matrix).
    let a = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
    check(&[4, 3], move |g, w| {
        let av = g.input(a.clone());
        let att = g.softmax_matmul_nt(av, w, 0.7, 1.3);
        let wv = g.input(weights.clone());
        let m = g.mul(att, wv);
        g.sum_all(m)
    });
}

/// The fused attention op is bit-identical to the unfused
/// `matmul_nt` → `scale` → `softmax_rows` chain — forward value AND both
/// gradients — including with a non-trivial scale and temperature.
#[test]
fn fused_softmax_matmul_matches_unfused_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(7);
    let (m, n, d) = (9, 11, 6);
    let mut params = Params::new();
    let a = params.add(
        "a",
        Tensor::from_vec(&[m, d], (0..m * d).map(|_| rng.gen_range(-2.0..2.0)).collect()),
    );
    let b = params.add(
        "b",
        Tensor::from_vec(&[n, d], (0..n * d).map(|_| rng.gen_range(-2.0..2.0)).collect()),
    );
    let weights =
        Tensor::from_vec(&[m, n], (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect());
    let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    for &(scale, temperature) in &[(1.0f32, 1.0f32), (0.25, 1.0), (0.25, 2.0), (1.0, 0.5)] {
        let run = |fused: bool| {
            let mut g = Graph::new(&params, false, 0);
            let av = g.param(a);
            let bv = g.param(b);
            let att = if fused {
                g.softmax_matmul_nt(av, bv, scale, temperature)
            } else {
                let mut s = g.matmul_nt(av, bv);
                if scale != 1.0 {
                    s = g.scale(s, scale);
                }
                g.softmax_rows(s, temperature)
            };
            let forward = bits(g.value(att));
            let wv = g.input(weights.clone());
            let weighted = g.mul(att, wv);
            let loss = g.sum_all(weighted);
            let grads = g.backward(loss);
            (forward, bits(grads.get(a).unwrap()), bits(grads.get(b).unwrap()))
        };
        assert_eq!(
            run(true),
            run(false),
            "fused op diverged at scale={scale} temperature={temperature}"
        );
    }
}

/// Two fused LSTM steps where `w` is every gate's recurrent weight and,
/// scaled, the gate inputs and the initial state, so each gradient path of
/// the cell's backward reaches it.
#[test]
fn grad_lstm_cell() {
    check_with_id(&[3, 3], |g, w, id| {
        let gates = [0.5, -1.0, 0.75, 1.5].map(|k| g.scale(w, k));
        let h0 = g.slice_rows(w, 0, 1);
        let c0 = g.slice_rows(w, 2, 3);
        let (h1, c1) = g.lstm_cell(gates, 1, h0, c0, [id; 4]);
        let (h2, c2) = g.lstm_cell(gates, 2, h1, c1, [id; 4]);
        let y = g.concat_cols(&[h1, h2, c2]);
        let t = g.tanh(y);
        let s = g.scale(t, 1.7);
        let sq = g.mul(s, t);
        g.sum_all(sq)
    });
}

#[test]
fn grad_log_softmax_rows() {
    check(&[2, 3], |g, w| {
        let s = g.log_softmax_rows(w, 1.5);
        let weights = g.input(Tensor::from_vec(&[2, 3], vec![0.2, 0.3, 0.5, 0.1, 0.8, 0.1]));
        let m = g.mul(s, weights);
        g.sum_all(m)
    });
}

#[test]
fn grad_concat_rows_cols() {
    check(&[2, 2], |g, w| {
        let other = g.input(Tensor::from_vec(&[1, 2], vec![0.4, -0.6]));
        let cat = g.concat_rows(&[w, other]);
        let t = g.tanh(cat);
        let other2 = g.input(Tensor::from_vec(&[3, 1], vec![1.0, 2.0, 3.0]));
        let cc = g.concat_cols(&[t, other2]);
        g.sum_all(cc)
    });
}

#[test]
fn grad_gather_rows() {
    check(&[4, 2], |g, w| {
        let gathered = g.gather_rows(w, &[1, 1, 3, 0]);
        let t = g.tanh(gathered);
        g.sum_all(t)
    });
}

#[test]
fn grad_slice_rows() {
    check(&[4, 2], |g, w| {
        let s = g.slice_rows(w, 1, 3);
        let t = g.sigmoid(s);
        g.sum_all(t)
    });
}

#[test]
fn grad_mean_rows_and_all() {
    check(&[3, 2], |g, w| {
        let m = g.mean_rows(w);
        let t = g.tanh(m);
        g.mean_all(t)
    });
}

#[test]
fn grad_cross_entropy() {
    check(&[3, 4], |g, w| g.cross_entropy_rows(w, &[0, 3, 1]));
}

#[test]
fn grad_kl_div() {
    let p = Tensor::from_vec(&[2, 3], vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1]);
    check(&[2, 3], move |g, w| {
        let lq = g.log_softmax_rows(w, 2.0);
        g.kl_div(lq, p.clone())
    });
}

#[test]
fn grad_l1_to_const() {
    // Offsets chosen so no coordinate sits exactly on the |x| kink.
    let target = Tensor::from_vec(&[2, 2], vec![5.0, 5.0, -5.0, -5.0]);
    check(&[2, 2], move |g, w| g.l1_to_const(w, target.clone()));
}

#[test]
fn grad_rms_norm() {
    let gain = Tensor::from_vec(&[3], vec![1.0, 0.5, 2.0]);
    check(&[2, 3], move |g, w| {
        let gn = g.input(gain.clone());
        let y = g.rms_norm_rows(w, gn);
        let weights = g.input(Tensor::from_vec(&[2, 3], vec![1., -1., 2., 0.5, 0.3, -0.7]));
        let m = g.mul(y, weights);
        g.sum_all(m)
    });
}

#[test]
fn grad_rms_norm_gain() {
    let x = Tensor::from_vec(&[2, 3], vec![0.3, -0.8, 1.2, 0.9, 0.1, -0.4]);
    check(&[3], move |g, w| {
        let xv = g.input(x.clone());
        let y = g.rms_norm_rows(xv, w);
        g.sum_all(y)
    });
}

#[test]
fn grad_composite_mlp() {
    // A two-layer MLP with softmax head — the shape of every model in wb-nn.
    let x = Tensor::from_vec(&[2, 3], vec![0.1, 0.5, -0.3, 0.7, -0.2, 0.4]);
    check(&[3, 3], move |g, w| {
        let xv = g.input(x.clone());
        let h = g.matmul(xv, w);
        let h = g.tanh(h);
        let h2 = g.matmul(h, w);
        g.cross_entropy_rows(h2, &[2, 0])
    });
}

#[test]
fn dropout_is_identity_in_eval_mode() {
    let params = Params::new();
    let mut g = Graph::new(&params, false, 7);
    let x = g.input(Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]));
    let y = g.dropout(x, 0.5);
    assert_eq!(g.value(y).data(), &[1., 2., 3., 4.]);
}

#[test]
fn dropout_scales_kept_units_in_train_mode() {
    let params = Params::new();
    let mut g = Graph::new(&params, true, 7);
    let x = g.input(Tensor::full(&[100], 1.0));
    let y = g.dropout(x, 0.5);
    let vals = g.value(y).data();
    assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    let kept = vals.iter().filter(|&&v| v != 0.0).count();
    assert!(kept > 20 && kept < 80, "kept {kept} of 100");
}

#[test]
fn gradients_merge_and_clip() {
    let mut params = Params::new();
    let w = params.add("w", Tensor::from_vec(&[2], vec![1.0, 1.0]));
    let grads = |k: f32| {
        let mut g = Graph::new(&params, false, 0);
        let wv = g.param(w);
        let s = g.scale(wv, k);
        let loss = g.sum_all(s);
        g.backward(loss)
    };
    let mut a = grads(3.0);
    let b = grads(4.0);
    a.merge(b);
    let g = a.get(w).unwrap();
    assert_eq!(g.data(), &[7.0, 7.0]);
    let norm = a.global_norm();
    a.clip_global_norm(1.0);
    assert!((a.global_norm() - 1.0).abs() < 1e-4);
    assert!(norm > 1.0);
}
