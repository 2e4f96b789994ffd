//! The fused LSTM step against the op chain it replaced.
//!
//! Before `Graph::lstm_cell`, an LSTM step was 21 tape nodes built from
//! `matmul`, `add`, `sigmoid`, `tanh` and `mul` (plus four `slice_rows` to
//! pick the step's row of the gate inputs). That chain is rebuilt here from
//! the public `Graph` ops as the reference. Forward values and every
//! gradient — gate inputs, initial state, input, and all 12 LSTM parameters
//! — must match it bit for bit, signed zeros included, over several steps
//! in both directions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wb_nn::{Lstm, LstmState};
use wb_tensor::{Gradients, Graph, ParamId, Params, Tensor, Var};

const INPUT: usize = 3;
const HIDDEN: usize = 5;
const STEPS: usize = 6;

fn random(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect())
}

/// Loss weights with a third of the entries `±0.0`, so that signed-zero
/// gradients flow back through the cell.
fn loss_weights(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let mut t = random(rng, shape);
    for x in t.data_mut() {
        match rng.gen_range(0..6) {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    t
}

/// `sum(v ⊙ w)` for a constant `w`.
fn weighted_sum(g: &mut Graph, v: Var, w: &Tensor) -> Var {
    let w = g.input(w.clone());
    let p = g.mul(v, w);
    g.sum_all(p)
}

/// The per-gate parameters `name.{part}.{i,f,g,o}` an [`Lstm`] registered.
fn gate_params(params: &Params, name: &str, part: &str) -> [ParamId; 4] {
    ["i", "f", "g", "o"]
        .map(|k| params.find(&format!("{name}.{part}.{k}")).expect("LSTM param"))
}

/// The unfused step: `h·Wh_k` per gate, gate activations, state update.
fn unfused_step(g: &mut Graph, xg: [Var; 4], h: Var, c: Var, wh: [ParamId; 4]) -> (Var, Var) {
    let mut gates = [h; 4];
    for k in 0..4 {
        let w = g.param(wh[k]);
        let hh = g.matmul(h, w);
        gates[k] = g.add(xg[k], hh);
    }
    let i = g.sigmoid(gates[0]);
    let f = g.sigmoid(gates[1]);
    let cand = g.tanh(gates[2]);
    let o = g.sigmoid(gates[3]);
    let fc = g.mul(f, c);
    let ig = g.mul(i, cand);
    let c = g.add(fc, ig);
    let tc = g.tanh(c);
    (g.mul(o, tc), c)
}

/// `x·Wx_k + b_k` per gate, as `Lstm` records it.
fn input_gates(g: &mut Graph, params: &Params, x: Var) -> [Var; 4] {
    let (wx, b) = (gate_params(params, "l", "wx"), gate_params(params, "l", "b"));
    [0, 1, 2, 3].map(|k| {
        let w = g.param(wx[k]);
        let bias = g.param(b[k]);
        let xw = g.matmul(x, w);
        g.add_bias(xw, bias)
    })
}

/// The unfused `Lstm::forward`: zero state, one sliced row per step.
fn unfused_forward(g: &mut Graph, params: &Params, x: Var, reverse: bool) -> Var {
    let wh = gate_params(params, "l", "wh");
    let pre = input_gates(g, params, x);
    let mut h = g.input(Tensor::zeros(&[1, HIDDEN]));
    let mut c = g.input(Tensor::zeros(&[1, HIDDEN]));
    let mut outputs = Vec::new();
    for step in 0..STEPS {
        let t = if reverse { STEPS - 1 - step } else { step };
        let xg = pre.map(|p| g.slice_rows(p, t, t + 1));
        (h, c) = unfused_step(g, xg, h, c, wh);
        outputs.push(h);
    }
    if reverse {
        outputs.reverse();
    }
    g.concat_rows(&outputs)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Every parameter's gradient is bit-identical. Parameters whose name
/// contains one of `unused` have none; all others have one.
fn assert_same_gradients(
    params: &Params,
    fused: &Gradients,
    unfused: &Gradients,
    unused: &[&str],
) {
    for (id, name, _) in params.iter() {
        let (a, b) = (fused.get(id), unfused.get(id));
        assert_eq!(a.map(bits), b.map(bits), "gradient of {name}");
        let expected = !unused.iter().any(|u| name.contains(u));
        assert_eq!(a.is_some(), expected, "gradient of {name} present");
    }
}

/// Runs `build` on a fresh training tape; returns the bits of the value
/// it reports and the gradients of the loss it returns.
fn run(params: &Params, build: impl Fn(&mut Graph) -> (Var, Var)) -> (Vec<u32>, Gradients) {
    let mut g = Graph::new(params, true, 0);
    let (value, loss) = build(&mut g);
    (bits(g.value(value)), g.backward(loss))
}

/// `Lstm::forward` in both directions, as the Bi-LSTMs run it.
#[test]
fn lstm_forward_matches_the_unfused_chain() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut params = Params::new();
    let lstm = Lstm::new(&mut params, &mut rng, "l", INPUT, HIDDEN);
    let x = params.add("x", random(&mut rng, &[STEPS, INPUT]));
    let w = loss_weights(&mut rng, &[STEPS, HIDDEN]);
    for reverse in [false, true] {
        let loss = |g: &mut Graph, y: Var| (y, weighted_sum(g, y, &w));
        let fused = run(&params, |g| {
            let xv = g.param(x);
            let y = lstm.forward(g, xv, reverse);
            loss(g, y)
        });
        let unfused = run(&params, |g| {
            let xv = g.param(x);
            let y = unfused_forward(g, &params, xv, reverse);
            loss(g, y)
        });
        assert_eq!(fused.0, unfused.0, "outputs, reverse {reverse}");
        assert_same_gradients(&params, &fused.1, &unfused.1, &[]);
    }
}

/// `Lstm::step` from a learned initial state, as the decoder runs it. The
/// loss reads every hidden state but the last and the final cell state, so
/// the last step's output gate gets no gradient.
#[test]
fn lstm_step_matches_the_unfused_chain() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut params = Params::new();
    let lstm = Lstm::new(&mut params, &mut rng, "l", INPUT, HIDDEN);
    let x = params.add("x", random(&mut rng, &[STEPS, INPUT]));
    let h0 = params.add("h0", random(&mut rng, &[1, HIDDEN]));
    let c0 = params.add("c0", random(&mut rng, &[1, HIDDEN]));
    let w_h = loss_weights(&mut rng, &[STEPS - 1, HIDDEN]);
    let w_c = loss_weights(&mut rng, &[1, HIDDEN]);
    let wh = gate_params(&params, "l", "wh");
    let decode = |g: &mut Graph, fused: bool| {
        let xv = g.param(x);
        let mut state = LstmState { h: g.param(h0), c: g.param(c0) };
        let mut hs = Vec::new();
        for t in 0..STEPS {
            let xt = g.slice_rows(xv, t, t + 1);
            state = if fused {
                lstm.step(g, xt, state)
            } else {
                let xg = input_gates(g, &params, xt);
                let (h, c) = unfused_step(g, xg, state.h, state.c, wh);
                LstmState { h, c }
            };
            hs.push(state.h);
        }
        let all = g.concat_rows(&hs);
        let read = g.concat_rows(&hs[..STEPS - 1]);
        let from_h = weighted_sum(g, read, &w_h);
        let from_c = weighted_sum(g, state.c, &w_c);
        (all, g.add(from_h, from_c))
    };
    let fused = run(&params, |g| decode(g, true));
    let unfused = run(&params, |g| decode(g, false));
    assert_eq!(fused.0, unfused.0, "hidden states");
    assert_same_gradients(&params, &fused.1, &unfused.1, &[]);
}

/// `Graph::lstm_cell` with the gate inputs themselves as parameters, run
/// forward, backward, and both ways over one tape (each gate input's
/// gradient then gathers one row per step from both passes). The sixth
/// hidden state's loss weights are all `±0.0`, so its step's gate
/// gradients are signed zeros, which the chain turns into `+0.0` once
/// another step adds its zero rows to the same gradient.
#[test]
fn gate_input_gradients_match_the_unfused_chain() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut params = Params::new();
    let _ = Lstm::new(&mut params, &mut rng, "l", INPUT, HIDDEN);
    let gates = ["i", "f", "g", "o"]
        .map(|k| params.add(&format!("xg.{k}"), random(&mut rng, &[STEPS, HIDDEN])));
    let h0 = params.add("h0", random(&mut rng, &[1, HIDDEN]));
    let c0 = params.add("c0", random(&mut rng, &[1, HIDDEN]));
    let wh = gate_params(&params, "l", "wh");
    for passes in [&[false][..], &[true], &[false, true]] {
        let mut w = loss_weights(&mut rng, &[passes.len() * STEPS, HIDDEN]);
        let last = STEPS - 1;
        for (j, x) in w.data_mut()[last * HIDDEN..STEPS * HIDDEN].iter_mut().enumerate() {
            *x = if j % 2 == 0 { -0.0 } else { 0.0 };
        }
        let run_passes = |g: &mut Graph, fused: bool| {
            let xg = gates.map(|p| g.param(p));
            let mut hs = Vec::new();
            for &reverse in passes {
                let (mut h, mut c) = (g.param(h0), g.param(c0));
                for step in 0..STEPS {
                    let t = if reverse { STEPS - 1 - step } else { step };
                    (h, c) = if fused {
                        g.lstm_cell(xg, t, h, c, wh)
                    } else {
                        let rows = xg.map(|p| g.slice_rows(p, t, t + 1));
                        unfused_step(g, rows, h, c, wh)
                    };
                    hs.push(h);
                }
            }
            let all = g.concat_rows(&hs);
            (all, weighted_sum(g, all, &w))
        };
        let fused = run(&params, |g| run_passes(g, true));
        let unfused = run(&params, |g| run_passes(g, false));
        assert_eq!(fused.0, unfused.0, "hidden states, passes {passes:?}");
        assert_same_gradients(&params, &fused.1, &unfused.1, &[".wx.", ".b."]);
    }
}

/// A step whose hidden output feeds nothing gives its output gate no
/// gradient, as the chain's skipped `sigmoid` node did: the output gate's
/// input and `Wh_o` get none at all.
#[test]
fn unused_hidden_output_leaves_the_output_gate_without_gradient() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut params = Params::new();
    let _ = Lstm::new(&mut params, &mut rng, "l", INPUT, HIDDEN);
    let gates = ["i", "f", "g", "o"]
        .map(|k| params.add(&format!("xg.{k}"), random(&mut rng, &[1, HIDDEN])));
    let h0 = params.add("h0", random(&mut rng, &[1, HIDDEN]));
    let c0 = params.add("c0", random(&mut rng, &[1, HIDDEN]));
    let w = loss_weights(&mut rng, &[1, HIDDEN]);
    let wh = gate_params(&params, "l", "wh");
    let cell_state = |g: &mut Graph, fused: bool| {
        let xg = gates.map(|p| g.param(p));
        let (h, c) = (g.param(h0), g.param(c0));
        let (_, c) =
            if fused { g.lstm_cell(xg, 0, h, c, wh) } else { unfused_step(g, xg, h, c, wh) };
        (c, weighted_sum(g, c, &w))
    };
    let fused = run(&params, |g| cell_state(g, true));
    let unfused = run(&params, |g| cell_state(g, false));
    assert_eq!(fused.0, unfused.0, "cell state");
    assert_same_gradients(&params, &fused.1, &unfused.1, &[".wx.", ".b.", "xg.o", "wh.o"]);
}
