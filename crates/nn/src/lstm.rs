//! LSTM and Bi-LSTM layers [22].
//!
//! The input-to-hidden products for a full sequence are computed as four
//! `[T, h]` matmuls up front; each step of the recurrent loop is then one
//! [`Graph::lstm_cell`] tape op, which reads its row of those products and
//! does the four `[1, h] @ [h, h]` hidden-to-hidden products, the gate
//! activations and the state update in one pass, with a hand-written
//! backward. A step records two tape nodes (`h` and `c`), in training and
//! at inference alike. The parameters stay per gate
//! (`name.{wx,wh,b}.{i,f,g,o}`), so checkpoints keep their format.

use rand::rngs::StdRng;
use wb_tensor::{Graph, Initializer, ParamId, Params, Tensor, Var};

/// Gate order: input, forget, cell candidate, output.
const GATES: [&str; 4] = ["i", "f", "g", "o"];

/// A single-direction LSTM.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: [ParamId; 4],
    wh: [ParamId; 4],
    b: [ParamId; 4],
    /// Hidden width.
    pub hidden: usize,
}

/// Recurrent state `(h, c)`, each `[1, hidden]`.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden vector.
    pub h: Var,
    /// Cell vector.
    pub c: Var,
}

impl Lstm {
    /// Registers parameters under `name.{wx,wh,b}.{i,f,g,o}`.
    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        let mk = |params: &mut Params, rng: &mut StdRng, part: &str, shape: &[usize], init| {
            [0, 1, 2, 3].map(|i| {
                params.add_init(&format!("{name}.{part}.{}", GATES[i]), shape, init, rng)
            })
        };
        let wx = mk(params, rng, "wx", &[input, hidden], Initializer::XavierUniform);
        let wh = mk(params, rng, "wh", &[hidden, hidden], Initializer::XavierUniform);
        let b = mk(params, rng, "b", &[hidden], Initializer::Zeros);
        Lstm { wx, wh, b, hidden }
    }

    /// Zero initial state.
    pub fn zero_state(&self, g: &mut Graph) -> LstmState {
        LstmState {
            h: g.input(Tensor::zeros(&[1, self.hidden])),
            c: g.input(Tensor::zeros(&[1, self.hidden])),
        }
    }

    /// The four gate input projections `x·Wx_k + b_k`, each `[rows, hidden]`.
    fn input_gates(&self, g: &mut Graph, x: Var) -> [Var; 4] {
        [0, 1, 2, 3].map(|k| {
            let wx = g.param(self.wx[k]);
            let b = g.param(self.b[k]);
            let xw = g.matmul(x, wx);
            g.add_bias(xw, b)
        })
    }

    /// One step from a raw input row `x: [1, input]`.
    pub fn step(&self, g: &mut Graph, x: Var, state: LstmState) -> LstmState {
        let xg = self.input_gates(g, x);
        let (h, c) = g.lstm_cell(xg, 0, state.h, state.c, self.wh);
        LstmState { h, c }
    }

    /// Runs over a `[T, input]` sequence, returning `[T, hidden]` outputs.
    /// With `reverse`, processes right-to-left but returns outputs in the
    /// original order.
    pub fn forward(&self, g: &mut Graph, x: Var, reverse: bool) -> Var {
        let t_len = g.value(x).rows();
        assert!(t_len > 0, "LSTM over empty sequence");
        // Precompute X·Wx + b for each gate: [T, hidden].
        let pre = self.input_gates(g, x);
        let mut state = self.zero_state(g);
        let mut outputs: Vec<Var> = Vec::with_capacity(t_len);
        for step in 0..t_len {
            let t = if reverse { t_len - 1 - step } else { step };
            let (h, c) = g.lstm_cell(pre, t, state.h, state.c, self.wh);
            state = LstmState { h, c };
            outputs.push(h);
        }
        if reverse {
            outputs.reverse();
        }
        g.concat_rows(&outputs)
    }
}

/// A bidirectional LSTM: forward and backward passes concatenated on the
/// feature axis, producing `[T, 2·hidden]`.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
    /// Per-direction hidden width (output width is `2 × hidden`).
    pub hidden: usize,
}

impl BiLstm {
    /// Registers parameters under `name.fwd.*` / `name.bwd.*`.
    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(params, rng, &format!("{name}.fwd"), input, hidden),
            bwd: Lstm::new(params, rng, &format!("{name}.bwd"), input, hidden),
            hidden,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        2 * self.hidden
    }

    /// Runs both directions over `[T, input]`, producing `[T, 2·hidden]`.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let f = self.fwd.forward(g, x, false);
        let b = self.bwd.forward(g, x, true);
        g.concat_cols(&[f, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wb_tensor::{Adam, AdamConfig};

    #[test]
    fn lstm_output_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 3, 5);
        let mut g = Graph::new(&params, false, 0);
        let x = g.input(Tensor::from_vec(&[4, 3], (0..12).map(|i| i as f32 * 0.1).collect()));
        let y = lstm.forward(&mut g, x, false);
        assert_eq!(g.value(y).shape(), &[4, 5]);
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let bi = BiLstm::new(&mut params, &mut rng, "b", 3, 4);
        let mut g = Graph::new(&params, false, 0);
        let x = g.input(Tensor::from_vec(&[5, 3], (0..15).map(|i| i as f32 * 0.1).collect()));
        let y = bi.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[5, 8]);
    }

    #[test]
    fn reverse_changes_early_outputs() {
        // A reversed pass has seen the whole future at position 0, so its
        // first output must differ from the forward pass's first output.
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 3);
        let mut g = Graph::new(&params, false, 0);
        let x = g.input(Tensor::from_vec(&[4, 2], vec![1., 0., 0., 1., 1., 1., 0., 0.]));
        let f = lstm.forward(&mut g, x, false);
        let r = lstm.forward(&mut g, x, true);
        assert_ne!(g.value(f).row(0), g.value(r).row(0));
        // Both still ordered by original positions.
        assert_eq!(g.value(f).rows(), 4);
        assert_eq!(g.value(r).rows(), 4);
    }

    #[test]
    fn lstm_gradients_flow_to_all_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 3);
        let grads = {
            let mut g = Graph::new(&params, true, 0);
            let x = g.input(Tensor::from_vec(&[3, 2], vec![0.3; 6]));
            let y = lstm.forward(&mut g, x, false);
            let loss = g.mean_all(y);
            g.backward(loss)
        };
        let with_grad = grads.iter().count();
        assert_eq!(with_grad, 12, "all 12 LSTM parameter tensors should receive gradients");
    }

    /// An LSTM must be able to learn a simple order-sensitive task that a
    /// bag-of-tokens model cannot: classify whether the first token of the
    /// sequence is `1`.
    #[test]
    fn lstm_learns_first_token_detection() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 8);
        let head = crate::layers::Dense::new(&mut params, &mut rng, "head", 8, 2);
        let mut opt = Adam::new(&params, AdamConfig::scaled(0.02));
        // Sequences of one-hot tokens; label = first token id.
        let data: Vec<(Vec<f32>, usize)> = (0..16)
            .map(|i| {
                let first = i % 2;
                let mut seq = vec![0.0; 8];
                seq[first] = 1.0;
                for t in 1..4 {
                    seq[t * 2 + (i / 2 + t) % 2] = 1.0;
                }
                (seq, first)
            })
            .collect();
        let mut correct = 0;
        for epoch in 0..60 {
            let mut grads = wb_tensor::Gradients::zeros(&params);
            correct = 0;
            for (seq, label) in &data {
                let g2 = {
                    let mut g = Graph::new(&params, true, 0);
                    let x = g.input(Tensor::from_vec(&[4, 2], seq.clone()));
                    let y = lstm.forward(&mut g, x, false);
                    let last = g.slice_rows(y, 3, 4);
                    let logits = head.forward(&mut g, last);
                    if g.value(logits).argmax_rows()[0] == *label {
                        correct += 1;
                    }
                    let loss = g.cross_entropy_rows(logits, &[*label]);
                    g.backward(loss)
                };
                grads.merge(g2);
            }
            grads.scale(1.0 / data.len() as f32);
            opt.step(&mut params, grads);
            let _ = epoch;
        }
        assert!(correct >= 14, "LSTM failed to learn order: {correct}/16");
    }
}
