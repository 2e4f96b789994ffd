//! Reverse-mode automatic differentiation on a tape of operations.
//!
//! A [`Graph`] borrows a frozen [`Params`] store and records every forward
//! operation as a node. [`Graph::backward`] walks the tape in reverse and
//! returns per-parameter [`Gradients`]. Because graphs only *borrow* the
//! parameters, many graphs (one per training example) can run concurrently
//! and their gradients summed — this is how the trainers in `wb-core`
//! parallelise minibatches. Parameter leaves are borrowed too: a
//! [`Graph::param`] node holds no copy of its tensor, and
//! [`Graph::value`] reads it straight from the store.

use crate::params::{ParamId, Params};
use crate::tensor::{scratch, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Handle to a node in a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// One recorded operation. Every variant stores whatever the backward pass
/// needs (indices, masks, cached probabilities) so backward never recomputes
/// a forward quantity.
enum Op {
    /// Constant input; no gradient flows past it.
    Input,
    /// Leaf referencing a parameter in the external store; its value is
    /// read from the store, never copied onto the tape.
    Param(ParamId),
    Add(Var, Var),
    /// Adds a rank-1 bias to every row of a rank-2 tensor.
    AddBias(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// Multiplies every row of `a` element-wise by the single row `v`.
    MulRowBroadcast(Var, Var),
    /// Scales row `i` of `a` by the scalar `s[i]` (`s` is `[n, 1]`).
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    MatMul(Var, Var),
    /// `a @ b^T` — used by attention scores against a phrase matrix.
    MatMulNT(Var, Var),
    /// Fused attention step: `softmax_rows(scale · (a @ bᵀ), temperature)`.
    /// Only the softmax output lives on the tape — the raw score matrix is
    /// dropped after the forward pass instead of being materialized twice.
    SoftmaxMatMulNT {
        a: Var,
        b: Var,
        scale: f32,
        temperature: f32,
    },
    ConcatRows(Vec<Var>),
    ConcatCols(Vec<Var>),
    /// `out[i] = table[idx[i]]` — embedding lookup.
    GatherRows {
        table: Var,
        idx: Vec<usize>,
    },
    SliceRows {
        src: Var,
        start: usize,
    },
    Tanh(Var),
    Sigmoid(Var),
    Relu(Var),
    SoftmaxRows {
        src: Var,
        temperature: f32,
    },
    LogSoftmaxRows {
        src: Var,
        temperature: f32,
    },
    /// Inverted-dropout: mask entries are `0` or `1/keep`.
    Dropout {
        src: Var,
        mask: Tensor,
    },
    /// Column means of a rank-2 tensor, producing `[1, c]`.
    MeanRows(Var),
    MeanAll(Var),
    SumAll(Var),
    /// Mean over rows of `-log softmax(logits)[target]`; caches the softmax.
    CrossEntropyRows {
        logits: Var,
        targets: Vec<usize>,
        probs: Tensor,
    },
    /// `sum(p * (ln p - log_q)) / rows` with constant teacher `p`.
    KlDiv {
        log_q: Var,
        p: Tensor,
    },
    /// `sum |src - target| / rows` with a constant target.
    L1ToConst {
        src: Var,
        target: Tensor,
    },
    /// Root-mean-square normalisation per row with a learned gain.
    RmsNormRows {
        src: Var,
        gain: Var,
        inv_rms: Vec<f32>,
    },
    /// One fused LSTM step (see [`Graph::lstm_cell`]). Its value is the new
    /// hidden state; the [`Op::LstmCellState`] node just before it holds
    /// the new cell state.
    LstmCell {
        /// The `[T, hidden]` input pre-activations of the i, f, g, o gates.
        gates_x: [Var; 4],
        /// The row of `gates_x` this step reads.
        row: usize,
        h: Var,
        c: Var,
        wh: [ParamId; 4],
        /// `[5, hidden]`: the i, f, g, o gate activations, then `tanh(c')`.
        acts: Tensor,
    },
    /// The new cell state of the [`Op::LstmCell`] node that follows it;
    /// that node's backward consumes this node's gradient.
    LstmCellState,
}

struct Node {
    /// The forward value; `None` only for [`Op::Param`] leaves.
    value: Option<Tensor>,
    op: Op,
}

/// Per-parameter gradients produced by [`Graph::backward`].
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    by_param: Vec<Option<Tensor>>,
}

impl Gradients {
    /// An empty gradient set sized for `params`.
    pub fn zeros(params: &Params) -> Self {
        Gradients { by_param: vec![None; params.len()] }
    }

    /// The gradient of one parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Sums `other` into `self` (for data-parallel accumulation).
    pub fn merge(&mut self, other: Gradients) {
        if self.by_param.len() < other.by_param.len() {
            self.by_param.resize(other.by_param.len(), None);
        }
        for (slot, g) in self.by_param.iter_mut().zip(other.by_param) {
            match (slot.as_mut(), g) {
                (Some(acc), Some(g)) => acc.add_assign_scaled(&g, 1.0),
                (None, Some(g)) => *slot = Some(g),
                _ => {}
            }
        }
    }

    /// Scales every gradient by `k` (e.g. to average over a batch).
    pub fn scale(&mut self, k: f32) {
        for g in self.by_param.iter_mut().flatten() {
            g.scale_in_place(k);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.by_param
            .iter()
            .flatten()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Rescales so the global norm does not exceed `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }

    /// Iterates over `(index, gradient)` pairs of present gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

/// A forward tape over borrowed parameters.
pub struct Graph<'p> {
    params: &'p Params,
    nodes: Vec<Node>,
    /// Bytes held by owned node values (tapes only grow until dropped).
    tape_bytes: usize,
    train: bool,
    rng: StdRng,
}

impl Drop for Graph<'_> {
    /// Returns every node buffer to this thread's [`scratch`] pool, so
    /// the next tape (the trainer builds one per example per step) reuses
    /// this tape's memory instead of re-allocating, then publishes the
    /// pool's metrics. The tape's
    /// final size feeds the `tensor.graph.tape_bytes.peak` /
    /// `tensor.graph.nodes.peak` high-watermark gauges — the largest
    /// single tape the process ever materialised (parameters excluded: the
    /// tape only borrows them).
    fn drop(&mut self) {
        wb_obs::gauge_max!("tensor.graph.tape_bytes.peak", self.tape_bytes as f64);
        wb_obs::gauge_max!("tensor.graph.nodes.peak", self.nodes.len() as f64);
        for node in self.nodes.drain(..) {
            if let Some(value) = node.value {
                scratch::put(value.into_data());
            }
            if let Op::LstmCell { acts, .. } = node.op {
                scratch::put(acts.into_data());
            }
        }
        scratch::publish();
    }
}

impl<'p> Graph<'p> {
    /// Creates a tape. `train` enables dropout; `seed` makes dropout masks
    /// reproducible.
    pub fn new(params: &'p Params, train: bool, seed: u64) -> Self {
        Graph {
            params,
            nodes: Vec::with_capacity(256),
            tape_bytes: 0,
            train,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether this graph applies dropout.
    pub fn is_train(&self) -> bool {
        self.train
    }

    /// The value of a node; for a parameter leaf, the store's own tensor.
    pub fn value(&self, v: Var) -> &Tensor {
        let node = &self.nodes[v.0];
        match (&node.value, &node.op) {
            (Some(t), _) => t,
            (None, Op::Param(id)) => self.params.get(*id),
            (None, _) => unreachable!("only parameter leaves borrow their value"),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.tape_bytes += value.len() * std::mem::size_of::<f32>();
        self.nodes.push(Node { value: Some(value), op });
        Var(self.nodes.len() - 1)
    }

    /// Bytes held by the tape's owned node values so far, plus the gate
    /// activations fused LSTM cells keep for backward (parameter leaves add
    /// nothing).
    pub fn tape_bytes(&self) -> usize {
        self.tape_bytes
    }

    /// Records a constant input.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Records a parameter leaf that borrows its value from the store.
    pub fn param(&mut self, id: ParamId) -> Var {
        self.nodes.push(Node { value: None, op: Op::Param(id) });
        Var(self.nodes.len() - 1)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Adds a rank-1 bias to every row.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddBias(a, bias))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Multiplies each row of `a` by the single-row tensor `v`.
    pub fn mul_row_broadcast(&mut self, a: Var, v: Var) -> Var {
        let av = self.value(a);
        let vv = self.value(v);
        assert_eq!(vv.rows(), 1, "broadcast vector must have one row");
        assert_eq!(av.cols(), vv.cols(), "broadcast width mismatch");
        let c = av.cols();
        let mut out = av.clone();
        for row in out.data_mut().chunks_mut(c) {
            for (x, &m) in row.iter_mut().zip(vv.data()) {
                *x *= m;
            }
        }
        self.push(out, Op::MulRowBroadcast(a, v))
    }

    /// Scales each row `i` of `a` by the scalar `s[i]`, where `s` has shape
    /// `[rows, 1]` — the gating primitive of the dual-aware mechanisms.
    pub fn mul_col_broadcast(&mut self, a: Var, s: Var) -> Var {
        let av = self.value(a);
        let sv = self.value(s);
        assert_eq!(sv.cols(), 1, "gate must be a column vector");
        assert_eq!(av.rows(), sv.rows(), "gate length must equal row count");
        let c = av.cols();
        let mut out = av.clone();
        for (row, &k) in out.data_mut().chunks_mut(c).zip(sv.data()) {
            for x in row.iter_mut() {
                *x *= k;
            }
        }
        self.push(out, Op::MulColBroadcast(a, s))
    }

    /// Multiplication by a constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.value(a).scale(k);
        self.push(v, Op::Scale(a, k))
    }

    /// Matrix product of rank-2 nodes.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b), false, false);
        self.push(v, Op::MatMul(a, b))
    }

    /// Matrix product with a transposed right operand: `a @ b^T`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b), false, true);
        self.push(v, Op::MatMulNT(a, b))
    }

    /// Fused attention scoring: `softmax_rows(scale · (a @ bᵀ), temperature)`
    /// as a single tape node. Arithmetic is bit-identical to the unfused
    /// `matmul_nt` → `scale` → `softmax_rows` chain (the `scale` step is
    /// skipped when `scale == 1.0`, matching call sites that never scaled),
    /// but the raw score matrix is freed as soon as the row softmax has
    /// consumed it instead of being pinned on the tape until `backward` —
    /// attention no longer materializes the score matrix twice.
    pub fn softmax_matmul_nt(&mut self, a: Var, b: Var, scale: f32, temperature: f32) -> Var {
        let mut scores = self.value(a).matmul(self.value(b), false, true);
        if scale != 1.0 {
            scores = scores.scale(scale);
        }
        let v = scores.softmax_rows(temperature);
        self.push(v, Op::SoftmaxMatMulNT { a, b, scale, temperature })
    }

    /// Concatenates along rows.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_rows(&tensors);
        self.push(v, Op::ConcatRows(parts.to_vec()))
    }

    /// Concatenates along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_cols(&tensors);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Embedding-style row gather.
    pub fn gather_rows(&mut self, table: Var, idx: &[usize]) -> Var {
        let v = self.value(table).gather_rows(idx);
        self.push(v, Op::GatherRows { table, idx: idx.to_vec() })
    }

    /// Extracts rows `[start, end)`.
    pub fn slice_rows(&mut self, src: Var, start: usize, end: usize) -> Var {
        let v = self.value(src).slice_rows(start, end);
        self.push(v, Op::SliceRows { src, start })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Row-wise softmax with temperature.
    pub fn softmax_rows(&mut self, src: Var, temperature: f32) -> Var {
        let v = self.value(src).softmax_rows(temperature);
        self.push(v, Op::SoftmaxRows { src, temperature })
    }

    /// Row-wise log-softmax with temperature (numerically stable).
    pub fn log_softmax_rows(&mut self, src: Var, temperature: f32) -> Var {
        let t = self.value(src);
        let c = t.cols();
        let mut out = t.clone();
        for row in out.data_mut().chunks_mut(c) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 =
                row.iter().map(|&x| ((x - max) / temperature).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x = (*x - max) / temperature - log_sum;
            }
        }
        self.push(out, Op::LogSoftmaxRows { src, temperature })
    }

    /// Inverted dropout with the given keep-complement rate. Identity when
    /// the graph is in inference mode or `rate == 0`.
    pub fn dropout(&mut self, src: Var, rate: f32) -> Var {
        if !self.train || rate <= 0.0 {
            return src;
        }
        let keep = 1.0 - rate;
        let shape = self.value(src).shape().to_vec();
        let n = self.value(src).len();
        let mask_data: Vec<f32> = (0..n)
            .map(|_| if self.rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let mask = Tensor::from_vec(&shape, mask_data);
        let v = self.value(src).mul(&mask);
        self.push(v, Op::Dropout { src, mask })
    }

    /// Column means, producing a `[1, c]` tensor.
    pub fn mean_rows(&mut self, src: Var) -> Var {
        let t = self.value(src);
        let (r, c) = (t.rows(), t.cols());
        let mut out = vec![0.0; c];
        for row in t.data().chunks(c) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        for o in &mut out {
            *o /= r as f32;
        }
        self.push(Tensor::from_vec(&[1, c], out), Op::MeanRows(src))
    }

    /// Mean of all elements, producing a scalar.
    pub fn mean_all(&mut self, src: Var) -> Var {
        let v = Tensor::scalar(self.value(src).mean());
        self.push(v, Op::MeanAll(src))
    }

    /// Sum of all elements, producing a scalar.
    pub fn sum_all(&mut self, src: Var) -> Var {
        let v = Tensor::scalar(self.value(src).sum());
        self.push(v, Op::SumAll(src))
    }

    /// Mean cross-entropy between row logits and integer targets.
    pub fn cross_entropy_rows(&mut self, logits: Var, targets: &[usize]) -> Var {
        let t = self.value(logits);
        assert_eq!(t.rows(), targets.len(), "one target per row required");
        let probs = t.softmax_rows(1.0);
        let mut loss = 0.0;
        for (i, &target) in targets.iter().enumerate() {
            assert!(target < t.cols(), "target {} out of {} classes", target, t.cols());
            loss -= probs.row(i)[target].max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropyRows { logits, targets: targets.to_vec(), probs },
        )
    }

    /// KL divergence `sum p·(ln p − log_q) / rows` against constant teacher
    /// probabilities `p`. `log_q` must be log-probabilities (see
    /// [`Graph::log_softmax_rows`]).
    pub fn kl_div(&mut self, log_q: Var, p: Tensor) -> Var {
        let q = self.value(log_q);
        assert_eq!(q.shape(), p.shape(), "KL shapes must match");
        let rows = q.rows() as f32;
        let mut loss = 0.0;
        for (&pi, &lq) in p.data().iter().zip(q.data()) {
            if pi > 0.0 {
                loss += pi * (pi.max(1e-12).ln() - lq);
            }
        }
        loss /= rows;
        self.push(Tensor::scalar(loss), Op::KlDiv { log_q, p })
    }

    /// Mean-per-row L1 distance to a constant target:
    /// `sum |src − target| / rows`.
    pub fn l1_to_const(&mut self, src: Var, target: Tensor) -> Var {
        let s = self.value(src);
        assert_eq!(s.shape(), target.shape(), "L1 shapes must match");
        let rows = s.rows() as f32;
        let loss: f32 =
            s.data().iter().zip(target.data()).map(|(&a, &b)| (a - b).abs()).sum::<f32>()
                / rows;
        self.push(Tensor::scalar(loss), Op::L1ToConst { src, target })
    }

    /// Root-mean-square row normalisation with learned gain:
    /// `out[i,j] = gain[j] · src[i,j] / rms(src[i])`.
    pub fn rms_norm_rows(&mut self, src: Var, gain: Var) -> Var {
        let s = self.value(src);
        let g = self.value(gain);
        let c = s.cols();
        assert_eq!(g.len(), c, "gain length must equal columns");
        let mut out = s.clone();
        let mut inv_rms = Vec::with_capacity(s.rows());
        for row in out.data_mut().chunks_mut(c) {
            let ms = row.iter().map(|&x| x * x).sum::<f32>() / c as f32;
            let inv = 1.0 / (ms + 1e-6).sqrt();
            inv_rms.push(inv);
            for (x, &gi) in row.iter_mut().zip(g.data()) {
                *x *= inv * gi;
            }
        }
        self.push(out, Op::RmsNormRows { src, gain, inv_rms })
    }

    /// One LSTM step as one tape op: from the gates' input pre-activations
    /// (row `row` of each `[T, hidden]` var in `gates_x`, bias included),
    /// the state `h`, `c` (each `[1, hidden]`) and the per-gate recurrent
    /// weights `wh` (`[hidden, hidden]` each), computes
    ///
    /// ```text
    /// i, f, o = σ(x_k + h·Wh_k)    g = tanh(x_g + h·Wh_g)
    /// c' = f ⊙ c + i ⊙ g           h' = o ⊙ tanh(c')
    /// ```
    ///
    /// and returns `(h', c')`. Every element takes the same operations in
    /// the same order as the chain of `matmul`, `add`, `sigmoid`, `tanh`
    /// and `mul` nodes this replaces, and the four `h·Wh` products go
    /// through [`Tensor::matmul_into`], so values, gradients and the matmul
    /// counters are bit-for-bit those of that chain. It records two nodes
    /// instead of 21 (25 with the four `slice_rows` that picked the row)
    /// and keeps only the five activation rows for backward.
    pub fn lstm_cell(
        &mut self,
        gates_x: [Var; 4],
        row: usize,
        h: Var,
        c: Var,
        wh: [ParamId; 4],
    ) -> (Var, Var) {
        let n = self.value(h).cols();
        assert!(
            self.value(h).rows() == 1 && self.value(c).shape() == [1, n],
            "LSTM state must be two [1, {n}] rows"
        );
        for x in gates_x {
            let x = self.value(x);
            assert!(x.cols() == n && row < x.rows(), "gate input {:?} row {row}", x.shape());
        }
        let mut acts = Tensor::from_vec(&[5, n], scratch::zeroed(5 * n));
        let mut h_new = Tensor::from_vec(&[1, n], scratch::zeroed(n));
        let mut c_new = Tensor::from_vec(&[1, n], scratch::zeroed(n));
        for (k, act) in acts.data_mut().chunks_mut(n).take(4).enumerate() {
            // `h_new` holds h·Wh_k until the last loop overwrites it.
            self.value(h).matmul_into(self.params.get(wh[k]), false, false, &mut h_new);
            let x = self.value(gates_x[k]).row(row);
            for ((a, &xv), &hv) in act.iter_mut().zip(x).zip(h_new.data()) {
                let z = xv + hv;
                *a = if k == 2 { z.tanh() } else { 1.0 / (1.0 + (-z).exp()) };
            }
        }
        let (gates, tanh_c) = acts.data_mut().split_at_mut(4 * n);
        let c_old = self.value(c).data();
        for j in 0..n {
            let (i, f, g, o) = (gates[j], gates[n + j], gates[2 * n + j], gates[3 * n + j]);
            let cj = f * c_old[j] + i * g;
            tanh_c[j] = cj.tanh();
            c_new.data_mut()[j] = cj;
            h_new.data_mut()[j] = o * tanh_c[j];
        }
        let c_var = self.push(c_new, Op::LstmCellState);
        self.tape_bytes += acts.len() * std::mem::size_of::<f32>();
        let h_var = self.push(h_new, Op::LstmCell { gates_x, row, h, c, wh, acts });
        (h_var, c_var)
    }

    /// Backward of the [`Op::LstmCell`] node `cell`, given the gradients
    /// of its two outputs. It replays the unfused chain's backward: the
    /// same per-element products, the same matmuls, and every contribution
    /// accumulated into the same slot in the same order (the hidden state
    /// gets the output gate's first, then g, f, i), so gradients are
    /// bit-identical. The output gate gets no gradient when `h'` has none,
    /// as in the chain.
    fn lstm_cell_backward(
        &self,
        cell: Var,
        d_h: Option<Tensor>,
        d_c_later: Option<Tensor>,
        grads: &mut [Option<Tensor>],
        out: &mut Gradients,
    ) {
        let Op::LstmCell { gates_x, row, h, c, wh, acts } = &self.nodes[cell.0].op else {
            unreachable!("not an LSTM cell node");
        };
        let n = acts.cols();
        let act = |r: usize| acts.row(r);
        let (ai, af, ag, ao, atc) = (act(0), act(1), act(2), act(3), act(4));
        let c_old = self.value(*c).data();
        let mut d_gates = [(); 4].map(|_| Tensor::zeros(&[1, n]));
        let mut d_c_old = Tensor::zeros(&[1, n]);
        for j in 0..n {
            let (i, f, g, o, tc) = (ai[j], af[j], ag[j], ao[j], atc[j]);
            // h' = o ⊙ tanh(c'): the output gate's and tanh(c')'s gradients.
            let from_h = d_h.as_ref().map(|d| (d.data()[j] * tc, d.data()[j] * o));
            let d_c = match (&d_c_later, from_h) {
                (Some(l), Some((_, d_tc))) => l.data()[j] + d_tc * (1.0 - tc * tc),
                (None, Some((_, d_tc))) => d_tc * (1.0 - tc * tc),
                (Some(l), None) => l.data()[j],
                (None, None) => unreachable!("a cell without gradient is skipped"),
            };
            // c' = f ⊙ c + i ⊙ g.
            let (d_i, d_g, d_f) = (d_c * g, d_c * i, d_c * c_old[j]);
            d_c_old.data_mut()[j] = d_c * f;
            if let Some((d_o, _)) = from_h {
                d_gates[3].data_mut()[j] = d_o * o * (1.0 - o);
            }
            d_gates[2].data_mut()[j] = d_g * (1.0 - g * g);
            d_gates[1].data_mut()[j] = d_f * f * (1.0 - f);
            d_gates[0].data_mut()[j] = d_i * i * (1.0 - i);
        }
        accumulate(grads, *c, &d_c_old);
        let gates = if d_h.is_some() { 4 } else { 3 };
        for k in (0..gates).rev() {
            let shape = self.value(gates_x[k]).shape();
            accumulate_row(grads, gates_x[k], shape, *row, &d_gates[k]);
            let d_hidden = d_gates[k].matmul(self.params.get(wh[k]), false, true);
            let d_wh = self.value(*h).matmul(&d_gates[k], true, false);
            accumulate(grads, *h, &d_hidden);
            match &mut out.by_param[wh[k].index()] {
                Some(acc) => acc.add_assign_scaled(&d_wh, 1.0),
                slot @ None => *slot = Some(d_wh),
            }
        }
    }

    /// Runs the backward pass from scalar `loss` and returns parameter
    /// gradients.
    ///
    /// # Panics
    /// Panics when `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).len(), 1, "backward from non-scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::full(self.value(loss).shape(), 1.0));
        let mut out = Gradients::zeros(self.params);

        for i in (0..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            if let Op::LstmCell { .. } = node.op {
                // The cell's state output is the node just before it; every
                // consumer of either output comes later on the tape, so both
                // gradients are complete here.
                let (d_h, d_c) = (grads[i].take(), grads[i - 1].take());
                if d_h.is_some() || d_c.is_some() {
                    self.lstm_cell_backward(Var(i), d_h, d_c, &mut grads, &mut out);
                }
                continue;
            }
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            // This node's forward value.
            let y = self.value(Var(i));
            match &node.op {
                Op::Input => {}
                Op::Param(id) => match &mut out.by_param[id.index()] {
                    Some(acc) => acc.add_assign_scaled(&g, 1.0),
                    slot @ None => *slot = Some(g),
                },
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, &g);
                }
                Op::AddBias(a, bias) => {
                    accumulate(&mut grads, *a, &g);
                    // Bias gradient: column sums.
                    let c = g.cols();
                    let mut bg = vec![0.0; c];
                    for row in g.data().chunks(c) {
                        for (o, &x) in bg.iter_mut().zip(row) {
                            *o += x;
                        }
                    }
                    let bias_shape = self.value(*bias).shape().to_vec();
                    accumulate(&mut grads, *bias, &Tensor::from_vec(&bias_shape, bg));
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, &g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let ga = g.mul(self.value(*b));
                    let gb = g.mul(self.value(*a));
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::MulRowBroadcast(a, v) => {
                    let vv = self.value(*v);
                    let av = self.value(*a);
                    let c = av.cols();
                    let mut ga = g.clone();
                    for row in ga.data_mut().chunks_mut(c) {
                        for (x, &m) in row.iter_mut().zip(vv.data()) {
                            *x *= m;
                        }
                    }
                    accumulate(&mut grads, *a, &ga);
                    let mut gv = vec![0.0; c];
                    for (grow, arow) in g.data().chunks(c).zip(av.data().chunks(c)) {
                        for ((o, &gx), &ax) in gv.iter_mut().zip(grow).zip(arow) {
                            *o += gx * ax;
                        }
                    }
                    let v_shape = vv.shape().to_vec();
                    accumulate(&mut grads, *v, &Tensor::from_vec(&v_shape, gv));
                }
                Op::MulColBroadcast(a, s) => {
                    let av = self.value(*a);
                    let sv = self.value(*s);
                    let c = av.cols();
                    let mut ga = g.clone();
                    for (row, &k) in ga.data_mut().chunks_mut(c).zip(sv.data()) {
                        for x in row.iter_mut() {
                            *x *= k;
                        }
                    }
                    accumulate(&mut grads, *a, &ga);
                    let gs: Vec<f32> = g
                        .data()
                        .chunks(c)
                        .zip(av.data().chunks(c))
                        .map(|(grow, arow)| {
                            grow.iter().zip(arow).map(|(&gx, &ax)| gx * ax).sum()
                        })
                        .collect();
                    let s_shape = sv.shape().to_vec();
                    accumulate(&mut grads, *s, &Tensor::from_vec(&s_shape, gs));
                }
                Op::Scale(a, k) => accumulate(&mut grads, *a, &g.scale(*k)),
                Op::MatMul(a, b) => {
                    let ga = g.matmul(self.value(*b), false, true);
                    let gb = self.value(*a).matmul(&g, true, false);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::MatMulNT(a, b) => {
                    // C = A Bᵀ ⇒ dA = G B, dB = Gᵀ A.
                    let ga = g.matmul(self.value(*b), false, false);
                    let gb = g.matmul(self.value(*a), true, false);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::SoftmaxMatMulNT { a, b, scale, temperature } => {
                    // Same math as the unfused SoftmaxRows → Scale → MatMulNT
                    // chain, replayed in one arm so gradients stay
                    // bit-identical: dS = (g − Σ g·y) · y / T, then · scale,
                    // then dA = dS B and dB = dSᵀ A. Only `y` (the softmax
                    // output, this node's value) is needed — the score matrix
                    // never has to be rebuilt.
                    let c = y.cols();
                    let mut ds = Tensor::zeros(y.shape());
                    for ((grow, yrow), drow) in g
                        .data()
                        .chunks(c)
                        .zip(y.data().chunks(c))
                        .zip(ds.data_mut().chunks_mut(c))
                    {
                        let dot: f32 = grow.iter().zip(yrow).map(|(&a, &b)| a * b).sum();
                        for ((o, &gx), &yx) in drow.iter_mut().zip(grow).zip(yrow) {
                            *o = (gx - dot) * yx / temperature;
                        }
                    }
                    if *scale != 1.0 {
                        ds = ds.scale(*scale);
                    }
                    let ga = ds.matmul(self.value(*b), false, false);
                    let gb = ds.matmul(self.value(*a), true, false);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::ConcatRows(parts) => {
                    let mut start = 0;
                    for &p in parts {
                        let r = self.value(p).rows();
                        let gp = g.slice_rows(start, start + r);
                        let shaped = gp.reshape(self.value(p).shape());
                        accumulate(&mut grads, p, &shaped);
                        start += r;
                    }
                }
                Op::ConcatCols(parts) => {
                    let rows = g.rows();
                    let total_c = g.cols();
                    let mut offset = 0;
                    for &p in parts {
                        let c = self.value(p).cols();
                        let mut gp = vec![0.0; rows * c];
                        for r in 0..rows {
                            gp[r * c..(r + 1) * c].copy_from_slice(
                                &g.data()[r * total_c + offset..r * total_c + offset + c],
                            );
                        }
                        let shaped =
                            Tensor::from_vec(&[rows, c], gp).reshape(self.value(p).shape());
                        accumulate(&mut grads, p, &shaped);
                        offset += c;
                    }
                }
                Op::GatherRows { table, idx } => {
                    let tv = self.value(*table);
                    let mut gt = Tensor::zeros(tv.shape());
                    let c = tv.cols();
                    for (out_r, &src_r) in idx.iter().enumerate() {
                        let grow = &g.data()[out_r * c..(out_r + 1) * c];
                        let trow = &mut gt.data_mut()[src_r * c..(src_r + 1) * c];
                        for (t, &x) in trow.iter_mut().zip(grow) {
                            *t += x;
                        }
                    }
                    accumulate(&mut grads, *table, &gt);
                }
                Op::SliceRows { src, start } => {
                    let sv = self.value(*src);
                    let mut gs = Tensor::zeros(sv.shape());
                    let c = sv.cols();
                    let n = g.len();
                    gs.data_mut()[start * c..start * c + n].copy_from_slice(g.data());
                    accumulate(&mut grads, *src, &gs);
                }
                Op::Tanh(a) => {
                    let ga = g.zip_map(y, |gx, yx| gx * (1.0 - yx * yx));
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Sigmoid(a) => {
                    let ga = g.zip_map(y, |gx, yx| gx * yx * (1.0 - yx));
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Relu(a) => {
                    let ga = g.zip_map(y, |gx, yx| if yx > 0.0 { gx } else { 0.0 });
                    accumulate(&mut grads, *a, &ga);
                }
                Op::SoftmaxRows { src, temperature } => {
                    // dx = (g − Σ g·y) · y / T, per row.
                    let c = y.cols();
                    let mut ga = Tensor::zeros(y.shape());
                    for ((grow, yrow), garow) in g
                        .data()
                        .chunks(c)
                        .zip(y.data().chunks(c))
                        .zip(ga.data_mut().chunks_mut(c))
                    {
                        let dot: f32 = grow.iter().zip(yrow).map(|(&a, &b)| a * b).sum();
                        for ((o, &gx), &yx) in garow.iter_mut().zip(grow).zip(yrow) {
                            *o = (gx - dot) * yx / temperature;
                        }
                    }
                    accumulate(&mut grads, *src, &ga);
                }
                Op::LogSoftmaxRows { src, temperature } => {
                    // dx = (g − softmax(x)·Σg) / T, per row; `y` is log-probs.
                    let c = y.cols();
                    let mut ga = Tensor::zeros(y.shape());
                    for ((grow, yrow), garow) in g
                        .data()
                        .chunks(c)
                        .zip(y.data().chunks(c))
                        .zip(ga.data_mut().chunks_mut(c))
                    {
                        let gsum: f32 = grow.iter().sum();
                        for ((o, &gx), &ly) in garow.iter_mut().zip(grow).zip(yrow) {
                            *o = (gx - ly.exp() * gsum) / temperature;
                        }
                    }
                    accumulate(&mut grads, *src, &ga);
                }
                Op::Dropout { src, mask } => {
                    accumulate(&mut grads, *src, &g.mul(mask));
                }
                Op::MeanRows(src) => {
                    let sv = self.value(*src);
                    let (r, c) = (sv.rows(), sv.cols());
                    let mut gs = Tensor::zeros(sv.shape());
                    for row in gs.data_mut().chunks_mut(c) {
                        for (o, &gx) in row.iter_mut().zip(g.data()) {
                            *o = gx / r as f32;
                        }
                    }
                    accumulate(&mut grads, *src, &gs);
                }
                Op::MeanAll(src) => {
                    let sv = self.value(*src);
                    let k = g.item() / sv.len() as f32;
                    accumulate(&mut grads, *src, &Tensor::full(sv.shape(), k));
                }
                Op::SumAll(src) => {
                    let sv = self.value(*src);
                    accumulate(&mut grads, *src, &Tensor::full(sv.shape(), g.item()));
                }
                Op::CrossEntropyRows { logits, targets, probs } => {
                    let n = targets.len() as f32;
                    let mut gl = probs.clone();
                    let c = gl.cols();
                    for (r, &t) in targets.iter().enumerate() {
                        gl.data_mut()[r * c + t] -= 1.0;
                    }
                    gl.scale_in_place(g.item() / n);
                    accumulate(&mut grads, *logits, &gl);
                }
                Op::KlDiv { log_q, p } => {
                    let rows = p.rows() as f32;
                    let gq = p.scale(-g.item() / rows);
                    accumulate(&mut grads, *log_q, &gq);
                }
                Op::L1ToConst { src, target } => {
                    let sv = self.value(*src);
                    let rows = sv.rows() as f32;
                    let k = g.item() / rows;
                    let gs = sv.zip_map(target, |a, b| {
                        if a > b {
                            k
                        } else if a < b {
                            -k
                        } else {
                            0.0
                        }
                    });
                    accumulate(&mut grads, *src, &gs);
                }
                Op::RmsNormRows { src, gain, inv_rms } => {
                    let sv = self.value(*src);
                    let gv = self.value(*gain);
                    let c = sv.cols();
                    let mut gs = Tensor::zeros(sv.shape());
                    let mut gg = vec![0.0; c];
                    for (r, ((grow, xrow), gsrow)) in g
                        .data()
                        .chunks(c)
                        .zip(sv.data().chunks(c))
                        .zip(gs.data_mut().chunks_mut(c))
                        .enumerate()
                    {
                        let inv = inv_rms[r];
                        // d/dx of y = gain ⊙ x·inv, with inv depending on x:
                        // gx = gain·g·inv − x · inv³/c · Σ(gain·g·x)
                        let dot: f32 = grow
                            .iter()
                            .zip(xrow)
                            .zip(gv.data())
                            .map(|((&gx, &x), &gn)| gx * gn * x)
                            .sum();
                        for (j, ((o, &gx), &x)) in
                            gsrow.iter_mut().zip(grow).zip(xrow).enumerate()
                        {
                            let gn = gv.data()[j];
                            *o = gn * gx * inv - x * inv * inv * inv / c as f32 * dot;
                            gg[j] += gx * x * inv;
                        }
                    }
                    accumulate(&mut grads, *src, &gs);
                    let gain_shape = gv.shape().to_vec();
                    accumulate(&mut grads, *gain, &Tensor::from_vec(&gain_shape, gg));
                }
                Op::LstmCell { .. } | Op::LstmCellState => {
                    unreachable!("the cell's backward takes both gradients")
                }
            }
        }
        out
    }
}

/// Aggregate statistics of a recorded tape — used by the complexity
/// analysis and by tests that pin a model's op budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStats {
    /// Total nodes on the tape.
    pub nodes: usize,
    /// Total scalar elements across node values, counting the store
    /// tensors that parameter leaves borrow.
    pub elements: usize,
    /// Approximate forward multiply-accumulate count (matmul ops only).
    pub matmul_flops: usize,
    /// Node count per op name.
    pub per_op: std::collections::BTreeMap<&'static str, usize>,
}

impl Graph<'_> {
    /// Computes tape statistics.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats { nodes: self.nodes.len(), ..GraphStats::default() };
        for (i, node) in self.nodes.iter().enumerate() {
            let value = self.value(Var(i));
            stats.elements += value.len();
            let name = op_name(&node.op);
            *stats.per_op.entry(name).or_insert(0) += 1;
            match &node.op {
                Op::MatMul(a, b) | Op::MatMulNT(a, b) | Op::SoftmaxMatMulNT { a, b, .. } => {
                    // The fused attention node's value is the softmax output,
                    // which has the score matrix's [m, n] shape — the same
                    // m·n·k MAC count as the matmul it absorbed.
                    let inner = self.value(*a).cols();
                    stats.matmul_flops += value.len() * inner;
                    let _ = b;
                }
                // The four [1, h] · [h, h] products the cell absorbed.
                Op::LstmCell { .. } => stats.matmul_flops += 4 * value.len() * value.len(),
                _ => {}
            }
        }
        stats
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Input => "input",
        Op::Param(_) => "param",
        Op::Add(..) => "add",
        Op::AddBias(..) => "add_bias",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::MulRowBroadcast(..) => "mul_row_broadcast",
        Op::MulColBroadcast(..) => "mul_col_broadcast",
        Op::Scale(..) => "scale",
        Op::MatMul(..) => "matmul",
        Op::MatMulNT(..) => "matmul_nt",
        Op::SoftmaxMatMulNT { .. } => "softmax_matmul_nt",
        Op::ConcatRows(_) => "concat_rows",
        Op::ConcatCols(_) => "concat_cols",
        Op::GatherRows { .. } => "gather_rows",
        Op::SliceRows { .. } => "slice_rows",
        Op::Tanh(_) => "tanh",
        Op::Sigmoid(_) => "sigmoid",
        Op::Relu(_) => "relu",
        Op::SoftmaxRows { .. } => "softmax",
        Op::LogSoftmaxRows { .. } => "log_softmax",
        Op::Dropout { .. } => "dropout",
        Op::MeanRows(_) => "mean_rows",
        Op::MeanAll(_) => "mean_all",
        Op::SumAll(_) => "sum_all",
        Op::CrossEntropyRows { .. } => "cross_entropy",
        Op::KlDiv { .. } => "kl_div",
        Op::L1ToConst { .. } => "l1_to_const",
        Op::RmsNormRows { .. } => "rms_norm",
        Op::LstmCell { .. } => "lstm_cell",
        Op::LstmCellState => "lstm_cell_state",
    }
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: &Tensor) {
    match &mut grads[v.0] {
        Some(acc) => acc.add_assign_scaled(g, 1.0),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Accumulates the one-row gradient `g` into row `row` of `v`'s gradient
/// (`v` has `shape`) exactly as a `slice_rows` node's backward would: a
/// first contribution is zeros with `g` in that row, and a later one also
/// adds `0.0` to every other row (which turns a `-0.0` there into `+0.0`).
fn accumulate_row(
    grads: &mut [Option<Tensor>],
    v: Var,
    shape: &[usize],
    row: usize,
    g: &Tensor,
) {
    let c = g.len();
    match &mut grads[v.0] {
        Some(acc) => {
            for (r, acc_row) in acc.data_mut().chunks_mut(c).enumerate() {
                if r == row {
                    for (a, &x) in acc_row.iter_mut().zip(g.data()) {
                        *a += x;
                    }
                } else {
                    for a in acc_row {
                        *a += 0.0;
                    }
                }
            }
        }
        slot @ None => {
            let mut t = Tensor::zeros(shape);
            t.data_mut()[row * c..(row + 1) * c].copy_from_slice(g.data());
            *slot = Some(t);
        }
    }
}
