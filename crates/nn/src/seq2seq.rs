//! Encoder–decoder topic generation [23]: a Bi-LSTM encoder over sentence
//! representations and an LSTM decoder with dot-product attention, plus
//! greedy and beam-search inference (§IV-A5 uses beam search).

use crate::layers::Dense;
use crate::lstm::{Lstm, LstmState};
use rand::rngs::StdRng;
use std::cmp::Ordering;
use wb_tensor::{Graph, Params, Var};
use wb_text::{BOS, EOS};

/// The decoder half of a seq2seq model. The encoder lives with the caller
/// (different models encode differently); the decoder consumes any
/// `[m, enc_dim]` memory.
pub struct Decoder {
    /// Decoder token embedding (over the output vocabulary).
    emb: crate::layers::Embedding,
    /// The recurrent cell; input = token embedding ⊕ attention context.
    cell: Lstm,
    /// Projects `[h ⊕ context]` to vocabulary logits.
    out: Dense,
    /// Projects the decoder state to the memory width for attention queries.
    query: Dense,
    enc_dim: usize,
    vocab: usize,
}

impl Decoder {
    /// Builds a decoder: `hidden`-wide LSTM over `emb_dim` token embeddings
    /// with attention over `enc_dim` memory, producing `vocab` logits.
    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        emb_dim: usize,
        enc_dim: usize,
        hidden: usize,
    ) -> Self {
        Decoder {
            emb: crate::layers::Embedding::new(
                params,
                rng,
                &format!("{name}.emb"),
                vocab,
                emb_dim,
            ),
            cell: Lstm::new(params, rng, &format!("{name}.cell"), emb_dim + enc_dim, hidden),
            out: Dense::new(params, rng, &format!("{name}.out"), hidden + enc_dim, vocab),
            query: Dense::new(params, rng, &format!("{name}.query"), hidden, enc_dim),
            enc_dim,
            vocab,
        }
    }

    /// Output vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Dot-product attention context `[1, enc_dim]` of state `h` over
    /// `memory: [m, enc_dim]`. When the widths differ the caller must have
    /// projected them; we assert instead of silently broadcasting.
    fn context(&self, g: &mut Graph, h: Var, memory: Var) -> Var {
        assert_eq!(g.value(memory).cols(), self.enc_dim, "memory width mismatch");
        let q = self.query.forward(g, h); // [1, enc_dim]
        let att = g.softmax_matmul_nt(q, memory, 1.0, 1.0); // [1, m]
        g.matmul(att, memory)
    }

    /// One decoding step: embeds `token`, attends over `memory`, advances
    /// the state, and returns `(logits [1, vocab], new_state)`.
    pub fn step(
        &self,
        g: &mut Graph,
        token: u32,
        state: LstmState,
        memory: Var,
    ) -> (Var, LstmState) {
        let e = self.emb.forward(g, &[token]);
        let ctx = self.context(g, state.h, memory);
        let x = g.concat_cols(&[e, ctx]);
        let next = self.cell.step(g, x, state);
        let ctx2 = self.context(g, next.h, memory);
        let feat = g.concat_cols(&[next.h, ctx2]);
        let logits = self.out.forward(g, feat);
        (logits, next)
    }

    /// Zero initial state.
    pub fn zero_state(&self, g: &mut Graph) -> LstmState {
        self.cell.zero_state(g)
    }

    /// Teacher-forced decoding: feeds `[BOS] t₁ … tₙ₋₁` and returns the
    /// logits matrix `[n, vocab]` aligned with targets `t₁ … tₙ`.
    pub fn teacher_forced(&self, g: &mut Graph, targets: &[u32], memory: Var) -> Var {
        assert!(!targets.is_empty(), "empty target sequence");
        let mut state = self.zero_state(g);
        let mut logits = Vec::with_capacity(targets.len());
        let mut prev = BOS;
        for &t in targets {
            let (l, next) = self.step(g, prev, state, memory);
            logits.push(l);
            state = next;
            prev = t;
        }
        g.concat_rows(&logits)
    }

    /// Teacher-forced decoding that also returns the decoder hidden states
    /// `[n, hidden]` — Joint-WB's `Q` (the hidden topic representations).
    pub fn teacher_forced_with_states(
        &self,
        g: &mut Graph,
        targets: &[u32],
        memory: Var,
    ) -> (Var, Var) {
        assert!(!targets.is_empty(), "empty target sequence");
        let mut state = self.zero_state(g);
        let mut logits = Vec::with_capacity(targets.len());
        let mut hiddens = Vec::with_capacity(targets.len());
        let mut prev = BOS;
        for &t in targets {
            let (l, next) = self.step(g, prev, state, memory);
            logits.push(l);
            hiddens.push(next.h);
            state = next;
            prev = t;
        }
        (g.concat_rows(&logits), g.concat_rows(&hiddens))
    }

    /// Greedy decoding that also returns the decoder hidden states
    /// `[steps, hidden]` (at least one step is always taken).
    pub fn greedy_with_states(
        &self,
        g: &mut Graph,
        memory: Var,
        max_len: usize,
    ) -> (Vec<u32>, Var) {
        assert!(max_len >= 1, "max_len must be positive");
        let mut state = self.zero_state(g);
        let mut out = Vec::new();
        let mut hiddens = Vec::new();
        let mut prev = BOS;
        for _ in 0..max_len {
            let (logits, next) = self.step(g, prev, state, memory);
            hiddens.push(next.h);
            let id = g.value(logits).argmax() as u32;
            state = next;
            if id == EOS {
                break;
            }
            out.push(id);
            prev = id;
        }
        (out, g.concat_rows(&hiddens))
    }

    /// Beam-search decoding (§IV-A5: "we use beam search in the inference
    /// process"); returns the best hypothesis without `[EOS]`.
    pub fn beam_search(
        &self,
        g: &mut Graph,
        memory: Var,
        beam: usize,
        max_len: usize,
    ) -> Vec<u32> {
        assert!(beam >= 1, "beam width must be positive");
        struct Hyp {
            tokens: Vec<u32>,
            state: LstmState,
            prev: u32,
            score: f32,
            done: bool,
        }
        let init = self.zero_state(g);
        let mut hyps =
            vec![Hyp { tokens: Vec::new(), state: init, prev: BOS, score: 0.0, done: false }];
        for _ in 0..max_len {
            if hyps.iter().all(|h| h.done) {
                break;
            }
            let mut candidates: Vec<Hyp> = Vec::new();
            for h in &hyps {
                if h.done {
                    candidates.push(Hyp {
                        tokens: h.tokens.clone(),
                        state: h.state,
                        prev: h.prev,
                        score: h.score,
                        done: true,
                    });
                    continue;
                }
                let (logits, next) = self.step(g, h.prev, h.state, memory);
                let logp = log_softmax_row(g.value(logits).data());
                // Keep the top `beam` expansions of this hypothesis.
                for token in top_k(&logp, beam) {
                    let token = token as u32;
                    let mut tokens = h.tokens.clone();
                    let done = token == EOS;
                    if !done {
                        tokens.push(token);
                    }
                    candidates.push(Hyp {
                        tokens,
                        state: next,
                        prev: token,
                        score: h.score + logp[token as usize],
                        done,
                    });
                }
            }
            candidates.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
            candidates.truncate(beam);
            hyps = candidates;
        }
        hyps.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
        hyps.into_iter().next().map(|h| h.tokens).unwrap_or_default()
    }
}

fn log_softmax_row(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    row.iter().map(|&x| x - max - log_sum).collect()
}

/// The indices of the `k` largest scores, best first: exactly the first
/// `k` of a stable descending sort of `scores` that treats incomparable
/// pairs as equal, so a tie goes to the lower index. A [`log_softmax_row`]
/// output is either free of NaN or all NaN (one NaN logit poisons the log
/// normaliser); an all-NaN row therefore comes back as `0, 1, …, k − 1`.
/// One pass over the row keeps the best `k` so far in order, and most
/// scores cost one comparison against the worst of them.
fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut best: Vec<usize> = Vec::with_capacity(k.min(scores.len()) + 1);
    for (i, &s) in scores.iter().enumerate() {
        // `i` ranks before `b` only if strictly greater: every kept index
        // is lower than `i`, so it wins a tie.
        let after = |&b: &usize| s.partial_cmp(&scores[b]) != Some(Ordering::Greater);
        if best.len() == k && best.last().is_none_or(after) {
            continue;
        }
        let at = best.partition_point(after);
        best.insert(at, i);
        best.truncate(k);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wb_tensor::{Adam, AdamConfig, Gradients, Tensor};

    /// A zero memory matrix, for a decoder used without an encoder.
    fn zero_memory(g: &mut Graph, rows: usize, dim: usize) -> Var {
        g.input(Tensor::zeros(&[rows, dim]))
    }

    fn greedy(d: &Decoder, g: &mut Graph, memory: Var, max_len: usize) -> Vec<u32> {
        d.greedy_with_states(g, memory, max_len).0
    }

    fn decoder(vocab: usize) -> (Params, Decoder) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let d = Decoder::new(&mut params, &mut rng, "dec", vocab, 8, 8, 8);
        (params, d)
    }

    /// The first `k` of the stable descending sort `beam_search` used to
    /// run over the whole vocabulary.
    fn sorted_prefix(scores: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal));
        idx.truncate(k);
        idx
    }

    /// `top_k` returns exactly the sorted prefix on random rows with many
    /// exact ties and `-inf` entries, before and after `log_softmax_row`,
    /// and on all-NaN rows, at the beam widths in use and past the row
    /// length.
    #[test]
    fn top_k_matches_the_stable_sort() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for _ in 0..150 {
            let len = rng.gen_range(1..700);
            // Few distinct levels, so most scores tie with many others.
            let levels = rng.gen_range(1..12);
            let row: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0 => f32::NEG_INFINITY,
                    _ => rng.gen_range(0..levels) as f32 * 0.5,
                })
                .collect();
            rows.push(log_softmax_row(&row));
            rows.push(row);
        }
        // One NaN logit, or nothing but -inf, makes the whole row NaN.
        rows.push(log_softmax_row(&[0.5, f32::NAN, 1.0, -2.0, 1.0]));
        rows.push(log_softmax_row(&[f32::NEG_INFINITY; 300]));
        assert!(rows.iter().any(|r| r.iter().all(|x| x.is_nan())));
        for row in &rows {
            let nans = row.iter().filter(|x| x.is_nan()).count();
            assert!(nans == 0 || nans == row.len(), "mixed NaN row");
            for k in [1, 4, 20, 200, row.len() + 1] {
                assert_eq!(top_k(row, k), sorted_prefix(row, k), "k {k} row {row:?}");
            }
        }
    }

    #[test]
    fn teacher_forced_shapes() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let logits = d.teacher_forced(&mut g, &[7, 8, EOS], mem);
        assert_eq!(g.value(logits).shape(), &[3, 12]);
    }

    #[test]
    fn greedy_stops_at_max_len() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let out = greedy(&d, &mut g, mem, 5);
        assert!(out.len() <= 5);
    }

    #[test]
    fn beam_equals_greedy_at_width_one() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let by_greedy = greedy(&d, &mut g, mem, 4);
        let beam = d.beam_search(&mut g, mem, 1, 4);
        assert_eq!(by_greedy, beam);
    }

    /// The decoder must be able to memorise a fixed output sequence — the
    /// degenerate seq2seq task.
    #[test]
    fn decoder_learns_fixed_sequence() {
        let (mut params, d) = decoder(12);
        let mut opt = Adam::new(&params, AdamConfig::scaled(0.05));
        let target = [7u32, 9, 8, EOS];
        for _ in 0..120 {
            let grads: Gradients = {
                let mut g = Graph::new(&params, true, 0);
                let mem = zero_memory(&mut g, 2, 8);
                let logits = d.teacher_forced(&mut g, &target, mem);
                let t: Vec<usize> = target.iter().map(|&t| t as usize).collect();
                let loss = g.cross_entropy_rows(logits, &t);
                g.backward(loss)
            };
            opt.step(&mut params, grads);
        }
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        assert_eq!(greedy(&d, &mut g, mem, 6), vec![7, 9, 8]);
        assert_eq!(d.beam_search(&mut g, mem, 4, 6), vec![7, 9, 8]);
    }

    #[test]
    fn beam_is_deterministic_and_bounded() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let a = d.beam_search(&mut g, mem, 4, 5);
        let b = d.beam_search(&mut g, mem, 4, 5);
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        assert!(!a.contains(&EOS));
    }

    #[test]
    fn teacher_forced_with_states_aligns() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        let (logits, states) = d.teacher_forced_with_states(&mut g, &[7, 8, EOS], mem);
        assert_eq!(g.value(logits).rows(), 3);
        assert_eq!(g.value(states).rows(), 3);
        assert_eq!(g.value(states).cols(), 8);
        // States differ across steps (the LSTM actually advances).
        assert_ne!(g.value(states).row(0), g.value(states).row(2));
    }

    #[test]
    fn greedy_with_states_always_returns_at_least_one_state() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        let (tokens, states) = d.greedy_with_states(&mut g, mem, 4);
        assert!(g.value(states).rows() >= 1);
        assert!(tokens.len() <= 4);
    }

    /// With different memories the decoder must produce different outputs —
    /// i.e. attention actually conditions generation.
    #[test]
    fn decoder_conditions_on_memory() {
        let (mut params, d) = decoder(12);
        let mut opt = Adam::new(&params, AdamConfig::scaled(0.05));
        let mem_a = Tensor::from_vec(&[1, 8], vec![1.0; 8]);
        let mem_b = Tensor::from_vec(&[1, 8], vec![-1.0; 8]);
        let tgt_a = [7u32, EOS];
        let tgt_b = [9u32, EOS];
        for _ in 0..150 {
            let mut grads = Gradients::zeros(&params);
            for (mem, tgt) in [(&mem_a, &tgt_a), (&mem_b, &tgt_b)] {
                let gr = {
                    let mut g = Graph::new(&params, true, 0);
                    let m = g.input(mem.clone());
                    let logits = d.teacher_forced(&mut g, tgt, m);
                    let t: Vec<usize> = tgt.iter().map(|&t| t as usize).collect();
                    let loss = g.cross_entropy_rows(logits, &t);
                    g.backward(loss)
                };
                grads.merge(gr);
            }
            grads.scale(0.5);
            opt.step(&mut params, grads);
        }
        let mut g = Graph::new(&params, false, 0);
        let ma = g.input(mem_a.clone());
        let mb = g.input(mem_b.clone());
        assert_eq!(greedy(&d, &mut g, ma, 3), vec![7]);
        assert_eq!(greedy(&d, &mut g, mb, 3), vec![9]);
    }
}
