#![warn(missing_docs)]
//! # wb-nn
//!
//! Neural building blocks for the Webpage Briefing models, implemented on
//! top of the `wb-tensor` autograd engine:
//!
//! * [`Dense`], [`Embedding`], [`BilinearAttention`] — basic layers,
//! * [`Lstm`] / [`BiLstm`] — recurrent encoders [22],
//! * [`MiniBert`] / [`Embedder`] — the contextual encoder standing in for
//!   BERT/BERTSUM, plus the GloVe-like static table (baseline axis of
//!   §IV-A6),
//! * [`Decoder`] — the attention LSTM decoder with teacher forcing, greedy
//!   and beam-search inference.
//!
//! ```
//! use wb_nn::{BiLstm, Dense};
//! use wb_tensor::{Graph, Params, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let encoder = BiLstm::new(&mut params, &mut rng, "enc", 8, 6);
//! let head = Dense::new(&mut params, &mut rng, "head", 12, 3);
//!
//! let mut g = Graph::new(&params, false, 0);
//! let x = g.input(Tensor::zeros(&[5, 8]));      // 5 tokens, 8 features
//! let h = encoder.forward(&mut g, x);           // [5, 12]
//! let logits = head.forward(&mut g, h);         // [5, 3] BIO logits
//! assert_eq!(g.value(logits).shape(), &[5, 3]);
//! ```

mod bert;
mod layers;
mod lstm;
mod seq2seq;

pub use bert::{BertConfig, Embedder, EmbedderKind, MiniBert};
pub use layers::{BilinearAttention, Dense, Embedding};
pub use lstm::{BiLstm, Lstm, LstmState};
pub use seq2seq::Decoder;
