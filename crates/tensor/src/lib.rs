#![warn(missing_docs)]
//! # wb-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation, the
//! numerical substrate for the Webpage Briefing models.
//!
//! The design follows the needs of the paper's models rather than a general
//! framework:
//!
//! * [`Tensor`] — row-major rank-0/1/2 tensors with matmul, softmax and the
//!   usual element-wise operations.
//! * [`Params`] — a named, checkpointable parameter store that is *borrowed*
//!   by graphs, so per-example tapes can run in parallel.
//! * [`Graph`] — a tape recording forward operations; [`Graph::backward`]
//!   produces [`Gradients`].
//! * [`Adam`] — the paper's optimizer (β₁ = 0.9, β₂ = 0.999, linear warm-up,
//!   per-epoch decay, global-norm clipping).
//!
//! Large matmuls, softmaxes and element-wise maps run on the rayon pool
//! once they cross the [`PAR_MIN_ROWS`]/[`PAR_MIN_MACS`]/[`PAR_MIN_ELEMS`]
//! thresholds; results are bit-identical to the serial path at any thread
//! count. Temporary buffers come from the per-thread [`scratch`] pool,
//! refilled when tapes drop.
//!
//! ```
//! use wb_tensor::{Graph, Params, Tensor, Initializer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let w = params.add_init("w", &[2, 2], Initializer::XavierUniform, &mut rng);
//!
//! let mut g = Graph::new(&params, true, 0);
//! let x = g.input(Tensor::from_vec(&[1, 2], vec![1.0, -1.0]));
//! let wv = g.param(w);
//! let y = g.matmul(x, wv);
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! assert!(grads.get(w).is_some());
//! ```

mod base64;
mod graph;
mod init;
pub mod kernels;
mod optim;
mod params;
mod tensor;

pub use graph::{Gradients, Graph, GraphStats, Var};
pub use init::Initializer;
pub use optim::{Adam, AdamConfig, AdamState, MomentEntry, Sgd};
pub use params::{ParamId, Params};
pub use tensor::{scratch, softmax_slice, Tensor, PAR_MIN_ELEMS, PAR_MIN_MACS, PAR_MIN_ROWS};
