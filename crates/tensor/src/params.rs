//! Named parameter store shared by a model and its optimizer.
//!
//! Parameters live *outside* the autograd [`Graph`](crate::graph::Graph):
//! graphs borrow the store immutably, which is what makes per-example
//! data-parallel backward passes possible (each worker builds its own tape
//! against the same frozen parameters, and the resulting
//! [`Gradients`](crate::graph::Gradients) are summed).

use crate::init::Initializer;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Identifier of one parameter tensor inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A flat, append-only collection of named parameter tensors.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Params {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor under `name` and returns its id.
    ///
    /// # Panics
    /// Panics on duplicate names — every parameter must be addressable for
    /// checkpointing.
    pub fn add(&mut self, name: &str, tensor: Tensor) -> ParamId {
        assert!(!self.names.iter().any(|n| n == name), "duplicate parameter name {name:?}");
        self.names.push(name.to_string());
        self.tensors.push(tensor);
        // Memory accounting: the byte size of the largest parameter store
        // ever assembled in this process (models are built once, so the
        // O(tensors) sum per add stays off any hot path).
        let bytes = (self.num_scalars() * std::mem::size_of::<f32>()) as f64;
        wb_obs::gauge!("tensor.params.bytes", bytes);
        wb_obs::gauge_max!("tensor.params.bytes.peak", bytes);
        ParamId(self.tensors.len() - 1)
    }

    /// Registers a freshly initialised tensor.
    pub fn add_init(
        &mut self,
        name: &str,
        shape: &[usize],
        init: Initializer,
        rng: &mut StdRng,
    ) -> ParamId {
        let t = init.build(shape, rng);
        self.add(name, t)
    }

    /// Borrows a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutably borrows a parameter tensor (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// Iterates over `(id, name, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(&self.tensors)
            .enumerate()
            .map(|(i, (n, t))| (ParamId(i), n.as_str(), t))
    }

    /// Copies values from another store with identical structure.
    ///
    /// # Panics
    /// Panics when names or shapes disagree — see [`Params::try_copy_from`].
    pub fn copy_from(&mut self, other: &Params) {
        if let Err(e) = self.try_copy_from(other) {
            panic!("parameter structure mismatch: {e}");
        }
    }

    /// Copies values from another store after checking that it holds the
    /// same names, one tensor per name, and the same shapes. On a mismatch
    /// nothing is copied and the error names the first parameter that
    /// differs. `other` may come from an untrusted file, so its name and
    /// tensor counts are checked separately.
    pub fn try_copy_from(&mut self, other: &Params) -> Result<(), String> {
        let positions = self.names.len().max(other.names.len());
        if let Some(i) = (0..positions).find(|&i| self.names.get(i) != other.names.get(i)) {
            return Err(match (self.names.get(i), other.names.get(i)) {
                (Some(want), Some(got)) => {
                    format!("`{want}` expected, `{got}` given in its place")
                }
                (Some(want), None) => format!("`{want}` expected, not given"),
                (None, Some(got)) => format!("`{got}` given, not expected"),
                (None, None) => unreachable!("names at {i} differ"),
            });
        }
        if other.tensors.len() != other.names.len() {
            let (t, n) = (other.tensors.len(), other.names.len());
            return Err(format!("{t} tensors given for {n} names"));
        }
        let pairs = self.names.iter().zip(self.tensors.iter().zip(&other.tensors));
        for (name, (want, got)) in pairs {
            if want.shape() != got.shape() {
                let (got, want) = (got.shape(), want.shape());
                return Err(format!("`{name}`: shape {got:?} given, {want:?} expected"));
            }
        }
        self.tensors.clone_from_slice(&other.tensors);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_get_find() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(&[2, 2]));
        assert_eq!(p.get(id).shape(), &[2, 2]);
        assert_eq!(p.find("w"), Some(id));
        assert_eq!(p.find("missing"), None);
        assert_eq!(p.name(id), "w");
        assert_eq!(p.num_scalars(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.add("w", Tensor::zeros(&[1]));
        p.add("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn add_init_uses_rng_deterministically() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let mut p1 = Params::new();
        let mut p2 = Params::new();
        let a = p1.add_init("w", &[3, 3], Initializer::XavierUniform, &mut r1);
        let b = p2.add_init("w", &[3, 3], Initializer::XavierUniform, &mut r2);
        assert_eq!(p1.get(a).data(), p2.get(b).data());
    }

    #[test]
    fn copy_from_transfers_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Params::new();
        let mut b = Params::new();
        a.add("w", Tensor::zeros(&[2]));
        b.add_init("w", &[2], Initializer::Uniform(0.5), &mut rng);
        a.copy_from(&b);
        assert_eq!(a.get(ParamId(0)).data(), b.get(ParamId(0)).data());
    }

    #[test]
    fn try_copy_from_names_the_first_mismatch_and_copies_nothing() {
        let store = |entries: &[(&str, usize)]| {
            let mut p = Params::new();
            for &(name, n) in entries {
                p.add(name, Tensor::from_vec(&[n], vec![n as f32; n]));
            }
            p
        };
        let mut dst = store(&[("a", 1), ("b", 2)]);
        for (src, why) in [
            (store(&[("a", 1), ("c", 2)]), "`b` expected, `c` given in its place"),
            (store(&[("a", 1)]), "`b` expected, not given"),
            (store(&[("a", 1), ("b", 2), ("c", 3)]), "`c` given, not expected"),
            (store(&[("a", 1), ("b", 3)]), "`b`: shape [3] given, [2] expected"),
        ] {
            assert_eq!(dst.try_copy_from(&src).unwrap_err(), why);
        }
        // Names intact but a tensor short, as a hand-edited file can be.
        let mut short = store(&[("a", 7), ("b", 2)]);
        short.tensors.pop();
        let err = dst.try_copy_from(&short).unwrap_err();
        assert_eq!(err, "1 tensors given for 2 names");
        assert_eq!(dst.get(ParamId(0)).data(), &[1.0]);
    }
}
