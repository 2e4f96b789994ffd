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
///
/// A store is built by a model's constructor, one [`Params::add_init`] per
/// parameter. A fresh store ([`Params::new`]) initialises each tensor; a
/// restoring store ([`Params::restoring`]) already holds saved tensors and
/// checks each `add_init` against the next of them instead.
#[derive(Debug, Clone, Default)]
pub struct Params {
    names: Vec<String>,
    tensors: Vec<Tensor>,
    /// Present until a restoring store is finished.
    restore: Option<Restore>,
}

/// Progress of a restore: how many parameters the model has registered,
/// and the first mismatch of each kind, reported in the order of
/// [`Params::finish_restore`].
#[derive(Debug, Clone, Default)]
struct Restore {
    registered: usize,
    name_mismatch: Option<String>,
    shape_mismatch: Option<String>,
}

impl serde::Serialize for Params {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("names".into(), self.names.to_value()),
            ("tensors".into(), self.tensors.to_value()),
        ])
    }
}

impl serde::Deserialize for Params {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Params {
            names: serde::Deserialize::from_value(v.field("names")?)?,
            tensors: serde::Deserialize::from_value(v.field("tensors")?)?,
            restore: None,
        })
    }
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
        assert!(self.restore.is_none(), "a restoring store takes parameters from add_init");
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

    /// A store that restores `saved`: a model constructor run against it
    /// registers the saved tensors in place of fresh ones. Each
    /// [`Params::add_init`] checks the next saved name and shape, draws
    /// nothing from its RNG and allocates nothing; a tensor whose shape
    /// disagrees is never built, however large the shape asked for.
    /// [`Params::finish_restore`] reports the result. `saved` may come from
    /// an untrusted file.
    pub fn restoring(saved: Params) -> Params {
        Params { restore: Some(Restore::default()), ..saved }
    }

    /// Ends a restore started by [`Params::restoring`]. On success the
    /// store is an ordinary one holding the saved values. Otherwise the
    /// error names the first parameter that differs: a name out of place,
    /// missing or extra; then a tensor count that differs from the name
    /// count; then a shape. A store that is not restoring returns `Ok`.
    pub fn finish_restore(&mut self) -> Result<(), String> {
        let Some(r) = self.restore.take() else { return Ok(()) };
        let extra =
            self.names.get(r.registered).map(|got| format!("`{got}` given, not expected"));
        let (t, n) = (self.tensors.len(), self.names.len());
        let count = (t != n).then(|| format!("{t} tensors given for {n} names"));
        if let Some(e) = r.name_mismatch.or(extra).or(count).or(r.shape_mismatch) {
            return Err(e);
        }
        let bytes = (self.num_scalars() * std::mem::size_of::<f32>()) as f64;
        wb_obs::gauge!("tensor.params.bytes", bytes);
        wb_obs::gauge_max!("tensor.params.bytes.peak", bytes);
        Ok(())
    }

    /// Registers a freshly initialised tensor or, in a restoring store,
    /// the next saved one (see [`Params::restoring`]).
    pub fn add_init(
        &mut self,
        name: &str,
        shape: &[usize],
        init: Initializer,
        rng: &mut StdRng,
    ) -> ParamId {
        let Some(r) = &mut self.restore else {
            let t = init.build(shape, rng);
            return self.add(name, t);
        };
        let id = r.registered;
        r.registered += 1;
        if r.name_mismatch.is_none() {
            r.name_mismatch = match self.names.get(id) {
                None => Some(format!("`{name}` expected, not given")),
                Some(got) if got != name => {
                    Some(format!("`{name}` expected, `{got}` given in its place"))
                }
                Some(_) => None,
            };
        }
        if r.shape_mismatch.is_none() {
            r.shape_mismatch =
                self.tensors.get(id).filter(|t| t.shape() != shape).map(|t| {
                    format!("`{name}`: shape {:?} given, {shape:?} expected", t.shape())
                });
        }
        ParamId(id)
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
    /// Panics when names or shapes disagree.
    pub fn copy_from(&mut self, other: &Params) {
        let same_shapes = self.tensors.len() == other.tensors.len()
            && self.tensors.iter().zip(&other.tensors).all(|(a, b)| a.shape() == b.shape());
        assert!(self.names == other.names && same_shapes, "parameter structure mismatch");
        self.tensors.clone_from_slice(&other.tensors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

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

    /// Saved stores as a file can hold them, restored into a model that
    /// registers `a: [1]` then `b: [2]`.
    #[test]
    fn restoring_names_the_first_mismatch() {
        let store = |entries: &[(&str, usize)]| {
            let mut p = Params::new();
            for &(name, n) in entries {
                p.add(name, Tensor::from_vec(&[n], vec![n as f32; n]));
            }
            p
        };
        let restore = |saved: Params| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut p = Params::restoring(saved);
            let a = p.add_init("a", &[1], Initializer::Uniform(1.0), &mut rng);
            let b = p.add_init("b", &[2], Initializer::Uniform(1.0), &mut rng);
            // The restore drew nothing from the RNG.
            assert_eq!(rng.next_u64(), StdRng::seed_from_u64(3).next_u64());
            p.finish_restore().map(|()| (p, a, b))
        };
        let (p, a, b) = restore(store(&[("a", 1), ("b", 2)])).unwrap();
        assert_eq!((p.get(a).data(), p.get(b).data()), (&[1.0][..], &[2.0, 2.0][..]));
        assert_eq!((p.name(b), p.len()), ("b", 2));
        for (saved, why) in [
            (store(&[("a", 1), ("c", 2)]), "`b` expected, `c` given in its place"),
            (store(&[("a", 1)]), "`b` expected, not given"),
            (store(&[("a", 1), ("b", 2), ("c", 3)]), "`c` given, not expected"),
            (store(&[("a", 1), ("b", 3)]), "`b`: shape [3] given, [2] expected"),
            // A name error outranks an earlier shape error.
            (store(&[("a", 2), ("c", 2)]), "`b` expected, `c` given in its place"),
        ] {
            assert_eq!(restore(saved).unwrap_err(), why);
        }
        // Names intact but a tensor short, as a hand-edited file can be.
        let mut short = store(&[("a", 7), ("b", 2)]);
        short.tensors.pop();
        assert_eq!(restore(short).unwrap_err(), "1 tensors given for 2 names");
        // A shape too large to allocate is compared, never built.
        let mut p = Params::restoring(store(&[("a", 1)]));
        p.add_init("a", &[usize::MAX, 4], Initializer::Zeros, &mut StdRng::seed_from_u64(0));
        assert_eq!(
            p.finish_restore().unwrap_err(),
            "`a`: shape [1] given, [18446744073709551615, 4] expected"
        );
    }
}
