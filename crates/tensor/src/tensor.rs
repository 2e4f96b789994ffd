//! Dense row-major `f32` tensors.
//!
//! The tensor type is deliberately small: the models in this workspace only
//! need rank-1/2 tensors plus a handful of rank-preserving element-wise
//! operations, batched matrix multiplication and row gather/scatter.
//! In-place variants are provided where the training loop is hot
//! (`add_assign_scaled`, `scale_in_place`, `matmul_into`), and
//! allocating operations draw their buffers from the [`scratch`] pool so
//! steady-state training reuses memory instead of hitting the allocator.
//!
//! # Parallelism
//!
//! `matmul`, `softmax_rows`, `add_row_broadcast` and the `map`/`zip_map`
//! family run on the rayon pool once the operand crosses a size threshold
//! (see [`PAR_MIN_ROWS`], [`PAR_MIN_MACS`], [`PAR_MIN_ELEMS`]); smaller
//! tensors stay on the calling thread. Work is split by output row (or by
//! contiguous element chunk for rank-free element-wise ops), and every
//! output element is accumulated in the same order as the serial code, so
//! results are bit-for-bit identical for any `RAYON_NUM_THREADS`.

use rayon::prelude::*;
use std::fmt;

/// Minimum output rows before a matmul fans out over the rayon pool.
pub const PAR_MIN_ROWS: usize = 64;
/// Minimum multiply-accumulates (`m·k·n`) before a matmul goes parallel;
/// below this the thread hand-off costs more than the arithmetic. The
/// vendored rayon keeps no persistent pool, so that hand-off is an OS
/// thread spawn per worker per call — unless the caller is itself a pool
/// worker, where `rayon::current_num_threads()` is 1 and the call stays
/// serial.
pub const PAR_MIN_MACS: usize = 1 << 18;
/// Minimum elements before element-wise / row-wise ops go parallel.
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// A per-thread pool of reusable `f32` buffers.
///
/// Allocating tensor ops call [`scratch::take`] instead of `Vec::new`, and
/// the autograd `Graph` returns every node buffer with [`scratch::put`]
/// when a tape is dropped, so after the first tape the forward and
/// backward passes recycle buffers instead of re-allocating.
///
/// Each thread keeps its own free list, so neither call takes a lock or
/// touches a shared atomic. A tape is built and dropped on one thread, so
/// its buffers come back where that thread's next tape needs them. The
/// threads that build tapes outlive many tapes: the serve workers and
/// batch executors and the pipeline stage threads live as long as the
/// process, and a rayon worker lives for one parallel call — a batch of
/// pages or a training minibatch. A pool holds at most `MAX_POOL_BYTES`
/// (2 MiB) of capacity; a returned buffer that does not fit is freed. A
/// thread's pool is freed when the thread exits, and a buffer returned
/// while the thread is being torn down is freed too.
///
/// # Metrics
///
/// Each pool tallies its hits, misses and recycled bytes locally and
/// publishes them, together with its size, in one batch per tape drop and
/// once more when its thread exits — never per buffer. The
/// `tensor.scratch.hit` / `.miss` / `.bytes_recycled` counters are process
/// totals. The `tensor.scratch.pooled` / `.bytes_pooled` gauges are the
/// sums over the live threads' pools as last published (an exiting
/// thread subtracts its pool), and `.bytes_pooled.peak` is the
/// high-watermark of that sum. The exit publish runs among the thread's
/// thread-local destructors, so it is visible once the thread is joined;
/// `std::thread::scope`'s implicit join does not wait for it.
pub mod scratch {
    use std::cell::RefCell;
    use std::sync::{Mutex, PoisonError};

    /// Capacity one thread's pool may hold; measured as fast as 8 MiB on
    /// the briefing workloads while using less memory.
    const MAX_POOL_BYTES: usize = 2 << 20;

    /// `(buffers, bytes)` resident across all live threads' pools, as
    /// last published. The gauges are set under this lock, so they always
    /// show the latest sum. A poisoned lock is recovered: each update
    /// leaves both sums valid, and `Pool::drop` must not panic.
    static TOTALS: Mutex<(usize, usize)> = Mutex::new((0, 0));

    thread_local! {
        static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
    }

    struct Pool {
        bufs: Vec<Vec<f32>>,
        /// Capacity bytes resident in `bufs`.
        bytes: usize,
        /// Activity not yet published.
        hits: u64,
        misses: u64,
        recycled: u64,
        /// This pool's `(buffers, bytes)` as last added to [`TOTALS`].
        published: (usize, usize),
    }

    fn bytes_of(buf: &Vec<f32>) -> usize {
        buf.capacity() * std::mem::size_of::<f32>()
    }

    impl Pool {
        const fn new() -> Pool {
            Pool {
                bufs: Vec::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                recycled: 0,
                published: (0, 0),
            }
        }

        /// Publishes the tallied counters and moves this pool's share of
        /// [`TOTALS`] to its current size; returns the new total bytes.
        fn publish(&mut self) -> usize {
            if self.hits > 0 {
                wb_obs::counter!("tensor.scratch.hit", self.hits);
            }
            if self.misses > 0 {
                wb_obs::counter!("tensor.scratch.miss", self.misses);
            }
            if self.recycled > 0 {
                wb_obs::counter!("tensor.scratch.bytes_recycled", self.recycled);
            }
            (self.hits, self.misses, self.recycled) = (0, 0, 0);
            let now = (self.bufs.len(), self.bytes);
            let mut totals = TOTALS.lock().unwrap_or_else(PoisonError::into_inner);
            totals.0 = totals.0 + now.0 - self.published.0;
            totals.1 = totals.1 + now.1 - self.published.1;
            self.published = now;
            wb_obs::gauge!("tensor.scratch.pooled", totals.0 as f64);
            wb_obs::gauge!("tensor.scratch.bytes_pooled", totals.1 as f64);
            wb_obs::gauge_max!("tensor.scratch.bytes_pooled.peak", totals.1 as f64);
            totals.1
        }
    }

    impl Drop for Pool {
        /// Frees the exiting thread's buffers and takes them out of the
        /// totals, publishing whatever was still tallied.
        fn drop(&mut self) {
            self.bufs.clear();
            self.bytes = 0;
            self.publish();
        }
    }

    /// Takes an empty buffer from this thread's pool (or a fresh one).
    /// Pool effectiveness is observable as the `tensor.scratch.hit` /
    /// `tensor.scratch.miss` counters.
    pub fn take() -> Vec<f32> {
        POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            match pool.bufs.pop() {
                Some(buf) => {
                    pool.hits += 1;
                    pool.bytes -= bytes_of(&buf);
                    buf
                }
                None => {
                    pool.misses += 1;
                    Vec::new()
                }
            }
        })
        .unwrap_or_else(|_| {
            wb_obs::counter!("tensor.scratch.miss");
            Vec::new()
        })
    }

    /// Returns a buffer to this thread's pool for reuse. Recycled capacity
    /// feeds the `tensor.scratch.bytes_recycled` counter; a buffer that
    /// would push the pool past its byte budget is freed instead.
    pub fn put(mut buf: Vec<f32>) {
        let bytes = bytes_of(&buf);
        if bytes == 0 || bytes > MAX_POOL_BYTES {
            return;
        }
        buf.clear();
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            pool.recycled += bytes as u64;
            if pool.bytes + bytes <= MAX_POOL_BYTES {
                pool.bytes += bytes;
                pool.bufs.push(buf);
            }
        });
    }

    /// Number of buffers currently pooled on the calling thread
    /// (diagnostics/tests).
    pub fn pooled() -> usize {
        POOL.try_with(|pool| pool.borrow().bufs.len()).unwrap_or(0)
    }

    /// Publishes this thread's tallied pool metrics; `Graph` calls it once
    /// per tape drop.
    pub(crate) fn publish() {
        if let Ok(bytes) = POOL.try_with(|pool| pool.borrow_mut().publish()) {
            wb_obs::trace::sample("tensor.scratch.bytes_pooled", bytes as f64);
        }
    }

    /// Copies `src` into a pooled buffer.
    pub(crate) fn copy_of(src: &[f32]) -> Vec<f32> {
        let mut buf = take();
        buf.extend_from_slice(src);
        buf
    }

    /// A pooled buffer of `n` zeros.
    pub(crate) fn zeroed(n: usize) -> Vec<f32> {
        let mut buf = take();
        buf.resize(n, 0.0);
        buf
    }
}

/// Splits `total` work items into chunks sized for the current pool width.
fn par_chunk(total: usize) -> usize {
    let target = rayon::current_num_threads() * 4;
    (total + target - 1) / target.max(1)
}

/// A tensor shape of rank 0, 1 or 2, held inline so that creating a
/// tensor never allocates for its shape. No model in the workspace needs a
/// higher rank. Serializes as the plain dimension array.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// Dimensions past `rank` are always zero, so derived equality holds.
    dims: [usize; 2],
    rank: usize,
}

impl Shape {
    fn try_new(dims: &[usize]) -> Option<Shape> {
        let mut shape = Shape { dims: [0; 2], rank: dims.len() };
        shape.dims.get_mut(..dims.len())?.copy_from_slice(dims);
        Some(shape)
    }

    /// # Panics
    /// Panics for a rank above 2.
    fn new(dims: &[usize]) -> Shape {
        Shape::try_new(dims)
            .unwrap_or_else(|| panic!("shape {dims:?}: tensors have rank 2 at most"))
    }

    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl serde::Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl serde::Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let dims = Vec::<usize>::from_value(v)?;
        Shape::try_new(&dims).ok_or_else(|| {
            serde::DeError::msg(format!(
                "tensor shape {dims:?} has rank {}, at most 2",
                dims.len()
            ))
        })
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == shape.iter().product()`. A scalar is represented
/// by an empty shape and a single element.
///
/// Serializes as `{"shape":[…],"data":"<base64>"}`: the data string is the
/// RFC 4648 base64 of the values as little-endian `f32` bytes in row-major
/// order, so every bit pattern round-trips. Deserialization also accepts
/// the earlier form, `data` as an array of numbers, and either way fails
/// when the value count disagrees with the shape.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl serde::Serialize for Tensor {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("shape".into(), self.shape.to_value()),
            ("data".into(), serde::Value::Str(crate::base64::encode_f32(&self.data))),
        ])
    }
}

impl serde::Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let shape = Shape::from_value(v.field("shape")?)?;
        let data = match v.field("data")? {
            serde::Value::Str(text) => crate::base64::decode_f32(text)
                .map_err(|e| serde::DeError::msg(format!("tensor data: {e}")))?,
            legacy => Vec::<f32>::from_value(legacy)?,
        };
        // Two dimensions multiply without overflow in u128, whatever the input.
        let expected: u128 = shape.as_slice().iter().map(|&d| d as u128).product();
        if data.len() as u128 != expected {
            return Err(serde::DeError::msg(format!(
                "tensor shape {shape:?} needs {expected} values, data holds {}",
                data.len()
            )));
        }
        Ok(Tensor { shape, data })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if the number of elements implied by `shape` differs from
    /// `data.len()`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {:?} does not match {} elements",
            shape,
            data.len()
        );
        Tensor { shape: Shape::new(shape), data }
    }

    /// A scalar tensor (empty shape).
    pub fn scalar(v: f32) -> Self {
        Tensor { shape: Shape::new(&[]), data: vec![v] }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: Shape::new(shape), data: vec![0.0; shape.iter().product()] }
    }

    /// A tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor { shape: Shape::new(shape), data: vec![v; shape.iter().product()] }
    }

    /// The shape slice.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a rank-2 tensor (or 1 for rank-0/1).
    pub fn rows(&self) -> usize {
        match self.shape() {
            [rows, _] => *rows,
            _ => 1,
        }
    }

    /// Number of columns, i.e. the size of the final axis (1 for scalars).
    pub fn cols(&self) -> usize {
        self.shape().last().copied().unwrap_or(1)
    }

    /// Borrow the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar (or 1-element) tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Borrow row `r` of a rank-2 tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Element-wise binary map; shapes must match exactly. Large tensors
    /// are processed in parallel chunks; `f` is applied per element either
    /// way, so the result does not depend on the thread count.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let mut data = scratch::copy_of(&self.data);
        if data.len() >= PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
            let chunk = par_chunk(data.len());
            data.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
                let other = &other.data[ci * chunk..ci * chunk + c.len()];
                for (v, &b) in c.iter_mut().zip(other) {
                    *v = f(*v, b);
                }
            });
        } else {
            for (v, &b) in data.iter_mut().zip(&other.data) {
                *v = f(*v, b);
            }
        }
        Tensor { shape: self.shape, data }
    }

    /// Element-wise unary map; parallel for large tensors (see
    /// [`Tensor::zip_map`]).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = scratch::copy_of(&self.data);
        if data.len() >= PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
            let chunk = par_chunk(data.len());
            data.par_chunks_mut(chunk).for_each(|c| {
                for v in c.iter_mut() {
                    *v = f(*v);
                }
            });
        } else {
            for v in data.iter_mut() {
                *v = f(*v);
            }
        }
        Tensor { shape: self.shape, data }
    }

    /// `self + other` element-wise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other` element-wise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// `self * other` element-wise (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self * k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|a| a * k)
    }

    /// `self += other * k`, in place. Shapes must match.
    pub fn add_assign_scaled(&mut self, other: &Tensor, k: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * k;
        }
    }

    /// `self *= k`, in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Adds a rank-1 bias of length `cols` to every row, returning a new
    /// tensor. Rows are processed in parallel for large tensors.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(bias.len(), c, "bias length must equal column count");
        let mut data = scratch::copy_of(&self.data);
        if self.rows() >= PAR_MIN_ROWS
            && data.len() >= PAR_MIN_ELEMS
            && rayon::current_num_threads() > 1
        {
            let rows_per = par_chunk(self.rows());
            data.par_chunks_mut(rows_per * c).for_each(|block| {
                for row in block.chunks_mut(c) {
                    for (x, &b) in row.iter_mut().zip(&bias.data) {
                        *x += b;
                    }
                }
            });
        } else {
            for row in data.chunks_mut(c) {
                for (x, &b) in row.iter_mut().zip(&bias.data) {
                    *x += b;
                }
            }
        }
        Tensor { shape: self.shape, data }
    }

    /// Matrix product of rank-2 tensors, with optional transposition of
    /// either operand. `matmul(a, b, false, false)` computes `a @ b`.
    ///
    /// Products run the register-blocked, cache-blocked tile kernel of
    /// [`crate::kernels`], reading untransposed operands in place. A
    /// transposed operand is repacked into row-major layout once per call
    /// when the product has more than one output row and at least
    /// [`crate::kernels::PACK_MIN_MACS`] multiply-accumulates, so all four
    /// transpose variants hit the same SIMD-friendly inner loop; smaller
    /// transposed products run plain per-variant loops. Large products
    /// (≥ [`PAR_MIN_ROWS`] output rows and ≥ [`PAR_MIN_MACS`]
    /// multiply-accumulates) are additionally split by output row across
    /// the rayon pool. Each output element accumulates in ascending-`k`
    /// order on a single chain on every path and no term is ever skipped,
    /// so the result is bit-for-bit identical for any thread count and
    /// variant on every non-NaN output, and NaN/Inf inputs poison exactly
    /// the same outputs everywhere (only the payload of a NaN-vs-NaN sum is
    /// codegen-chosen — see [`crate::kernels`]).
    pub fn matmul(&self, other: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        let mut out = scratch::zeroed(am * bn);
        matmul_dispatch(&self.data, &other.data, trans_a, trans_b, am, ak, bn, &mut out, true);
        Tensor { shape: Shape::new(&[am, bn]), data: out }
    }

    /// Matrix product into an existing tensor, reusing its allocation.
    ///
    /// Shape checks and results are identical to [`Tensor::matmul`]; only
    /// the output buffer is recycled. Hot loops that produce a matmul
    /// result every step (e.g. the trainer's tapes) use this to avoid
    /// per-step allocation.
    pub fn matmul_into(&self, other: &Tensor, trans_a: bool, trans_b: bool, out: &mut Tensor) {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        out.data.clear();
        out.data.resize(am * bn, 0.0);
        out.shape = Shape::new(&[am, bn]);
        matmul_dispatch(
            &self.data,
            &other.data,
            trans_a,
            trans_b,
            am,
            ak,
            bn,
            &mut out.data,
            true,
        );
    }

    /// Serial reference matmul: same results as [`Tensor::matmul`]
    /// (bit-for-bit up to NaN payloads — see [`crate::kernels`]'s
    /// bit-exactness contract), but never uses the thread pool or the tile
    /// kernel — it always runs the direct per-variant loops. Kept public
    /// so tests and benchmarks can compare the tiled/parallel paths
    /// against an independent implementation.
    pub fn matmul_serial(&self, other: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        let mut out = scratch::zeroed(am * bn);
        matmul_dispatch(&self.data, &other.data, trans_a, trans_b, am, ak, bn, &mut out, false);
        Tensor { shape: Shape::new(&[am, bn]), data: out }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        let &[r, c] = self.shape() else { panic!("transpose requires rank 2") };
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(&[c, r], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Row-wise argmax of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let c = self.cols();
        self.data
            .chunks(c)
            .map(|row| {
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for (i, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax with a temperature; numerically stabilised. Rows
    /// are independent, so large tensors fan out over the rayon pool with
    /// identical per-row arithmetic (thread count never changes results).
    pub fn softmax_rows(&self, temperature: f32) -> Tensor {
        let c = self.cols();
        let mut data = scratch::copy_of(&self.data);
        if self.rows() >= PAR_MIN_ROWS
            && data.len() >= PAR_MIN_ELEMS
            && rayon::current_num_threads() > 1
        {
            let rows_per = par_chunk(self.rows());
            data.par_chunks_mut(rows_per * c).for_each(|block| {
                for row in block.chunks_mut(c) {
                    softmax_slice(row, temperature);
                }
            });
        } else {
            for row in data.chunks_mut(c) {
                softmax_slice(row, temperature);
            }
        }
        Tensor { shape: self.shape, data }
    }

    /// The Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Concatenates rank-2 tensors along rows (axis 0). All tensors must
    /// share the same column count.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let c = parts[0].cols();
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), c, "concat_rows column mismatch");
            rows += p.rows();
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(&[rows, c], data)
    }

    /// Concatenates rank-2 tensors along columns (axis 1). All tensors must
    /// share the same row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let r = parts[0].rows();
        let total_c: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = vec![0.0; r * total_c];
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows(), r, "concat_cols row mismatch");
            let c = p.cols();
            for i in 0..r {
                data[i * total_c + offset..i * total_c + offset + c].copy_from_slice(p.row(i));
            }
            offset += c;
        }
        Tensor::from_vec(&[r, total_c], data)
    }

    /// Gathers rows by index from a rank-2 table: `out[i] = table[idx[i]]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let c = self.cols();
        let mut data = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            assert!(i < self.rows(), "gather index {} out of {} rows", i, self.rows());
            data.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(&[idx.len(), c], data)
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows(), "slice_rows out of bounds");
        let c = self.cols();
        Tensor::from_vec(&[end - start, c], self.data[start * c..end * c].to_vec())
    }
}

/// In-place numerically stable softmax of a slice with temperature.
///
/// A fully masked row (every entry `-inf`) carries no information about a
/// preference; `(v - max)` would be `NaN` there, so such rows fall back to
/// the uniform distribution instead of propagating NaNs.
pub fn softmax_slice(row: &mut [f32], temperature: f32) {
    debug_assert!(temperature > 0.0);
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        if !row.is_empty() {
            let uniform = 1.0 / row.len() as f32;
            for v in row.iter_mut() {
                *v = uniform;
            }
        }
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = ((*v - max) / temperature).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn mat_dims(t: &Tensor, trans: bool) -> (usize, usize) {
    assert_eq!(t.shape().len(), 2, "matmul requires rank-2, got {:?}", t.shape());
    if trans {
        (t.shape()[1], t.shape()[0])
    } else {
        (t.shape()[0], t.shape()[1])
    }
}

/// Validates operand ranks/shapes and returns `(m, k, n)`.
fn matmul_check(a: &Tensor, b: &Tensor, trans_a: bool, trans_b: bool) -> (usize, usize, usize) {
    let (am, ak) = mat_dims(a, trans_a);
    let (bk, bn) = mat_dims(b, trans_b);
    assert_eq!(
        ak,
        bk,
        "matmul inner-dimension mismatch: {:?}{} @ {:?}{}",
        a.shape,
        if trans_a { "ᵀ" } else { "" },
        b.shape,
        if trans_b { "ᵀ" } else { "" }
    );
    (am, ak, bn)
}

/// Runs a matmul either serially or split by output row over the pool,
/// routing it through the tile kernel of [`crate::kernels`], or through the
/// direct per-variant loops when it is a small or one-row product with a
/// transposed operand. Both paths accumulate every output element in
/// ascending-`k` order on a single chain and never skip a term, so
/// results are bit-identical across paths, thread counts, and transpose
/// variants — non-finite inputs poison the same outputs everywhere, with
/// only NaN payloads left codegen-chosen (see [`crate::kernels`]).
#[allow(clippy::too_many_arguments)]
fn matmul_dispatch(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    out: &mut [f32],
    allow_parallel: bool,
) {
    if am == 0 || bn == 0 {
        return;
    }
    // Per-variant call and FLOP counters (see docs/OBSERVABILITY.md).
    // These are single relaxed atomic adds, amortised over `m·k·n`
    // multiply-accumulates of real work.
    match (trans_a, trans_b) {
        (false, false) => wb_obs::counter!("tensor.matmul.calls.nn"),
        (true, false) => wb_obs::counter!("tensor.matmul.calls.tn"),
        (false, true) => wb_obs::counter!("tensor.matmul.calls.nt"),
        (true, true) => wb_obs::counter!("tensor.matmul.calls.tt"),
    }
    wb_obs::counter!("tensor.matmul.flops", (2 * am * ak * bn) as u64);
    let macs = am * ak * bn;
    let parallel = allow_parallel
        && am >= PAR_MIN_ROWS
        && macs >= PAR_MIN_MACS
        && rayon::current_num_threads() > 1;
    if parallel {
        wb_obs::counter!("tensor.matmul.dispatch.parallel");
    } else {
        wb_obs::counter!("tensor.matmul.dispatch.serial");
    }
    // `matmul_serial` (allow_parallel = false) stays on the direct loops:
    // it is the independent reference the tile kernel is tested against.
    // The tiles read rows, so only a transposed operand is packed for them
    // (a one-row Aᵀ, `[k, 1]`, is laid out as its own row), and only when
    // there is more than one output row and enough work to pay for the
    // copy; a smaller transposed product runs the direct loop, which is
    // never large enough to go parallel.
    let pack_a = trans_a && am > 1;
    if !allow_parallel
        || ((pack_a || trans_b) && (am == 1 || macs < crate::kernels::PACK_MIN_MACS))
    {
        debug_assert!(!parallel);
        wb_obs::counter!("tensor.matmul.kernel.direct");
        crate::kernels::direct_rows(a, b, trans_a, trans_b, am, ak, bn, out);
    } else {
        // `par_chunk` reads the pool size, which costs more than a small
        // product: ask only when going parallel.
        let par_rows = parallel.then(|| par_chunk(am));
        crate::kernels::matmul_tiled(a, b, pack_a, trans_b, am, ak, bn, out, par_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }

    #[test]
    fn matmul_plain() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b, false, false);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.25).collect());
        let base = a.matmul(&b, false, false);
        let ta = a.transpose();
        let tb = b.transpose();
        assert_eq!(ta.matmul(&b, true, false).data(), base.data());
        assert_eq!(a.matmul(&tb, false, true).data(), base.data());
        assert_eq!(ta.matmul(&tb, true, true).data(), base.data());
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 100.]);
        let s = t.softmax_rows(1.0);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logit dominates without overflow.
        assert!(s.row(1)[2] > 0.999);
    }

    #[test]
    fn softmax_temperature_flattens() {
        let t = Tensor::from_vec(&[1, 2], vec![0., 2.]);
        let sharp = t.softmax_rows(0.5);
        let soft = t.softmax_rows(4.0);
        assert!(sharp.row(0)[1] > soft.row(0)[1]);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Tensor::from_vec(&[1, 2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2, 2], vec![3., 4., 5., 6.]);
        let r = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), &[1., 2., 3., 4., 5., 6.]);

        let c = Tensor::from_vec(&[2, 1], vec![9., 10.]);
        let cc = Tensor::concat_cols(&[&b, &c]);
        assert_eq!(cc.shape(), &[2, 3]);
        assert_eq!(cc.data(), &[3., 4., 9., 5., 6., 10.]);
    }

    #[test]
    fn gather_and_slice() {
        let t = Tensor::from_vec(&[3, 2], vec![0., 1., 10., 11., 20., 21.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[20., 21., 0., 1., 20., 21.]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.data(), &[10., 11., 20., 21.]);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let t = Tensor::from_vec(&[2, 3], vec![5., 5., 1., 0., 2., 2.]);
        assert_eq!(t.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn broadcast_bias() {
        let t = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2], vec![10., 20.]);
        assert_eq!(t.add_row_broadcast(&b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn norm_matches_manual() {
        let t = Tensor::from_vec(&[2], vec![3., 4.]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_all_masked_row_is_uniform() {
        // Regression: an all -inf row used to produce NaNs; it must fall
        // back to the uniform distribution.
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_slice(&mut row, 1.0);
        assert_eq!(row, vec![0.25; 4]);

        // The tensor-level op inherits the fallback.
        let t = Tensor::from_vec(&[1, 4], vec![f32::NEG_INFINITY; 4]);
        assert_eq!(t.softmax_rows(1.0).data(), &[0.25; 4]);
    }

    #[test]
    fn softmax_partially_masked_row_keeps_zero_mass_on_masked() {
        let mut row = vec![f32::NEG_INFINITY, 0.0, 0.0];
        softmax_slice(&mut row, 1.0);
        assert_eq!(row[0], 0.0);
        assert!((row[1] - 0.5).abs() < 1e-6);
        assert!((row[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_row_is_noop() {
        let mut row: Vec<f32> = vec![];
        softmax_slice(&mut row, 1.0);
        assert!(row.is_empty());
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.25).collect());
        let expected = a.matmul(&b, false, false);
        // Start from a differently shaped tensor with stale contents.
        let mut out = Tensor::from_vec(&[1, 2], vec![9.0, 9.0]);
        a.matmul_into(&b, false, false, &mut out);
        assert_eq!(out, expected);
        // Repeat in place: same buffer, same result.
        let ptr = out.data().as_ptr();
        a.matmul_into(&b, false, false, &mut out);
        assert_eq!(out, expected);
        assert_eq!(out.data().as_ptr(), ptr, "buffer was re-allocated");
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial() {
        // Big enough to cross both parallel thresholds (PAR_MIN_ROWS and
        // PAR_MIN_MACS) for every transpose combination.
        let n = 160;
        let a = Tensor::from_vec(
            &[n, n],
            (0..n * n).map(|i| ((i * 2654435761usize) % 1000) as f32 / 997.0 - 0.5).collect(),
        );
        let b = Tensor::from_vec(
            &[n, n],
            (0..n * n).map(|i| ((i * 40503usize) % 1000) as f32 / 991.0 - 0.5).collect(),
        );
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let par = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            assert_eq!(par.data(), ser.data(), "variant ({ta}, {tb}) diverged");
        }
    }

    #[test]
    fn zero_times_nan_is_nan_not_zero() {
        // Regression for the zero-skip bug: `nn`/`tn` once skipped
        // `av == 0.0` terms, converting `0 × NaN` and `0 × ∞` into `0` and
        // silently masking NaN poisoning from the NaN-rollback guard.
        let a = Tensor::from_vec(&[2, 3], vec![0., 0., 0., 1., 2., 3.]);
        let mut bdata = vec![1.0f32; 6];
        bdata[1] = f32::NAN; // b[0, 1]
        bdata[4] = f32::INFINITY; // b[2, 0]
        let b = Tensor::from_vec(&[3, 2], bdata);
        let c = a.matmul(&b, false, false);
        // Row 0 is all zeros, but 0×NaN = NaN and 0×∞ = NaN must leak out.
        assert!(c.data()[0].is_nan(), "0 × ∞ must be NaN, got {}", c.data()[0]);
        assert!(c.data()[1].is_nan(), "0 × NaN must be NaN, got {}", c.data()[1]);
        // The same product through every variant agrees bit-for-bit (NaN
        // payloads canonicalized — see the kernels bit-exactness contract).
        let base_bits: Vec<u32> = c.data().iter().map(canon_bits).collect();
        let ta = a.transpose();
        let tb = b.transpose();
        for (t, ser) in [
            (ta.matmul(&b, true, false), ta.matmul_serial(&b, true, false)),
            (a.matmul(&tb, false, true), a.matmul_serial(&tb, false, true)),
            (ta.matmul(&tb, true, true), ta.matmul_serial(&tb, true, true)),
        ] {
            let bits: Vec<u32> = t.data().iter().map(canon_bits).collect();
            assert_eq!(bits, base_bits, "variant disagreed on non-finite inputs");
            let ser_bits: Vec<u32> = ser.data().iter().map(canon_bits).collect();
            assert_eq!(bits, ser_bits, "variant disagreed with matmul_serial");
        }
    }

    /// Bit pattern with NaN payloads canonicalized: NaN-ness, ±Inf, -0.0
    /// and all finite values compare exactly; which payload survives a
    /// NaN + NaN sum is codegen-chosen and deliberately not compared.
    fn canon_bits(v: &f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn packed_path_bit_matches_serial_reference() {
        // Big enough to cross PACK_MIN_MACS (and the parallel thresholds)
        // so `matmul` packs its transposed operands for the tiles (and
        // tiles the unpacked B of `nn`) while `matmul_serial` stays on the
        // direct loops — a genuine cross-implementation check, with
        // non-finite values and zero rows/columns laced in.
        let n = crate::kernels::KC + 40;
        let mut adata: Vec<f32> =
            (0..n * n).map(|i| ((i * 2654435761usize) % 1000) as f32 / 997.0 - 0.5).collect();
        let mut bdata: Vec<f32> =
            (0..n * n).map(|i| ((i * 40503usize) % 1000) as f32 / 991.0 - 0.5).collect();
        for j in 0..n {
            adata[3 * n + j] = 0.0; // zero row in a
            bdata[j * n + 5] = 0.0; // zero column in b
        }
        adata[7 * n + 11] = f32::NAN;
        adata[8 * n + 2] = f32::NEG_INFINITY;
        bdata[4 * n + 9] = f32::INFINITY;
        bdata[6 * n + 6] = -0.0;
        let a = Tensor::from_vec(&[n, n], adata);
        let b = Tensor::from_vec(&[n, n], bdata);
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let packed = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            let pb: Vec<u32> = packed.data().iter().map(canon_bits).collect();
            let sb: Vec<u32> = ser.data().iter().map(canon_bits).collect();
            assert_eq!(pb, sb, "packed variant ({ta}, {tb}) diverged from serial");
        }

        // A one-row product above PACK_MIN_MACS (the decoder's output
        // projection, 1×52×606): `matmul` packs nothing for it, so the
        // tiles over the packed transposed operands are run by hand as the
        // cross-check.
        let (m, k, n) = (1, 52, 606);
        assert!(m * k * n >= crate::kernels::PACK_MIN_MACS);
        let mut adata: Vec<f32> = (0..k).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
        adata[9] = f32::NAN;
        let mut bdata: Vec<f32> =
            (0..k * n).map(|i| ((i * 40503usize) % 1000) as f32 / 991.0 - 0.5).collect();
        bdata[3 * n + 17] = f32::INFINITY;
        bdata[5 * n + 2] = -0.0;
        let a = Tensor::from_vec(&[m, k], adata);
        let b = Tensor::from_vec(&[k, n], bdata);
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let a_op = if ta { a.transpose() } else { a.clone() };
            let b_op = if tb { b.transpose() } else { b.clone() };
            let direct = a_op.matmul(&b_op, ta, tb);
            let ser = a_op.matmul_serial(&b_op, ta, tb);
            let mut packed = vec![0.0; m * n];
            crate::kernels::matmul_tiled(
                a_op.data(),
                b_op.data(),
                ta,
                tb,
                m,
                k,
                n,
                &mut packed,
                None,
            );
            let db: Vec<u32> = direct.data().iter().map(canon_bits).collect();
            let sb: Vec<u32> = ser.data().iter().map(canon_bits).collect();
            let pb: Vec<u32> = packed.iter().map(canon_bits).collect();
            assert_eq!(db, sb, "one-row variant ({ta}, {tb}) diverged from serial");
            assert_eq!(db, pb, "one-row variant ({ta}, {tb}) diverged from the packed tiles");
        }
    }

    #[test]
    fn shape_serializes_as_the_plain_dimension_array() {
        use serde::{Deserialize, Serialize, Value};
        let num = |v: f64| Value::Num(v);
        // The exact tree the former `shape: Vec<usize>` field produced.
        let expected = |shape: &[usize], data: &[f32]| {
            Value::Obj(vec![
                ("shape".into(), Value::Arr(shape.iter().map(|&d| num(d as f64)).collect())),
                ("data".into(), Value::Str(crate::base64::encode_f32(data))),
            ])
        };
        for t in [
            Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]),
            Tensor::from_vec(&[3], vec![0.5, -1., 2.]),
            Tensor::scalar(4.5),
        ] {
            let v = t.to_value();
            assert_eq!(v, expected(t.shape(), t.data()));
            assert_eq!(Tensor::from_value(&v).unwrap(), t);
        }
    }

    #[test]
    fn json_wire_form_is_pinned() {
        // A changed encoding changes every checkpoint's bytes and size.
        let t = Tensor::from_vec(&[1, 3], vec![1.0, -2.0, 0.5]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"shape":[1,3],"data":"AACAPwAAAMAAAAA/"}"#);
    }

    #[test]
    fn rank_three_shape_is_a_load_error_not_a_panic() {
        let err = serde_json::from_str::<Tensor>(r#"{"shape":[1,2,2],"data":[1,2,3,4]}"#)
            .expect_err("a rank-3 tensor must not load");
        assert!(err.to_string().contains("rank 3"), "{err}");
        let params = r#"{"names":["w"],"tensors":[{"shape":[2,1,1],"data":[1,2]}]}"#;
        assert!(serde_json::from_str::<crate::Params>(params).is_err());
    }

    #[test]
    fn every_bit_pattern_roundtrips_through_json() {
        let payload_nan = f32::from_bits(0x7FC0_1234);
        let values = vec![
            f32::NAN,
            payload_nan,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            0.1,
        ];
        let t = Tensor::from_vec(&[2, 5], values.clone());
        let back: Tensor = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back.shape(), &[2, 5]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(back.data()), bits(&values));
    }

    #[test]
    fn data_length_must_match_the_shape() {
        let encoded = crate::base64::encode_f32(&[1.0, 2.0]);
        for json in [
            format!(r#"{{"shape":[3],"data":"{encoded}"}}"#),
            r#"{"shape":[3],"data":[1,2]}"#.to_string(),
        ] {
            let err = serde_json::from_str::<Tensor>(&json).expect_err(&json);
            assert!(err.to_string().contains("needs 3 values, data holds 2"), "{err}");
        }
        let huge = format!(r#"{{"shape":[{0},{0}],"data":[1]}}"#, usize::MAX);
        let err = serde_json::from_str::<Tensor>(&huge).expect_err("overflowing shape");
        assert!(err.to_string().contains("data holds 1"), "{err}");
        let err = serde_json::from_str::<Tensor>(r#"{"shape":[1],"data":"AACAP*=="}"#)
            .expect_err("bad base64 must not load");
        assert!(err.to_string().contains("invalid base64 character"), "{err}");
    }

    #[test]
    #[should_panic(expected = "rank 2 at most")]
    fn rank_three_tensor_cannot_be_built() {
        let _ = Tensor::zeros(&[1, 2, 2]);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let buf = vec![1.0f32; 64];
        scratch::put(buf);
        let got = scratch::take();
        assert!(got.is_empty(), "pooled buffers come back cleared");
    }
}
