//! The register-blocked matmul tile kernel and the packing it reads from.
//!
//! Every production product except the small transposed ones runs one
//! const-generic tile, `Block::tile::<R, W>`: it keeps an `R × W` block of
//! outputs in registers and adds one contiguous `W`-wide row of `B`,
//! scaled by each row's `A` element, per depth step — a shape LLVM
//! autovectorizes on any `-C target-cpu` without `core::arch` intrinsics.
//! [`tiled_rows`] sweeps the output in cache blocks ([`MC`] rows, [`KC`]
//! depth, [`NC`] columns) and covers each block exactly with tiles:
//! `R` is [`MR`] rows and then the 1–3 rows left over; `W` is [`NR`]
//! columns and then one 8-, one 4- and single-column tiles for the
//! rest, and single-row tiles first take [`NR_ROW`] columns at a time.
//! There is no separate edge loop: a 20-column or 3-column product runs
//! as register tiles too.
//!
//! # When packing happens
//!
//! The tile reads `A` as rows and `B` as rows, so only a *transposed*
//! operand is copied, and only when the product has more than one output
//! row and at least [`PACK_MIN_MACS`] multiply-accumulates (smaller
//! transposed products run [`direct_rows`], where a copy would cost more
//! than the product):
//!
//! * a transposed `B` is packed once per call into contiguous
//!   `KC × NC` row-major panels ([`pack_b`]);
//! * a transposed `A` is transposed once into an `[m, k]` scratch buffer
//!   ([`pack_a_transposed`]);
//! * an untransposed `B` is read in place at row stride `n`, and an
//!   untransposed `A` in place at row stride `k`. A one-row `Aᵀ`
//!   (`[k, 1]`) is laid out as its own row and counts as untransposed.
//!
//! # Bit-exactness contract
//!
//! Each output element accumulates its `k` terms **in ascending order on a
//! single accumulator chain** — across panel (`KC`) boundaries, across
//! tile shapes, and across any row partitioning of the output. The tile
//! sweep, the [`direct_rows`] loops (small transposed products and
//! [`crate::Tensor::matmul_serial`]), and the four transpose variants
//! therefore all produce bit-identical results for every non-NaN output
//! (finite values, ±Inf and -0.0 exact), and agree exactly on *which*
//! outputs are NaN: no term is ever skipped, so `0 × NaN`/`0 × ∞` poison
//! the output exactly as IEEE 754 dictates — see the zero-skip regression
//! tests in `tensor.rs`. There is no fused multiply-add and no
//! `target_feature` multiversioning. The one thing left unspecified is
//! the *payload* of a NaN produced when two NaNs meet in an add: IEEE 754
//! lets either operand's payload win and LLVM freely commutes `fadd`
//! operands, so payload selection differs between compilations of the
//! same chain. Tests compare NaN-canonicalized bits.
//!
//! # Counters
//!
//! * `tensor.matmul.pack.calls` / `.bytes` — calls that packed an operand
//!   and the bytes staged into pack buffers (deterministic functions of
//!   the shape).
//! * `tensor.matmul.kernel.macs` — multiply-accumulates actually executed
//!   by the kernels, summed from loop trip counts. With the zero-skip bug
//!   removed this equals the nominal `m·k·n` of `tensor.matmul.flops / 2`
//!   (asserted by `tests/flops_accounting.rs`).
//! * `tensor.matmul.kernel.tiles` — tile invocations. Tile counts
//!   depend on how rows were chunked across threads, so this one is
//!   observability-only (never a hard bench metric).
//! * `tensor.matmul.kernel.direct` — calls that packed nothing: every
//!   untransposed product, and the transposed ones that ran
//!   [`direct_rows`].

use crate::tensor::scratch;

/// Tile height (output rows per full tile).
pub const MR: usize = 4;
/// Tile width (output columns per full tile); the inner loop is a
/// contiguous `f32` multiply-add over `NR` lanes.
pub const NR: usize = 16;
/// Tile width of single-row tiles, such as every tile of the decoder's
/// one-row output projection: with one row of accumulators the registers
/// hold a wider block.
pub const NR_ROW: usize = 32;
/// Row cache-block: rows of `A` kept hot in L1/L2 per panel sweep.
pub const MC: usize = 64;
/// Depth cache-block: `k` extent of one panel of `B`.
pub const KC: usize = 128;
/// Column cache-block: `n` extent of one panel of `B` (`KC·NC` floats
/// ≈ 64 KiB, sized so a panel stays L2-resident across an `MC` row sweep).
pub const NC: usize = 128;

/// Minimum multiply-accumulates (`m·k·n`) before a product with a
/// transposed operand pays for packing it; below this the direct
/// per-variant loops win. One-row products never pack: packing would copy
/// all of `B` to use each element once.
pub const PACK_MIN_MACS: usize = 1 << 13;

/// Packs a transposed `B` (logical `[k, n]`, stored `[n, k]` row-major)
/// into contiguous row-major panels: for each `NC`-column block, each
/// `KC`-depth block is stored as a row-major `kc_len × nc_len` panel. The
/// panel holding `(k0, j0)` starts at `jc·k + pc·nc_len` where `jc`/`pc`
/// are the block origins — see [`packed_index`] for the element-level
/// inverse.
pub fn pack_b(bt: &[f32], ak: usize, bn: usize, buf: &mut Vec<f32>) {
    buf.clear();
    buf.resize(ak * bn, 0.0);
    let mut jc = 0;
    while jc < bn {
        let nc_len = NC.min(bn - jc);
        let mut pc = 0;
        while pc < ak {
            let kc_len = KC.min(ak - pc);
            let base = jc * ak + pc * nc_len;
            // Columns of the logical B are contiguous source rows, so
            // read j-major for locality.
            for j in 0..nc_len {
                let src = &bt[(jc + j) * ak + pc..(jc + j) * ak + pc + kc_len];
                for (p, &v) in src.iter().enumerate() {
                    buf[base + p * nc_len + j] = v;
                }
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Index of logical element `(k, j)` inside a [`pack_b`] buffer — the
/// round-trip inverse used by the packing property tests.
pub fn packed_index(k: usize, j: usize, ak: usize, bn: usize) -> usize {
    let jc = j / NC * NC;
    let pc = k / KC * KC;
    let nc_len = NC.min(bn - jc);
    jc * ak + pc * nc_len + (k - pc) * nc_len + (j - jc)
}

/// Transposes `a` (stored `[k, m]` row-major) into a row-major `[m, k]`
/// buffer, tile-blocked so both sides stream through cache.
pub fn pack_a_transposed(a: &[f32], am: usize, ak: usize, buf: &mut Vec<f32>) {
    buf.clear();
    buf.resize(am * ak, 0.0);
    const TB: usize = 32;
    let mut i0 = 0;
    while i0 < am {
        let mut k0 = 0;
        while k0 < ak {
            for i in i0..(i0 + TB).min(am) {
                for k in k0..(k0 + TB).min(ak) {
                    buf[i * ak + k] = a[k * am + i];
                }
            }
            k0 += TB;
        }
        i0 += TB;
    }
}

/// Computes output rows `r0 .. r0 + chunk.len()/bn` of `A @ B` into
/// `chunk` (zeroed on entry) from a row-major `[m, k]` operand `a_eff` and
/// `B`, either a [`pack_b`] panel buffer (`packed`) or the row-major
/// `[k, n]` operand itself. Row partitioning is free: every row sweeps
/// the same global `jc`/`pc` blocks, so results do not depend on which
/// chunk a row lands in.
pub fn tiled_rows(
    a_eff: &[f32],
    b: &[f32],
    packed: bool,
    ak: usize,
    bn: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / bn;
    let mut tiles = 0u64;
    let mut jc = 0;
    while jc < bn {
        let nc_len = NC.min(bn - jc);
        let mut pc = 0;
        while pc < ak {
            let kc_len = KC.min(ak - pc);
            let (panel, b_stride) = if packed {
                (&b[jc * ak + pc * nc_len..], nc_len)
            } else {
                (&b[pc * bn + jc..], bn)
            };
            let mut ic = 0;
            while ic < rows {
                let mc_len = MC.min(rows - ic);
                let mut ir = 0;
                while ir < mc_len {
                    let row0 = ic + ir;
                    let a = &a_eff[(r0 + row0) * ak + pc..];
                    let c = &mut chunk[row0 * bn + jc..];
                    let blk = Block { a, a_stride: ak, b: panel, b_stride, kc: kc_len };
                    let r = MR.min(mc_len - ir);
                    tiles += match r {
                        MR => blk.cols::<MR>(nc_len, c, bn),
                        3 => blk.cols::<3>(nc_len, c, bn),
                        2 => blk.cols::<2>(nc_len, c, bn),
                        _ => blk.cols::<1>(nc_len, c, bn),
                    };
                    ir += r;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
    wb_obs::counter!("tensor.matmul.kernel.tiles", tiles);
    wb_obs::counter!("tensor.matmul.kernel.macs", (rows * ak * bn) as u64);
}

/// The operands of one row block of a panel: `a` points at the block's
/// first row's `k`-slice (rows `a_stride` apart), `b` at the panel's first
/// row (rows `b_stride` apart), and the panel is `kc` deep.
struct Block<'a> {
    a: &'a [f32],
    a_stride: usize,
    b: &'a [f32],
    b_stride: usize,
    kc: usize,
}

impl Block<'_> {
    /// Covers `R` output rows × `nc` columns of `c` (rows `c_stride`
    /// apart) with tiles, widest first; returns the tile count.
    #[inline(always)]
    fn cols<const R: usize>(&self, nc: usize, c: &mut [f32], c_stride: usize) -> u64 {
        let mut j = 0;
        let mut tiles = 0;
        if R == 1 {
            while nc - j >= NR_ROW {
                self.tile::<1, NR_ROW>(j, c, c_stride);
                j += NR_ROW;
                tiles += 1;
            }
        }
        while nc - j >= NR {
            self.tile::<R, NR>(j, c, c_stride);
            j += NR;
            tiles += 1;
        }
        if nc - j >= 8 {
            self.tile::<R, 8>(j, c, c_stride);
            j += 8;
            tiles += 1;
        }
        if nc - j >= 4 {
            self.tile::<R, 4>(j, c, c_stride);
            j += 4;
            tiles += 1;
        }
        while j < nc {
            self.tile::<R, 1>(j, c, c_stride);
            j += 1;
            tiles += 1;
        }
        tiles
    }

    /// The register tile: accumulates the `R × W` block of `C += A · B`
    /// whose first column is `j0`, over the block's `kc` depth steps, in
    /// an accumulator array the compiler keeps in registers. Each output
    /// adds its terms in ascending `k` on one chain, continuing from the
    /// value already in `c`.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&self, j0: usize, c: &mut [f32], c_stride: usize) {
        let kc = self.kc;
        let a: [&[f32]; R] =
            std::array::from_fn(|r| &self.a[r * self.a_stride..r * self.a_stride + kc]);
        let mut acc = [[0.0f32; W]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * c_stride + j0..r * c_stride + j0 + W]);
        }
        for p in 0..kc {
            let at = p * self.b_stride + j0;
            let brow: &[f32; W] = self.b[at..at + W].try_into().expect("slice is W long");
            for (row, ar) in acc.iter_mut().zip(&a) {
                let av = ar[p];
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            c[r * c_stride + j0..r * c_stride + j0 + W].copy_from_slice(row);
        }
    }
}

/// Runs the tile kernel for one whole matmul call: packs the transposed
/// operands once (see the module doc), then sweeps [`tiled_rows`]
/// serially, or across the rayon pool in chunks of `par_rows` output rows.
/// `out` must be zeroed; whether to go parallel is the caller's decision
/// (it owns the dispatch counters).
#[allow(clippy::too_many_arguments)]
pub fn matmul_tiled(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    out: &mut [f32],
    par_rows: Option<usize>,
) {
    use rayon::prelude::*;
    let mut bp = None;
    let mut ap = None;
    let mut packed_bytes = 0;
    if trans_b {
        let mut buf = scratch::take();
        pack_b(b, ak, bn, &mut buf);
        packed_bytes += buf.len() * std::mem::size_of::<f32>();
        bp = Some(buf);
    }
    if trans_a {
        let mut buf = scratch::take();
        pack_a_transposed(a, am, ak, &mut buf);
        packed_bytes += buf.len() * std::mem::size_of::<f32>();
        ap = Some(buf);
    }
    if trans_a || trans_b {
        wb_obs::counter!("tensor.matmul.pack.calls");
        wb_obs::counter!("tensor.matmul.pack.bytes", packed_bytes as u64);
    } else {
        wb_obs::counter!("tensor.matmul.kernel.direct");
    }
    let a_eff: &[f32] = ap.as_deref().unwrap_or(a);
    let b_eff: &[f32] = bp.as_deref().unwrap_or(b);
    if let Some(rows) = par_rows {
        out.par_chunks_mut(rows * bn).enumerate().for_each(|(ci, chunk)| {
            tiled_rows(a_eff, b_eff, trans_b, ak, bn, ci * rows, chunk);
        });
    } else {
        tiled_rows(a_eff, b_eff, trans_b, ak, bn, 0, out);
    }
    for buf in [bp, ap].into_iter().flatten() {
        scratch::put(buf);
    }
}

/// Computes the product into `out` (which must be zeroed) with plain
/// per-variant loops straight from the unpacked operands: the path for
/// small transposed products, and all of
/// [`crate::Tensor::matmul_serial`], the independent reference the tile
/// kernel is tested against (its untransposed loop runs nowhere else).
/// For every transpose combination the per-element accumulation order is
/// `k` ascending on a single chain and **no term is ever skipped** (a
/// zero-skip here once converted `0 × NaN` into `0`, masking NaN poisoning
/// from the paths the NaN-rollback guard watches).
#[allow(clippy::too_many_arguments)]
pub fn direct_rows(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    out: &mut [f32],
) {
    match (trans_a, trans_b) {
        (false, false) => {
            for (i, orow) in out.chunks_mut(bn).enumerate() {
                let arow = &a[i * ak..(i + 1) * ak];
                for (k, &av) in arow.iter().enumerate() {
                    let brow = &b[k * bn..(k + 1) * bn];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        (true, false) => {
            // a is [k, m] stored row-major: column i of a feeds output row i.
            for (i, orow) in out.chunks_mut(bn).enumerate() {
                for k in 0..ak {
                    let av = a[k * am + i];
                    let brow = &b[k * bn..(k + 1) * bn];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        (false, true) => {
            // b is [n, k] stored row-major; dot products of rows.
            for (i, orow) in out.chunks_mut(bn).enumerate() {
                let arow = &a[i * ak..(i + 1) * ak];
                for (j, o) in orow.iter_mut().enumerate() {
                    let brow = &b[j * ak..(j + 1) * ak];
                    let mut acc = 0.0;
                    for (&x, &y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        }
        (true, true) => {
            // Rare at small sizes; explicit indexing.
            for (i, orow) in out.chunks_mut(bn).enumerate() {
                for (j, o) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for k in 0..ak {
                        acc += a[k * am + i] * b[j * ak + k];
                    }
                    *o = acc;
                }
            }
        }
    }
    wb_obs::counter!("tensor.matmul.kernel.macs", (am * ak * bn) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn pack_b_round_trips() {
        // Odd sizes exercise edge panels in both block dimensions.
        let (k, n) = (KC + 37, NC + 21);
        let bt = fill(3, n * k); // stored [n, k]
        let mut buf = Vec::new();
        pack_b(&bt, k, n, &mut buf);
        for kk in 0..k {
            for j in 0..n {
                assert_eq!(buf[packed_index(kk, j, k, n)], bt[j * k + kk], "({kk},{j})");
            }
        }
    }

    #[test]
    fn pack_a_transposed_matches_naive() {
        let (m, k) = (71, 45);
        let at = fill(9, m * k); // stored [k, m]
        let mut buf = Vec::new();
        pack_a_transposed(&at, m, k, &mut buf);
        for i in 0..m {
            for kk in 0..k {
                assert_eq!(buf[i * k + kk], at[kk * m + i]);
            }
        }
    }

    #[test]
    fn tiled_rows_match_direct_rows_packed_and_in_place() {
        let (m, k, n) = (MC + MR + 1, KC + 5, NC + NR + 3);
        let a = fill(1, m * k);
        let b = fill(2, k * n);
        let mut direct = vec![0.0; m * n];
        direct_rows(&a, &b, false, false, m, k, n, &mut direct);
        let mut in_place = vec![0.0; m * n];
        tiled_rows(&a, &b, false, k, n, 0, &mut in_place);
        assert_eq!(in_place, direct, "tiles over the unpacked B diverged");
        let mut bt = vec![0.0; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut bp = Vec::new();
        pack_b(&bt, k, n, &mut bp);
        let mut packed = vec![0.0; m * n];
        tiled_rows(&a, &bp, true, k, n, 0, &mut packed);
        assert_eq!(packed, direct, "tiles over the packed B diverged");
    }
}
