//! Packed, cache-blocked, SIMD-friendly matmul kernels.
//!
//! Every transpose variant of [`crate::Tensor::matmul`] funnels into the
//! same packed inner loop: the operands are first brought into plain
//! row-major layout — a transposed `A` is transposed once into an `[m, k]`
//! scratch buffer, and `B` (transposed or not) is packed once per call into
//! contiguous [`KC`]`×`[`NC`] panels — and then a register-blocked
//! [`MR`]`×`[`NR`] microkernel sweeps cache-sized tiles. The microkernel's
//! inner loop is a contiguous `f32` multiply-add over [`NR`] output
//! columns, a shape LLVM autovectorizes on any `-C target-cpu` without
//! `core::arch` intrinsics.
//!
//! # Bit-exactness contract
//!
//! Each output element accumulates its `k` terms **in ascending order on a
//! single accumulator chain** — across panel (`KC`) boundaries, across
//! tile shapes, and across any row partitioning of the output. The packed
//! path, the [`direct_rows`] fallback for small products, and the four
//! transpose variants therefore all produce bit-identical results for
//! every non-NaN output (finite values, ±Inf and -0.0 exact), and agree
//! exactly on *which* outputs are NaN: no term is ever skipped, so
//! `0 × NaN`/`0 × ∞` poison the output exactly as IEEE 754 dictates — see
//! the zero-skip regression tests in `tensor.rs`. The one thing left
//! unspecified is the *payload* of a NaN produced when two NaNs meet in an
//! add: IEEE 754 lets either operand's payload win and LLVM freely
//! commutes `fadd` operands, so payload selection differs between
//! compilations of the same chain. Tests compare NaN-canonicalized bits.
//!
//! # Counters
//!
//! * `tensor.matmul.pack.calls` / `.bytes` — packed-path calls and bytes
//!   staged into pack buffers (deterministic functions of the shape).
//! * `tensor.matmul.kernel.macs` — multiply-accumulates actually executed
//!   by the kernels, summed from loop trip counts. With the zero-skip bug
//!   removed this equals the nominal `m·k·n` of `tensor.matmul.flops / 2`
//!   (asserted by `tests/flops_accounting.rs`).
//! * `tensor.matmul.kernel.tiles` — microkernel invocations. Tile counts
//!   depend on how rows were chunked across threads, so this one is
//!   observability-only (never a hard bench metric).
//! * `tensor.matmul.kernel.direct` — calls that took the direct path
//!   (small or one-row products) instead of packing.

use crate::tensor::scratch;

/// Microkernel register-block height (output rows per tile).
pub const MR: usize = 4;
/// Microkernel register-block width (output columns per tile); the inner
/// loop is a contiguous `f32` fused multiply-add over `NR` lanes.
pub const NR: usize = 16;
/// Row cache-block: rows of `A` kept hot in L1/L2 per panel sweep.
pub const MC: usize = 64;
/// Depth cache-block: `k` extent of one packed `B` panel.
pub const KC: usize = 128;
/// Column cache-block: `n` extent of one packed `B` panel (`KC·NC` floats
/// ≈ 64 KiB, sized so a panel stays L2-resident across an `MC` row sweep).
pub const NC: usize = 128;

/// Minimum multiply-accumulates (`m·k·n`) before a call pays for packing;
/// below this the direct per-variant loops win. One-row products
/// (`m == 1`, e.g. the per-step output projection of beam decoding) take
/// the direct loops at any size: packing would copy all of `B` to use
/// each element once.
pub const PACK_MIN_MACS: usize = 1 << 13;

/// Packs `b` (logical `[k, n]`, stored `[k, n]` or transposed `[n, k]`)
/// into contiguous panels: for each `NC`-column block, each `KC`-depth
/// block is stored as a row-major `kc_len × nc_len` panel. The panel
/// holding `(k0, j0)` starts at `jc·k + pc·nc_len` where `jc`/`pc` are the
/// block origins — see [`packed_index`] for the element-level inverse.
pub fn pack_b(b: &[f32], trans_b: bool, ak: usize, bn: usize, buf: &mut Vec<f32>) {
    buf.clear();
    buf.resize(ak * bn, 0.0);
    let mut jc = 0;
    while jc < bn {
        let nc_len = NC.min(bn - jc);
        let mut pc = 0;
        while pc < ak {
            let kc_len = KC.min(ak - pc);
            let base = jc * ak + pc * nc_len;
            if trans_b {
                // b is [n, k] row-major: columns of the logical B are
                // contiguous source rows, so read j-major for locality.
                for j in 0..nc_len {
                    let src = &b[(jc + j) * ak + pc..(jc + j) * ak + pc + kc_len];
                    for (p, &v) in src.iter().enumerate() {
                        buf[base + p * nc_len + j] = v;
                    }
                }
            } else {
                for p in 0..kc_len {
                    let src = &b[(pc + p) * bn + jc..(pc + p) * bn + jc + nc_len];
                    buf[base + p * nc_len..base + (p + 1) * nc_len].copy_from_slice(src);
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
/// a [`pack_b`] panel buffer `bp`. Row partitioning is free: every row
/// sweeps the same global `jc`/`pc` blocks, so results do not depend on
/// which chunk a row lands in.
pub fn packed_rows(
    a_eff: &[f32],
    bp: &[f32],
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
            let base = jc * ak + pc * nc_len;
            let panel = &bp[base..base + kc_len * nc_len];
            let mut ic = 0;
            while ic < rows {
                let mc_len = MC.min(rows - ic);
                let mut ir = 0;
                while ir < mc_len {
                    let mr_len = MR.min(mc_len - ir);
                    let row0 = ic + ir;
                    micro(
                        &a_eff[(r0 + row0) * ak + pc..],
                        ak,
                        panel,
                        kc_len,
                        nc_len,
                        &mut chunk[row0 * bn + jc..],
                        bn,
                        mr_len,
                    );
                    tiles += 1;
                    ir += MR;
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

/// The register-blocked microkernel: accumulates a `mr_len × nc_len` tile
/// of `C += A · panel` over `kc_len` depth steps. `a` points at the first
/// row's `k`-slice (rows `a_stride` apart), `c` at the tile's first output
/// row (rows `c_stride` apart). The full-tile fast path keeps an
/// `MR × NR` accumulator block in registers; the inner `j` loop is
/// contiguous and autovectorizes.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro(
    a: &[f32],
    a_stride: usize,
    panel: &[f32],
    kc_len: usize,
    nc_len: usize,
    c: &mut [f32],
    c_stride: usize,
    mr_len: usize,
) {
    let mut j0 = 0;
    while j0 < nc_len {
        let nr_len = NR.min(nc_len - j0);
        if mr_len == MR && nr_len == NR {
            let mut acc = [[0.0f32; NR]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&c[r * c_stride + j0..r * c_stride + j0 + NR]);
            }
            for p in 0..kc_len {
                let brow = &panel[p * nc_len + j0..p * nc_len + j0 + NR];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = a[r * a_stride + p];
                    for (o, &bv) in row.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                c[r * c_stride + j0..r * c_stride + j0 + NR].copy_from_slice(row);
            }
        } else {
            // Edge tile: same ascending-k single-chain accumulation, just
            // without the fixed-size register block.
            for r in 0..mr_len {
                for p in 0..kc_len {
                    let av = a[r * a_stride + p];
                    let brow = &panel[p * nc_len + j0..p * nc_len + j0 + nr_len];
                    let crow = &mut c[r * c_stride + j0..r * c_stride + j0 + nr_len];
                    for (o, &bv) in crow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        j0 += NR;
    }
}

/// Runs the packed path for one whole matmul call: packs the operands
/// once, then sweeps [`packed_rows`] either serially or split by output
/// row across the rayon pool. `out` must be zeroed, `parallel` decided by
/// the caller (it owns the dispatch counters).
#[allow(clippy::too_many_arguments)]
pub fn matmul_packed(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    out: &mut [f32],
    parallel: bool,
    rows_per: usize,
) {
    use rayon::prelude::*;
    let mut bp = scratch::take();
    pack_b(b, trans_b, ak, bn, &mut bp);
    let mut packed_bytes = bp.len() * std::mem::size_of::<f32>();
    let mut ap = None;
    if trans_a {
        let mut buf = scratch::take();
        pack_a_transposed(a, am, ak, &mut buf);
        packed_bytes += buf.len() * std::mem::size_of::<f32>();
        ap = Some(buf);
    }
    wb_obs::counter!("tensor.matmul.pack.calls");
    wb_obs::counter!("tensor.matmul.pack.bytes", packed_bytes as u64);
    let a_eff: &[f32] = ap.as_deref().unwrap_or(a);
    if parallel {
        out.par_chunks_mut(rows_per * bn).enumerate().for_each(|(ci, chunk)| {
            packed_rows(a_eff, &bp, ak, bn, ci * rows_per, chunk);
        });
    } else {
        packed_rows(a_eff, &bp, ak, bn, 0, out);
    }
    scratch::put(bp);
    if let Some(buf) = ap {
        scratch::put(buf);
    }
}

/// Computes output rows `r0 .. r0 + chunk.len()/bn` of the product into
/// `chunk` (which must be zeroed) directly from the unpacked operands —
/// the reference path for small products and [`crate::Tensor::matmul_serial`].
/// For every transpose combination the per-element accumulation order is
/// `k` ascending on a single chain and **no term is ever skipped** (a
/// zero-skip here once converted `0 × NaN` into `0`, masking NaN poisoning
/// from the paths the NaN-rollback guard watches), so any row partitioning
/// of the output yields bit-identical results — including non-finite ones.
#[allow(clippy::too_many_arguments)]
pub fn direct_rows(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    match (trans_a, trans_b) {
        (false, false) => {
            for (ri, orow) in chunk.chunks_mut(bn).enumerate() {
                let i = r0 + ri;
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
            for (ri, orow) in chunk.chunks_mut(bn).enumerate() {
                let i = r0 + ri;
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
            for (ri, orow) in chunk.chunks_mut(bn).enumerate() {
                let i = r0 + ri;
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
            for (ri, orow) in chunk.chunks_mut(bn).enumerate() {
                let i = r0 + ri;
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
    let rows = chunk.len() / bn;
    wb_obs::counter!("tensor.matmul.kernel.macs", (rows * ak * bn) as u64);
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
    fn pack_b_round_trips_straight_and_transposed() {
        // Odd sizes exercise edge panels in both block dimensions.
        let (k, n) = (KC + 37, NC + 21);
        let b = fill(3, k * n);
        let mut buf = Vec::new();
        pack_b(&b, false, k, n, &mut buf);
        for kk in 0..k {
            for j in 0..n {
                assert_eq!(buf[packed_index(kk, j, k, n)], b[kk * n + j], "({kk},{j})");
            }
        }
        // Transposed source: b_t[j, k] must land at the same logical slot.
        let mut bt = vec![0.0; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut buf_t = Vec::new();
        pack_b(&bt, true, k, n, &mut buf_t);
        assert_eq!(buf, buf_t, "packing B and Bᵀ must agree element-wise");
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
    fn packed_rows_matches_direct_rows() {
        let (m, k, n) = (MC + MR + 1, KC + 5, NC + NR + 3);
        let a = fill(1, m * k);
        let b = fill(2, k * n);
        let mut bp = Vec::new();
        pack_b(&b, false, k, n, &mut bp);
        let mut packed = vec![0.0; m * n];
        packed_rows(&a, &bp, k, n, 0, &mut packed);
        let mut direct = vec![0.0; m * n];
        direct_rows(&a, &b, false, false, m, k, n, 0, &mut direct);
        assert_eq!(packed, direct, "packed and direct kernels diverged");
    }
}
