//! `tensor.matmul.flops` must equal the multiply-accumulates the kernels
//! actually execute. The old nn/tn loops skipped `av == 0.0` terms, so the
//! counter reported nominal `2·m·k·n` while the executed work was
//! data-dependent — letting `wb bench` hard-counter gating drift silently.
//! After the kernel rewrite every term runs, and the kernels count their own
//! loop trips into `tensor.matmul.kernel.macs`; the two must agree exactly.
//!
//! The wb-obs registry is process-global, so this file holds a single
//! `#[test]` — its counter deltas must not race with other tests.

use wb_obs::metrics::snapshot;
use wb_tensor::Tensor;

fn counter(name: &str) -> u64 {
    snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn flops_counter_equals_executed_macs() {
    // Zero-laced inputs: under the old zero-skip, executed MACs would fall
    // short of nominal on exactly these (≈1/17 of fill values are zero, plus
    // a forced zero row). Mixed shapes cover products that pack their
    // transposed operands (large, beyond PACK_MIN_MACS), the direct loops
    // (small transposed products), an encoder-shaped product (its `nn`
    // variant must tile the unpacked B in place, packing nothing), a
    // one-row product above PACK_MIN_MACS (the decoder's 1×52×606 output
    // projection, which must never pack: packing all of B to use it once
    // costs more than the product) and all four variants.
    let one_row = (1, 52, 606);
    const _: () = assert!(52 * 606 >= wb_tensor::kernels::PACK_MIN_MACS);
    let encoder = (124, 125, 20);
    let large = (150, 130, 140);
    let shapes: &[(usize, usize, usize)] = &[(3, 5, 4), (40, 64, 48), large, encoder, one_row];
    let mut nominal_macs = 0u64;
    let (flops0, macs0) =
        (counter("tensor.matmul.flops"), counter("tensor.matmul.kernel.macs"));
    for &(m, k, n) in shapes {
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let (direct0, pack0) =
                (counter("tensor.matmul.kernel.direct"), counter("tensor.matmul.pack.calls"));
            let a_shape = if ta { [k, m] } else { [m, k] };
            let b_shape = if tb { [n, k] } else { [k, n] };
            let mut av: Vec<f32> =
                (0..m * k).map(|i| ((i % 17) as f32 - 8.0) * 0.125).collect();
            av[..a_shape[1]].fill(0.0); // a zero row the old skip would elide
            let bv: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
            let a = Tensor::from_vec(&a_shape, av);
            let b = Tensor::from_vec(&b_shape, bv);
            std::hint::black_box(a.matmul(&b, ta, tb));
            nominal_macs += (m * k * n) as u64;
            let direct = counter("tensor.matmul.kernel.direct") - direct0;
            let packed = counter("tensor.matmul.pack.calls") - pack0;
            if (m, k, n) == one_row {
                assert_eq!((direct, packed), (1, 0), "one-row ({ta}, {tb}) must not pack");
            }
            if !ta && !tb {
                assert_eq!((direct, packed), (1, 0), "{m}×{k}×{n} nn must not pack");
            }
            if (m, k, n) == large && (ta || tb) {
                assert_eq!((direct, packed), (0, 1), "large ({ta}, {tb}) must pack");
            }
        }
    }
    let flops = counter("tensor.matmul.flops") - flops0;
    let macs = counter("tensor.matmul.kernel.macs") - macs0;
    assert_eq!(
        macs, nominal_macs,
        "kernels executed a different MAC count than the shapes imply"
    );
    assert_eq!(flops, 2 * macs, "tensor.matmul.flops must be exactly 2 × executed MACs");
}
