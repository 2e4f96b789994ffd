//! Parameter leaves borrow the store: recording one copies nothing onto
//! the tape, its value is the store's own tensor, and gradients still flow
//! through it to the parameter.

use wb_tensor::{Graph, Params, Tensor};

fn store() -> (Params, wb_tensor::ParamId) {
    let mut params = Params::new();
    let data: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
    let w = params.add("w", Tensor::from_vec(&[3, 4], data));
    (params, w)
}

#[test]
fn param_leaf_adds_nothing_to_tape_bytes() {
    let (params, w) = store();
    let mut g = Graph::new(&params, true, 0);
    let x = g.input(Tensor::full(&[2, 3], 1.0));
    let before = g.tape_bytes();
    let wv = g.param(w);
    let again = g.param(w);
    assert_eq!(g.tape_bytes(), before, "parameter leaves must not be copied");
    let y = g.matmul(x, wv);
    let _ = g.matmul(x, again);
    // Only the two [2, 4] products are owned by the tape.
    assert_eq!(g.tape_bytes(), before + 2 * 2 * 4 * std::mem::size_of::<f32>());
    assert_eq!(g.value(y).shape(), &[2, 4]);
}

#[test]
fn param_value_is_the_store_tensor() {
    let (params, w) = store();
    let mut g = Graph::new(&params, false, 0);
    let wv = g.param(w);
    assert!(std::ptr::eq(g.value(wv), params.get(w)));
}

#[test]
fn gradients_reach_a_parameter_used_through_two_leaves() {
    let (params, w) = store();
    let mut g = Graph::new(&params, true, 0);
    let x = g.input(Tensor::full(&[1, 3], 1.0));
    let a = g.param(w);
    let b = g.param(w);
    let ya = g.matmul(x, a);
    let yb = g.matmul(x, b);
    let sum = g.add(ya, yb);
    let loss = g.sum_all(sum);
    let grads = g.backward(loss);
    // d(sum(x·W) + sum(x·W))/dW = 2·xᵀ·1 = 2 everywhere for x = 1.
    assert_eq!(grads.get(w).unwrap().data(), &[2.0; 12]);
}
