//! The scratch pool is per thread and publishes its metrics in batches —
//! once per tape drop and once when a thread exits — yet the published
//! figures must stay exact: `tensor.scratch.hit + .miss` is the number of
//! `take` calls, `.bytes_recycled` the capacity handed back, and
//! `.bytes_pooled` the sum over live threads' pools, falling back to where
//! it started once the threads that filled it have exited.
//!
//! The wb-obs registry is process-global, so this file holds a single
//! `#[test]` — its counter deltas must not race with other tests.

use rand::SeedableRng;
use std::sync::Barrier;
use wb_obs::metrics::snapshot;
use wb_tensor::{scratch, Graph, Initializer, ParamId, Params, Tensor};

fn counter(name: &str) -> u64 {
    snapshot().counters.get(name).copied().unwrap_or(0)
}

fn gauge(name: &str) -> f64 {
    snapshot().gauges.get(name).copied().unwrap_or(0.0)
}

const THREADS: usize = 2;
const GRAPHS: u64 = 20;
/// Every tensor below is `[4, 4]`, so every buffer has a capacity of
/// exactly 16 floats.
const BUF_BYTES: u64 = 16 * 4;
/// `scratch::take` calls per graph: `matmul`, `tanh` and `add` each draw
/// one buffer (the input is built with `Tensor::from_vec`).
const TAKES_PER_GRAPH: u64 = 3;
/// Buffers a dropped graph hands back: the input's and the three results;
/// the parameter leaf borrows the store and returns nothing.
const PUTS_PER_GRAPH: u64 = 4;
/// Capacity of the one buffer each thread also returns by hand.
const EXTRA_BYTES: u64 = 100 * 4;

/// Builds and drops `GRAPHS` tapes, waits for the main thread to read the
/// gauges, then makes one direct `take` and `put` that only the thread's
/// exit publishes.
fn work(params: &Params, w: ParamId, checkpoint: &Barrier) {
    for i in 0..GRAPHS {
        let mut g = Graph::new(params, false, 0);
        let x = g.input(Tensor::from_vec(&[4, 4], vec![i as f32 * 0.1; 16]));
        let wv = g.param(w);
        let y = g.matmul(x, wv);
        let z = g.tanh(y);
        let _ = g.add(z, y);
    }
    checkpoint.wait();
    checkpoint.wait();
    drop(scratch::take());
    scratch::put(Vec::with_capacity(100));
}

#[test]
fn batched_pool_metrics_stay_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut params = Params::new();
    let w = params.add_init("w", &[4, 4], Initializer::XavierUniform, &mut rng);

    let hit0 = counter("tensor.scratch.hit");
    let miss0 = counter("tensor.scratch.miss");
    let recycled0 = counter("tensor.scratch.bytes_recycled");
    let pooled0 = gauge("tensor.scratch.bytes_pooled");

    let checkpoint = Barrier::new(THREADS + 1);
    let live = std::thread::scope(|s| {
        let workers: Vec<_> =
            (0..THREADS).map(|_| s.spawn(|| work(&params, w, &checkpoint))).collect();
        checkpoint.wait();
        let live = gauge("tensor.scratch.bytes_pooled") - pooled0;
        checkpoint.wait();
        // Join explicitly: the scope's implicit join can return before a
        // thread's thread-local destructors, and so its pool's exit
        // publish, have run.
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        live
    });
    // While both threads were alive and idle after their last tape drop,
    // each pool held every buffer its graphs returned except those reused
    // (all takes but the first graph's three hit), and the gauge was the
    // sum of both pools.
    let per_thread = GRAPHS * PUTS_PER_GRAPH - (GRAPHS - 1) * TAKES_PER_GRAPH;
    assert_eq!(live, (THREADS as u64 * per_thread * BUF_BYTES) as f64, "live bytes_pooled");

    let takes = THREADS as u64 * (GRAPHS * TAKES_PER_GRAPH + 1);
    let hits = counter("tensor.scratch.hit") - hit0;
    let misses = counter("tensor.scratch.miss") - miss0;
    assert_eq!(hits + misses, takes, "hit + miss must count every take ({hits} + {misses})");

    let returned = THREADS as u64 * (GRAPHS * PUTS_PER_GRAPH * BUF_BYTES + EXTRA_BYTES);
    let recycled = counter("tensor.scratch.bytes_recycled") - recycled0;
    assert_eq!(recycled, returned, "bytes_recycled must equal the capacity returned");

    assert_eq!(
        gauge("tensor.scratch.bytes_pooled"),
        pooled0,
        "exited threads must take their pools out of bytes_pooled"
    );
}
