//! A fixed reference computation, timed between a run's samples, so that
//! run times can be reported relative to the host's current speed.
//!
//! On a shared host the simulator's speed drifts by up to 1.6× over
//! minutes with other tenants' load, and the drift is the same for meshes
//! of every size. Branchy, queue- and pointer-heavy code shares part of
//! that drift; a tight arithmetic loop hardly any. So the reference is made
//! of that kind of code: a sort, a `BTreeMap` and a ring of `VecDeque`s.
//! It uses only the standard library, never this repository's crates, so
//! no change to the simulator can move it.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

use crate::timed;

/// Xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

const SEED: u64 = 0x0139_408d_cbbf_7a44;

/// Sort 2¹⁸ pseudo-random words.
fn sort() -> u64 {
    let mut x = SEED;
    let mut v: Vec<u64> = (0..1 << 18).map(|_| next(&mut x)).collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Insert 2¹⁶ pseudo-random keys into a `BTreeMap`, then look up as many.
fn btree() -> u64 {
    let mut x = SEED;
    let mut m = BTreeMap::new();
    for i in 0..1u64 << 16 {
        m.insert(next(&mut x) & 0xf_ffff, i);
    }
    (0..1 << 16)
        .filter_map(|_| m.get(&(next(&mut x) & 0xf_ffff)))
        .sum()
}

/// Pass 2²⁰ items between neighbours on a ring of 1024 bounded queues.
fn queues() -> u64 {
    const N: usize = 1024;
    let mut x = SEED;
    let mut ring: Vec<VecDeque<[u64; 4]>> = (0..N)
        .map(|i| (0..16).map(|j| [i as u64, j, 0, 0]).collect())
        .collect();
    for _ in 0..1 << 20 {
        let a = next(&mut x) as usize % N;
        if let Some(mut item) = ring[a].pop_front() {
            item[2] += 1;
            let b = if item[2] & 1 == 0 { (a + 1) % N } else { (a + N - 1) % N };
            let to = if ring[b].len() < 32 { b } else { a };
            ring[to].push_back(item);
        }
    }
    ring.iter().map(|q| q.iter().map(|i| i[2]).sum::<u64>()).sum()
}

/// Host seconds of one pass of the reference computation (≈50 ms here).
pub fn sample() -> f64 {
    timed(|| black_box(sort() ^ btree() ^ queues())).0
}
