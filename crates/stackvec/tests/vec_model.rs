//! Differential test: `StackVec` must behave exactly like `Vec` under a
//! random sequence of operations, across the spill boundary. Case `n`
//! draws its operations from `StdRng::seed_from_u64(n)`, so a failure
//! names the seed that replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_stackvec::StackVec;

/// Few cases under Miri, which interprets every one.
const CASES: u64 = if cfg!(miri) { 8 } else { 256 };

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Truncate(usize),
    Clear,
}

#[test]
fn behaves_like_vec() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let ops: Vec<Op> = (0..rng.gen_range(0..200))
            .map(|_| match rng.gen_range(0..8) {
                0..=3 => Op::Push(rng.gen()),
                4..=5 => Op::Pop,
                6 => Op::Truncate(rng.gen_range(0..12)),
                _ => Op::Clear,
            })
            .collect();
        let mut sv: StackVec<u32, 4> = StackVec::new();
        let mut model: Vec<u32> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let what = format!("case {case}, op {i} of {ops:?}");
            match *op {
                Op::Push(x) => {
                    sv.push(x);
                    model.push(x);
                }
                Op::Pop => assert_eq!(sv.pop(), model.pop(), "{what}"),
                Op::Truncate(n) => {
                    sv.truncate(n);
                    model.truncate(n);
                }
                Op::Clear => {
                    sv.clear();
                    model.clear();
                }
            }
            assert_eq!(sv.as_slice(), model.as_slice(), "{what}");
            assert_eq!(sv.len(), model.len(), "{what}");
            assert_eq!(sv.last(), model.last(), "{what}");
        }
    }
}

#[test]
fn collects_like_vec() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let items: Vec<u32> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
        let sv: StackVec<u32, 8> = items.iter().copied().collect();
        assert_eq!(sv.as_slice(), items.as_slice(), "case {case}");
        assert_eq!(sv.spilled(), items.len() > 8, "case {case}: {items:?}");
    }
}
