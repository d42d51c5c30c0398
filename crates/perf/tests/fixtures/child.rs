//! The children the meter's tests step: `loop N`, `hash N`, `stosb N`,
//! `thread`.
//! Compiled by `tests/meter.rs` with `rustc -O`, linked statically so
//! that start-up does not run the dynamic loader.

use std::hint::black_box;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: u64 = args.get(2).map_or(0, |n| n.parse().unwrap());
    match args[1].as_str() {
        "loop" => {
            let mut x = 0u64;
            for i in 0..n {
                x = black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            black_box(x);
        }
        "hash" => {
            let map: std::collections::HashMap<u64, u64> = (0..n).map(|i| (i, i)).collect();
            black_box(map.get(&(n / 2)));
        }
        "stosb" => {
            let mut buf = vec![0u8; n as usize];
            // SAFETY: `rep stosb` writes `rcx` bytes from `rdi`: the
            // buffer's own length, from its start.
            unsafe {
                std::arch::asm!(
                    "rep stosb",
                    inout("rcx") buf.len() => _,
                    inout("rdi") buf.as_mut_ptr() => _,
                    in("al") 0u8,
                    options(nostack),
                );
            }
            black_box(&buf);
        }
        "thread" => std::thread::spawn(|| black_box(1)).join().map(drop).unwrap(),
        other => panic!("unknown child {other}"),
    }
}
