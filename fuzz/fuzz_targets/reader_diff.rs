//! Differential target: a streamed `exec` over randomized chunk splits must
//! return a byte-identical result to the one-shot slice run — the
//! classifier pipeline's resume handoffs and the memmem head-start must
//! not depend on how the reader fragments the document.
#![no_main]

use libfuzzer_sys::fuzz_target;
use rsq_difftest::Target;

fuzz_target!(|data: &[u8]| {
    if let Err(mismatch) = Target::Reader.check(data) {
        panic!("{mismatch:?}");
    }
});
