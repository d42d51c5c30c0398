//! The quote classifier (§4.2): marks positions inside JSON strings.
//!
//! Per 64-byte block, backslash and quote characters are located with
//! equality masks; *add-carry propagation* finds the characters escaped by
//! odd-length backslash runs (the simdjson algorithm); and the prefix XOR
//! of the unescaped-quote mask marks everything between quotes. Two bits
//! of state carry across block boundaries: whether the block ended inside
//! an odd backslash run and whether it ended inside a string.
//!
//! The mask-level implementation (and its batched superblock kernel) lives
//! in [`rsq_simd`]; this module re-exports the state type and provides the
//! single-block convenience form used by the classifiers in this crate.

use rsq_simd::{Backend, Block};

pub use rsq_simd::QuoteState;

/// Quote classification of one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuoteClassification {
    /// Bit *i* set ⇔ byte *i* is inside a string: from the opening quote
    /// (inclusive) to the matching closing quote (exclusive).
    pub within_quotes: u64,
}

/// Classifies one block, advancing `state` to the end of the block.
#[inline(always)]
#[must_use]
pub fn classify_quotes<B: Backend>(
    backend: B,
    block: &Block,
    state: &mut QuoteState,
) -> QuoteClassification {
    QuoteClassification {
        within_quotes: backend.classify_quotes(block, state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_simd::{Simd, BLOCK_SIZE, SUPERBLOCK_SIZE};

    /// Scalar reference: byte `i` is escaped iff it is directly preceded by
    /// an odd-length maximal backslash run.
    fn scalar_escaped(input: &[u8]) -> Vec<bool> {
        let mut escaped = vec![false; input.len()];
        let mut i = 0;
        while i < input.len() {
            if input[i] == b'\\' && !escaped[i] {
                let mut run = 0;
                while i + run < input.len() && input[i + run] == b'\\' {
                    run += 1;
                }
                for j in 0..run {
                    if j % 2 == 1 {
                        if let Some(e) = escaped.get_mut(i + j) {
                            *e = true;
                        }
                    }
                }
                if run % 2 == 1 {
                    if let Some(e) = escaped.get_mut(i + run) {
                        *e = true;
                    }
                }
                i += run;
            } else {
                i += 1;
            }
        }
        escaped
    }

    /// Scalar reference for the within-string mask.
    fn scalar_within(input: &[u8]) -> Vec<bool> {
        let escaped = scalar_escaped(input);
        let mut within = vec![false; input.len()];
        let mut inside = false;
        for (i, &b) in input.iter().enumerate() {
            if b == b'"' && !escaped[i] {
                inside = !inside;
                within[i] = inside; // opening quote inside, closing outside
            } else {
                within[i] = inside;
            }
        }
        within
    }

    fn run_block_classifier(input: &[u8]) -> Vec<bool> {
        let simd = Simd::detect();
        let mut state = QuoteState::default();
        let mut out = Vec::with_capacity(input.len());
        for chunk in input.chunks(BLOCK_SIZE) {
            let mut block = [0u8; BLOCK_SIZE];
            block[..chunk.len()].copy_from_slice(chunk);
            let q = classify_quotes(simd, &block, &mut state);
            for i in 0..chunk.len() {
                out.push(q.within_quotes >> i & 1 == 1);
            }
        }
        out
    }

    fn run_superblock_classifier(input: &[u8]) -> Vec<bool> {
        let simd = Simd::detect();
        let mut state = QuoteState::default();
        let mut out = Vec::with_capacity(input.len());
        for chunk in input.chunks(SUPERBLOCK_SIZE) {
            let mut sb = [0u8; SUPERBLOCK_SIZE];
            sb[..chunk.len()].copy_from_slice(chunk);
            let (within, after) = simd.classify_quotes4(&sb, &mut state);
            for (i, w) in within.iter().enumerate() {
                for bit in 0..BLOCK_SIZE {
                    let pos = i * BLOCK_SIZE + bit;
                    if pos < chunk.len() {
                        out.push(w >> bit & 1 == 1);
                    }
                }
                let _ = after[i];
            }
        }
        out
    }

    fn check(input: &[u8]) {
        let expected = scalar_within(input);
        assert_eq!(
            run_block_classifier(input),
            expected,
            "block classifier on {:?}",
            String::from_utf8_lossy(input)
        );
        assert_eq!(
            run_superblock_classifier(input),
            expected,
            "superblock kernel on {:?}",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn simple_strings() {
        check(br#"{"a": "hello", "b": [1, "x"]}"#);
    }

    #[test]
    fn escaped_quotes_stay_inside() {
        check(br#""x\"y""#);
        check(br#""a\\" : "b""#);
        check(br#"{"a":"{\"b\":2022}"}"#); // the paper's §2 example
    }

    #[test]
    fn long_backslash_runs() {
        for n in 0..10 {
            let mut v = b"\"".to_vec();
            v.extend(std::iter::repeat_n(b'\\', n));
            v.extend_from_slice(b"\" {}");
            check(&v);
        }
    }

    #[test]
    fn state_carries_across_block_boundary() {
        let mut input = vec![b' '; 60];
        input.extend_from_slice(br#""a string that crosses the block boundary" : 1"#);
        check(&input);
    }

    #[test]
    fn state_carries_across_superblock_boundary() {
        let mut input = vec![b' '; 250];
        input.extend_from_slice(br#""str", ["#);
        input.extend(std::iter::repeat_n(b'x', 300));
        input.extend_from_slice(br#" "tail\"" ]"#);
        check(&input);
    }

    #[test]
    fn backslash_run_across_block_boundary() {
        for pad in 55..70 {
            for run in 1..6 {
                let mut input = vec![b'x'; pad];
                input.push(b'"');
                input.extend(std::iter::repeat_n(b'\\', run));
                input.extend_from_slice(b"\"q\" [,]");
                check(&input);
            }
        }
    }

    #[test]
    fn structural_lookalikes_inside_strings() {
        check(br#"{"s": "a,b:c{d}[e] \" \\ end", "t": 2}"#);
    }

    #[test]
    fn block_of_only_backslashes() {
        let mut input = b"\"".to_vec();
        input.extend(std::iter::repeat_n(b'\\', 130));
        input.extend_from_slice(b"\\\"\" 1");
        check(&input);
    }

    #[test]
    fn superblock_after_states_match_block_states() {
        let simd = Simd::detect();
        let mut input = br#"{"a": ""#.to_vec();
        input.extend(std::iter::repeat_n(b'y', 400));
        input.extend_from_slice(br#"", "b\\": 2}"#);
        input.resize(512, b' ');
        let sb0: &rsq_simd::Superblock = input[..256].try_into().unwrap();
        let sb1: &rsq_simd::Superblock = input[256..512].try_into().unwrap();

        let mut state_batched = QuoteState::default();
        let (_, after0) = simd.classify_quotes4(sb0, &mut state_batched);
        let (_, after1) = simd.classify_quotes4(sb1, &mut state_batched);

        let mut state_single = QuoteState::default();
        let mut afters = Vec::new();
        for chunk in input.chunks(BLOCK_SIZE) {
            let block: &rsq_simd::Block = chunk.try_into().unwrap();
            let _ = classify_quotes(simd, block, &mut state_single);
            afters.push(state_single);
        }
        assert_eq!(&afters[..4], &after0);
        assert_eq!(&afters[4..8], &after1);
    }
}
