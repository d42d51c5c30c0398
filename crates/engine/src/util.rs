//! Checks of the scalar probe the main loop and skip-to-label use to find
//! the atomic value after a `:` or `,`; the probe itself is
//! [`StructuralIterator::value_after`], so a streamed document can refill
//! while it looks.

#[cfg(test)]
mod tests {
    use rsq_classify::StructuralIterator;
    use rsq_simd::Simd;

    fn value_start_after(input: &[u8], pos: usize) -> Option<usize> {
        StructuralIterator::new(input, Simd::detect()).value_after(pos)
    }

    #[test]
    fn value_start_finds_atoms_only() {
        assert_eq!(value_start_after(b": 42", 0), Some(2));
        assert_eq!(value_start_after(b", \"x\"", 0), Some(2));
        assert_eq!(value_start_after(b": {", 0), None);
        assert_eq!(value_start_after(b",]", 0), None);
        assert_eq!(value_start_after(b":", 0), None);
    }
}
