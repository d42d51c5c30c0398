//! Small scalar helpers shared by the main loop and skip-to-label.

use rsq_classify::first_nonws;

/// The start of the atomic value following a `:` or `,` at `pos`, or
/// `None` when what follows is structural (malformed or empty construct).
#[inline]
pub(crate) fn value_start_after(input: &[u8], pos: usize) -> Option<usize> {
    let v = first_nonws(input, pos + 1)?;
    match input[v] {
        b'{' | b'[' | b'}' | b']' | b',' | b':' => None,
        _ => Some(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_start_finds_atoms_only() {
        assert_eq!(value_start_after(b": 42", 0), Some(2));
        assert_eq!(value_start_after(b", \"x\"", 0), Some(2));
        assert_eq!(value_start_after(b": {", 0), None);
        assert_eq!(value_start_after(b",]", 0), None);
        assert_eq!(value_start_after(b":", 0), None);
    }
}
