//! An inline-capacity vector that spills to the heap when it grows large.
//!
//! This crate is a from-scratch substitute for the `smallvec` crate, built
//! for the depth-stack of the `rsq` query engine (see §3.2 of *Supporting
//! Descendants in SIMD-Accelerated JSONPath*, ASPLOS 2023). The paper keeps
//! the depth-stack "on the actual stack of the executing thread as long as it
//! is relatively shallow (less than 128 elements, bounded by 512 bytes)" and
//! moves it to the heap only in the rare cases when it grows larger.
//!
//! [`StackVec<T, N>`] stores up to `N` elements inline (no allocation); the
//! first push beyond `N` moves the contents into a heap-allocated `Vec<T>`,
//! after which the vector behaves like an ordinary `Vec`. The vector never
//! moves back inline — spills are rare and oscillation would thrash.
//!
//! # Examples
//!
//! ```
//! use rsq_stackvec::StackVec;
//!
//! let mut v: StackVec<u32, 4> = StackVec::new();
//! v.push(1);
//! v.push(2);
//! assert_eq!(v.len(), 2);
//! assert!(!v.spilled());
//! v.extend([3, 4, 5]);
//! assert!(v.spilled()); // grew past the inline capacity of 4
//! assert_eq!(v.pop(), Some(5));
//! assert_eq!(&v[..], &[1, 2, 3, 4]);
//! ```

// Contained tier (DESIGN.md §14.2): a panic here is caught as one
// document's `panic` fault, but every site still says why it cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

use core::fmt;
use core::mem::MaybeUninit;
use core::ops::{Deref, DerefMut};

/// A vector with inline storage for up to `N` elements, spilling to the heap
/// beyond that.
///
/// See the [crate-level documentation](crate) for an overview and examples.
pub struct StackVec<T, const N: usize> {
    repr: Repr<T, N>,
}

enum Repr<T, const N: usize> {
    Inline {
        buf: [MaybeUninit<T>; N],
        /// Number of initialized elements in `buf`; invariant: `len <= N`.
        len: usize,
    },
    Heap(Vec<T>),
}

impl<T, const N: usize> StackVec<T, N> {
    /// Creates an empty vector using inline storage.
    ///
    /// # Examples
    ///
    /// ```
    /// let v: rsq_stackvec::StackVec<u8, 16> = rsq_stackvec::StackVec::new();
    /// assert!(v.is_empty());
    /// ```
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        StackVec {
            repr: Repr::Inline {
                // SAFETY: an array of `MaybeUninit` needs no initialization.
                buf: unsafe { MaybeUninit::uninit().assume_init() },
                len: 0,
            },
        }
    }

    /// Returns the number of elements in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Returns `true` if the vector contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` once the contents have moved to the heap.
    ///
    /// A fresh vector is inline; it spills on the first push past `N`
    /// elements and stays spilled from then on.
    #[inline]
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// The inline capacity `N`.
    #[inline]
    pub fn inline_capacity(&self) -> usize {
        N
    }

    /// Appends an element to the back of the vector, spilling to the heap if
    /// the inline buffer is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len < N {
                    buf[*len].write(value);
                    *len += 1;
                } else {
                    self.spill_and_push(value);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    #[cold]
    fn spill_and_push(&mut self, value: T) {
        let mut vec = Vec::with_capacity(N * 2);
        if let Repr::Inline { buf, len } = &mut self.repr {
            // Panic safety: zero `len` *before* moving anything out. If a
            // panic unwound mid-loop with `len` still set, `Drop` for
            // `StackVec` would drop slots whose contents were already
            // moved into `vec` — a double drop. With `len` zeroed first
            // the worst case is a leak of the not-yet-moved tail.
            let count = std::mem::take(len);
            for slot in buf.iter().take(count) {
                // SAFETY: the first `count` slots were initialized (they
                // were within the old `len`), and with `len` now 0 each is
                // read exactly once — nothing else will drop or read them.
                vec.push(unsafe { slot.assume_init_read() });
            }
        }
        vec.push(value);
        self.repr = Repr::Heap(vec);
    }

    /// Removes the last element and returns it, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    // SAFETY: slot `len` was initialized and is now
                    // logically out of bounds, so ownership moves out once.
                    Some(unsafe { buf[*len].assume_init_read() })
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Returns a reference to the last element, or `None` if empty.
    #[inline]
    pub fn last(&self) -> Option<&T> {
        self.as_slice().last()
    }

    /// Returns a mutable reference to the last element, or `None` if empty.
    #[inline]
    pub fn last_mut(&mut self) -> Option<&mut T> {
        self.as_mut_slice().last_mut()
    }

    /// Shortens the vector to `new_len`, dropping excess elements.
    ///
    /// Has no effect if `new_len >= self.len()`.
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                while *len > new_len {
                    *len -= 1;
                    // SAFETY: slot was initialized; drop it in place exactly once.
                    unsafe { buf[*len].assume_init_drop() };
                }
            }
            Repr::Heap(v) => v.truncate(new_len),
        }
    }

    /// Removes all elements.
    #[inline]
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Extracts a slice of the entire vector.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { buf, len } => {
                // SAFETY: the first `len` slots are initialized; MaybeUninit<T>
                // has the same layout as T.
                unsafe { core::slice::from_raw_parts(buf.as_ptr().cast::<T>(), *len) }
            }
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// Extracts a mutable slice of the entire vector.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                // SAFETY: as in `as_slice`, plus we hold `&mut self`.
                unsafe { core::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), *len) }
            }
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Returns an iterator over the elements.
    #[inline]
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> Drop for StackVec<T, N> {
    fn drop(&mut self) {
        // Heap variant drops its Vec normally; inline elements need explicit drops.
        self.clear();
    }
}

impl<T, const N: usize> Default for StackVec<T, N> {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for StackVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for StackVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone, const N: usize> Clone for StackVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = Self::new();
        out.extend(self.iter().cloned());
        out
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for StackVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<StackVec<T, M>> for StackVec<T, N> {
    fn eq(&self, other: &StackVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for StackVec<T, N> {}

impl<T, const N: usize> Extend<T> for StackVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for StackVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a StackVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cell::Cell;

    #[test]
    fn new_is_empty_and_inline() {
        let v: StackVec<i32, 4> = StackVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(!v.spilled());
        assert_eq!(v.inline_capacity(), 4);
    }

    #[test]
    fn push_pop_within_inline() {
        let mut v: StackVec<i32, 4> = StackVec::new();
        v.push(10);
        v.push(20);
        assert_eq!(v.len(), 2);
        assert_eq!(v.last(), Some(&20));
        assert_eq!(v.pop(), Some(20));
        assert_eq!(v.pop(), Some(10));
        assert_eq!(v.pop(), None);
        assert!(!v.spilled());
    }

    #[test]
    fn spills_exactly_past_capacity() {
        let mut v: StackVec<i32, 4> = StackVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        v.push(4);
        assert!(v.spilled());
        assert_eq!(&v[..], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn stays_spilled_after_pops() {
        let mut v: StackVec<i32, 2> = StackVec::new();
        v.extend([1, 2, 3]);
        assert!(v.spilled());
        v.pop();
        v.pop();
        v.pop();
        assert!(v.is_empty());
        assert!(v.spilled());
    }

    #[test]
    fn last_mut_mutates() {
        let mut v: StackVec<i32, 4> = StackVec::new();
        v.push(1);
        *v.last_mut().unwrap() = 7;
        assert_eq!(v.last(), Some(&7));
    }

    #[test]
    fn truncate_and_clear() {
        let mut v: StackVec<i32, 4> = StackVec::new();
        v.extend([1, 2, 3]);
        v.truncate(5); // no-op
        assert_eq!(v.len(), 3);
        v.truncate(1);
        assert_eq!(&v[..], &[1]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn deref_slice_ops_work() {
        let mut v: StackVec<i32, 8> = StackVec::new();
        v.extend([3, 1, 2]);
        v.sort_unstable();
        assert_eq!(&v[..], &[1, 2, 3]);
        assert_eq!(v[1], 2);
    }

    #[test]
    fn clone_and_eq() {
        let mut v: StackVec<i32, 2> = StackVec::new();
        v.extend([1, 2, 3]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn from_iterator_collects() {
        let v: StackVec<i32, 4> = (0..10).collect();
        assert_eq!(v.len(), 10);
        assert!(v.spilled());
    }

    #[test]
    fn debug_is_nonempty() {
        let v: StackVec<i32, 4> = (0..2).collect();
        assert_eq!(format!("{v:?}"), "[0, 1]");
        let e: StackVec<i32, 4> = StackVec::new();
        assert_eq!(format!("{e:?}"), "[]");
    }

    #[test]
    fn works_with_heap_owning_elements() {
        let mut v: StackVec<String, 2> = StackVec::new();
        v.push("a".to_owned());
        v.push("b".to_owned());
        v.push("c".to_owned()); // spill moves the Strings
        assert_eq!(v.as_slice(), ["a", "b", "c"]);
        assert_eq!(v.pop().as_deref(), Some("c"));
    }

    /// Counts drops to verify no element is dropped twice or leaked.
    struct DropCounter<'a>(&'a Cell<usize>);
    impl Drop for DropCounter<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn drops_each_inline_element_once() {
        let drops = Cell::new(0);
        {
            let mut v: StackVec<DropCounter<'_>, 4> = StackVec::new();
            v.push(DropCounter(&drops));
            v.push(DropCounter(&drops));
        }
        assert_eq!(drops.get(), 2);
    }

    #[test]
    fn drops_each_element_once_across_spill() {
        let drops = Cell::new(0);
        {
            let mut v: StackVec<DropCounter<'_>, 2> = StackVec::new();
            for _ in 0..5 {
                v.push(DropCounter(&drops));
            }
            assert!(v.spilled());
            assert_eq!(drops.get(), 0, "spill must move, not drop");
            v.pop();
            assert_eq!(drops.get(), 1);
            v.truncate(1);
            assert_eq!(drops.get(), 4);
        }
        assert_eq!(drops.get(), 5);
    }

    /// Counts drops and optionally panics in `Drop` — exercises the
    /// unwind paths through `truncate`/`Drop` (DESIGN.md §9).
    struct PanicOnDrop<'a> {
        drops: &'a Cell<usize>,
        panics: bool,
    }
    impl Drop for PanicOnDrop<'_> {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
            if self.panics {
                panic!("drop panic");
            }
        }
    }

    /// Regression test: `len` must shrink *before* an element is dropped
    /// or moved out (see `truncate`/`spill_and_push`). If it shrank after,
    /// a panicking `Drop` mid-`truncate` would leave `len` covering the
    /// already-dropped slot and the `StackVec`'s own `Drop` would free it
    /// a second time — counted here as a fourth drop.
    #[test]
    fn unwind_through_truncate_drops_each_element_once() {
        let drops = Cell::new(0);
        let mut v: StackVec<PanicOnDrop<'_>, 4> = StackVec::new();
        v.push(PanicOnDrop {
            drops: &drops,
            panics: false,
        });
        v.push(PanicOnDrop {
            drops: &drops,
            panics: true,
        });
        v.push(PanicOnDrop {
            drops: &drops,
            panics: false,
        });
        let unwound =
            std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| v.truncate(0))).is_err();
        assert!(unwound, "the panicking Drop must propagate");
        drop(v);
        assert_eq!(drops.get(), 3, "each element dropped exactly once");
    }

    #[test]
    fn zero_inline_capacity_spills_immediately() {
        let mut v: StackVec<i32, 0> = StackVec::new();
        v.push(1);
        assert!(v.spilled());
        assert_eq!(&v[..], &[1]);
    }
}
