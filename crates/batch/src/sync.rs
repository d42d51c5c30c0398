//! Shared state between threads, in the only shapes the workspace uses
//! (DESIGN.md §14.3): [`Lock`] over a `std::sync::Mutex`, and the two
//! atomic kinds, [`Flag`] and [`Counter`], whose orderings are part of
//! the type. `clippy.toml`'s `disallowed-types` keeps raw atomics out of
//! every other module, so a bare `SeqCst` or a `Relaxed` flag cannot be
//! written.
//!
//! No lock is taken while another is held, and none is held across a
//! write. Debug builds check both: each thread counts the guards it
//! holds, [`Lock::lock`] asserts the count is zero, and the output
//! writers call [`assert_no_lock_held`] before they write. Release
//! builds carry neither check.
#![expect(
    clippy::disallowed_types,
    reason = "the one module that wraps the raw atomics"
)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(debug_assertions)]
thread_local! {
    /// The [`Lock`] guards this thread holds.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Panics in a debug build when this thread holds a [`Lock`]'s guard.
/// The output writers call it before they write: a write may wait on
/// the reader for as long as the reader likes, and every other thread
/// that wants the lock would wait with it.
#[inline]
pub fn assert_no_lock_held() {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        assert_eq!(held.get(), 0, "a write while this thread holds a lock");
    });
}

/// One guard in this thread's count; a zero-sized nothing in release
/// builds.
#[derive(Debug)]
struct Held;

impl Held {
    fn acquire() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            assert_eq!(
                held.get(),
                0,
                "a lock taken while this thread holds another: no lock nests"
            );
            held.set(held.get() + 1);
        });
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() - 1));
    }
}

/// A mutex with the workspace's poisoning policy. A lock is poisoned
/// only when a panic escaped per-document containment while its guard
/// was held, so the state behind it may be torn: taking it then panics
/// too, and the batch or the connection goes down rather than serve
/// that state. [`into_inner`](Self::into_inner), at teardown, returns
/// `None` instead, so the owner can report what was lost.
#[derive(Debug, Default)]
pub struct Lock<T>(Mutex<T>);

impl<T> Lock<T> {
    /// A lock over `value`.
    pub const fn new(value: T) -> Self {
        Lock(Mutex::new(value))
    }

    /// Blocks until this thread holds the lock.
    ///
    /// # Panics
    ///
    /// When the lock is poisoned (see the type), and in a debug build
    /// when this thread already holds a lock.
    pub fn lock(&self) -> Guard<'_, T> {
        let held = Held::acquire();
        #[expect(clippy::expect_used, reason = "the poisoning policy of `Lock`")]
        let inner = self.0.lock().expect("a lock holder panicked");
        Guard { inner, held }
    }

    /// The value, or `None` when the lock is poisoned.
    pub fn into_inner(self) -> Option<T> {
        self.0.into_inner().ok()
    }
}

/// A held [`Lock`]: the value behind it, until the guard drops.
#[derive(Debug)]
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    held: Held,
}

impl<T> Guard<'_, T> {
    /// Parks on `cv` until it is notified, giving the lock up meanwhile.
    ///
    /// # Panics
    ///
    /// When the lock is poisoned while parked (see [`Lock`]).
    #[must_use]
    pub fn wait(self, cv: &Condvar) -> Self {
        let Guard { inner, held } = self;
        #[expect(clippy::expect_used, reason = "the poisoning policy of `Lock`")]
        let inner = cv.wait(inner).expect("a lock holder panicked");
        Guard { inner, held }
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A flag one thread sets for others to see. A store is `Release` and a
/// load `Acquire`: a reader that sees the flag set also sees what its
/// setter wrote before setting it.
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A flag with `value`.
    pub const fn new(value: bool) -> Self {
        Flag(AtomicBool::new(value))
    }

    /// Whether the flag is set.
    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sets the flag to `value`.
    #[inline]
    pub fn set(&self, value: bool) {
        self.0.store(value, Ordering::Release);
    }
}

/// A count or gauge that no reader orders other memory by, so every
/// access is `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at `value`.
    pub const fn new(value: u64) -> Self {
        Counter(AtomicU64::new(value))
    }

    /// Adds `n` and returns the value before.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn locks_taken_one_after_another_are_fine() {
        let (a, b) = (Lock::new(1), Lock::new(2));
        let one = *a.lock();
        let mut two = b.lock();
        *two += one;
        drop(two);
        let one = *a.lock();
        assert_eq!(one + *b.lock(), 4);
        assert_no_lock_held();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no lock nests")]
    fn a_second_lock_while_one_is_held_panics() {
        let (a, b) = (Lock::new(1), Lock::new(2));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a write while this thread holds a lock")]
    fn a_write_under_a_held_guard_panics() {
        let a = Lock::new(1);
        let mut out = Vec::new();
        let _a = a.lock();
        crate::render(&mut out, b"", &crate::Matches::Count(1)).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_count_survives_a_panic_under_a_guard() {
        let lock = Arc::new(Lock::new(0));
        let held = Arc::clone(&lock);
        let died = thread::spawn(move || {
            let _g = held.lock();
            assert_no_lock_held();
        })
        .join();
        assert!(died.is_err());
        assert!(Arc::try_unwrap(lock).unwrap().into_inner().is_none());
        // This thread never held the poisoned lock.
        assert_no_lock_held();
    }

    #[test]
    fn a_waiting_guard_gives_the_lock_up() {
        let shared = Arc::new((Lock::new(false), Condvar::new()));
        let other = Arc::clone(&shared);
        let setter = thread::spawn(move || {
            *other.0.lock() = true;
            other.1.notify_all();
        });
        let mut ready = shared.0.lock();
        while !*ready {
            ready = ready.wait(&shared.1);
        }
        drop(ready);
        setter.join().unwrap();
        assert_no_lock_held();
    }

    #[test]
    fn a_flag_set_in_one_thread_is_seen_in_another() {
        let flag = Arc::new(Flag::new(false));
        let counter = Arc::new(Counter::new(0));
        let (f, c) = (Arc::clone(&flag), Arc::clone(&counter));
        let setter = thread::spawn(move || {
            c.add(7);
            f.set(true);
        });
        while !flag.get() {
            thread::yield_now();
        }
        setter.join().unwrap();
        assert_eq!(counter.get(), 7);
        flag.set(false);
        assert!(!flag.get());
    }

    #[test]
    fn counters_add_subtract_and_set() {
        let counter = Arc::new(Counter::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(counter.get(), 4000);
        assert_eq!(counter.add(5), 4000);
        counter.sub(5);
        assert_eq!(counter.get(), 4000);
        counter.set(3);
        assert_eq!(counter.get(), 3);
    }
}
