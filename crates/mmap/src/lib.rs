//! Zero-copy input for rsq: read-only, private memory maps (DESIGN.md §15).
//!
//! The engine consumes plain `&[u8]`; for large inputs the dominant
//! startup cost is copying the file through a read loop into a heap
//! buffer. Mapping the file instead hands the engine the page cache
//! directly — no copy, no allocation proportional to the input — which
//! is worth a double-digit percentage of end-to-end latency on cold
//! multi-hundred-megabyte runs and makes `--batch-dir` ingestion
//! allocation-free. [`Mapping`] is the one mmap wrapper: a read-only
//! window of a file from any offset. [`load`] maps a whole file as the
//! window at 0; a streamed run over a file (stdin redirected from one)
//! maps one window at a time, each of its own, so that it holds a
//! window's pages and not the file's.
//!
//! Input that cannot be mapped — a pipe, `--mmap off`, a file below the
//! threshold — has to be copied, and then the cost is where the bytes
//! land: a fresh heap buffer takes one page fault per 4 KiB. [`Region`]
//! is the landing place for the copies of whole documents: one growable
//! anonymous mapping, backed by huge pages once it is large enough to
//! fill them, which the read loop (`rsq-engine`'s ingest, generic over
//! [`Landing`]) fills in place.
//!
//! This is one of the audited kernel crates (with `rsq-simd`,
//! `rsq-stackvec` and `rsq-perf`): the workspace-wide
//! `unsafe_code = "forbid"` is lifted here and every unsafe block carries
//! its proof obligation next to the code, which the crate's `[lints]`
//! table makes clippy check. The unsafe surface is
//! deliberately tiny: four raw syscalls (`mmap`, `munmap`, `mremap`,
//! `madvise` — issued via `asm!` so the workspace keeps its
//! no-external-dependency rule; there is no libc) and the
//! `slice::from_raw_parts` views over what they return.
//!
//! Mapping is attempted only on `x86_64`-Linux; everywhere else — and on
//! any syscall failure, empty files, or unstatable paths — [`load`]
//! falls back to `std::fs::read` and [`Region`] to a `Vec<u8>`, so
//! callers never observe a behavioral difference, only a performance one.
//! A caller of [`Mapping::of_file`] gets the error and picks its own
//! fallback.
//!
//! # The one sharp edge
//!
//! A file-backed mapping is a window onto the file *as it changes*. If
//! another process truncates the file while we read the tail, the load
//! faults (`SIGBUS`) instead of returning short data. This is inherent
//! to `mmap` (every mapping-based reader shares it), holds for a window
//! as for a whole file — so for a redirected stdin the CLI maps, too —
//! and is why the CLI exposes `--mmap off`. The safety argument for the `unsafe` blocks
//! below covers memory safety of the mapping itself — pointer validity,
//! length, lifetime — not concurrent-truncation signals, which are a
//! process-level liveness hazard, not UB.

// Exterior tier (DESIGN.md §14.2): outside the `catch_unwind` boundary,
// a panic or an unchecked index is a crash; every site says why it
// cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason,
    clippy::indexing_slicing
)]

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// File-size threshold for [`MapPolicy::Auto`]: mapping has a fixed
/// syscall + page-table cost, so tiny files are cheaper to read into a
/// buffer. 1 MiB keeps every catalog dataset on the mapped path while
/// unit-test fixtures stay buffered.
pub const AUTO_THRESHOLD: u64 = 1 << 20;

/// How [`load`] decides between mapping and buffered reading; mirrors
/// the CLI's `--mmap auto|on|off` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MapPolicy {
    /// Map files of at least [`AUTO_THRESHOLD`] bytes, read smaller ones.
    #[default]
    Auto,
    /// Always attempt to map (still falls back on unsupported targets
    /// or syscall failure — `On` is a preference, not a guarantee).
    On,
    /// Never map; plain `std::fs::read`.
    Off,
}

impl MapPolicy {
    /// Whether the policy maps `len` bytes: never under `Off`, nothing
    /// empty (`mmap` rejects length 0), and under `Auto` nothing below
    /// [`AUTO_THRESHOLD`], which is not worth the page-table set-up.
    pub fn maps(self, len: u64) -> bool {
        match self {
            MapPolicy::Auto => len >= AUTO_THRESHOLD,
            MapPolicy::On => len > 0,
            MapPolicy::Off => false,
        }
    }

    /// Parses a CLI flag value. Returns `None` for anything but
    /// `auto`, `on`, or `off`.
    pub fn parse(text: &str) -> Option<MapPolicy> {
        match text {
            "auto" => Some(MapPolicy::Auto),
            "on" => Some(MapPolicy::On),
            "off" => Some(MapPolicy::Off),
            _ => None,
        }
    }
}

/// An input document: a private read-only mapping of a file, an owned
/// heap buffer, or the [`Region`] a copy was ingested into. All deref to
/// `&[u8]`, so engines and sinks never care which they got.
pub struct MmapInput {
    repr: Repr,
}

enum Repr {
    Mapped(Mapping),
    Buffered(Vec<u8>),
    Region(Region),
}

impl MmapInput {
    /// Wraps an already-materialized buffer (stdin, tests, network).
    pub fn from_vec(bytes: Vec<u8>) -> MmapInput {
        MmapInput {
            repr: Repr::Buffered(bytes),
        }
    }

    /// True when the bytes are the file's own pages, mapped, rather than
    /// a copy of them. Observability only — behavior is identical either
    /// way.
    pub fn is_mapped(&self) -> bool {
        match self.repr {
            Repr::Mapped(_) => true,
            Repr::Buffered(_) | Repr::Region(_) => false,
        }
    }

    /// The input bytes, however they are backed.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Mapped(mapping) => mapping,
            Repr::Buffered(bytes) => bytes,
            Repr::Region(region) => region,
        }
    }
}

impl From<Region> for MmapInput {
    /// Wraps a document that was ingested into a [`Region`].
    fn from(region: Region) -> MmapInput {
        MmapInput {
            repr: Repr::Region(region),
        }
    }
}

impl Deref for MmapInput {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for MmapInput {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Loads `path` under `policy`. Mapping failures of any kind degrade to
/// a buffered read; only the buffered read's own I/O errors surface.
pub fn load(path: &Path, policy: MapPolicy) -> io::Result<MmapInput> {
    if let Some(input) = map(path, policy) {
        return Ok(input);
    }
    Ok(MmapInput::from_vec(std::fs::read(path)?))
}

/// Attempts *only* the mapping half of [`load`]: `None` when the policy,
/// target, file size, or kernel declines. For callers with their own
/// buffered path (the CLI's hardened chunked reader) that must stay
/// byte-for-byte identical when no mapping happens.
pub fn map(path: &Path, policy: MapPolicy) -> Option<MmapInput> {
    if policy == MapPolicy::Off {
        return None;
    }
    let file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    if !policy.maps(len) {
        return None;
    }
    let mapping = Mapping::of_file(&file, 0, usize::try_from(len).ok()?).ok()?;
    Some(MmapInput {
        repr: Repr::Mapped(mapping),
    })
}

/// Where a document that has to be copied lands: a growable byte buffer
/// that a read loop fills in place. The loop keeps the count of bytes
/// filled so far; the buffer keeps those bytes, hands out room after
/// them, and at the end forgets the room that was never filled.
pub trait Landing: Default {
    /// The writable room after the first `filled` bytes — grown first if
    /// it is shorter than `min`, and possibly longer than `min`. The room
    /// is initialised memory of unspecified content; the first `filled`
    /// bytes are as earlier calls left them.
    fn tail(&mut self, filled: usize, min: usize) -> &mut [u8];

    /// Ends filling: the buffer now is exactly its first `filled` bytes.
    fn finish(&mut self, filled: usize);
}

impl Landing for Vec<u8> {
    fn tail(&mut self, filled: usize, min: usize) -> &mut [u8] {
        // `len` is the zeroed extent, kept at most `min` ahead of the
        // data: every byte is zeroed once, and capacity the document never
        // reaches is never touched (so never resident).
        let need = filled.saturating_add(min);
        if self.len() < need {
            self.resize(need, 0);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the resize above keeps len >= need >= filled"
        )]
        &mut self[filled..]
    }

    fn finish(&mut self, filled: usize) {
        self.truncate(filled);
    }
}

/// A growable landing place for one copied document: an anonymous
/// mapping that `mremap` grows (doubling) and that is advised onto huge
/// pages once it spans one, so a large copy costs one page fault per
/// 2 MiB instead of one per 4 KiB while a small document never pays for
/// a huge page. Fresh anonymous pages read as zero, which is what makes
/// the unfilled tail a sound `&mut [u8]` with no memset.
///
/// Off `x86_64`-Linux, and from the moment any syscall fails, the bytes
/// live in a `Vec<u8>` instead; callers cannot tell except by the clock.
#[derive(Default)]
pub struct Region {
    repr: RegionRepr,
}

enum RegionRepr {
    /// The first `len` bytes of the mapping are the document.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped { map: AnonMapping, len: usize },
    /// No mapping: none asked for yet (the vector has no capacity), none
    /// on this target, or the kernel declined one.
    Heap(Vec<u8>),
}

impl Default for RegionRepr {
    fn default() -> Self {
        RegionRepr::Heap(Vec::new())
    }
}

impl Region {
    /// Makes sure `min` bytes of room follow the first `filled`: maps or
    /// grows the mapping, or — when the kernel declines — moves what is
    /// there into a heap buffer, which `tail` then grows.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn make_room(&mut self, filled: usize, min: usize) {
        let need = filled.saturating_add(min);
        match &mut self.repr {
            RegionRepr::Heap(bytes) if bytes.capacity() == 0 => {
                if let Some(map) = AnonMapping::new(grown_capacity(0, need)) {
                    self.repr = RegionRepr::Mapped { map, len: 0 };
                }
            }
            RegionRepr::Mapped { map, .. } if map.cap < need => {
                if !map.grow(grown_capacity(map.cap, need)) {
                    #[expect(clippy::indexing_slicing, reason = "as_slice is `cap` bytes long")]
                    let kept = map.as_slice()[..filled.min(map.cap)].to_vec();
                    self.repr = RegionRepr::Heap(kept);
                }
            }
            RegionRepr::Mapped { .. } | RegionRepr::Heap(_) => {}
        }
    }
}

impl Landing for Region {
    fn tail(&mut self, filled: usize, min: usize) -> &mut [u8] {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        self.make_room(filled, min);
        match &mut self.repr {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            #[expect(
                clippy::indexing_slicing,
                reason = "make_room left a mapping of cap >= filled + min, or moved to the heap"
            )]
            RegionRepr::Mapped { map, .. } => &mut map.as_mut_slice()[filled..],
            RegionRepr::Heap(bytes) => bytes.tail(filled, min),
        }
    }

    fn finish(&mut self, filled: usize) {
        match &mut self.repr {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            RegionRepr::Mapped { map, len } => *len = filled.min(map.cap),
            RegionRepr::Heap(bytes) => bytes.truncate(filled),
        }
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({} bytes)", self.len())
    }
}

impl Deref for Region {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.repr {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            #[expect(
                clippy::indexing_slicing,
                reason = "`finish` never sets len past the mapping's cap"
            )]
            RegionRepr::Mapped { map, len } => &map.as_slice()[..*len],
            RegionRepr::Heap(bytes) => bytes,
        }
    }
}

/// A [`Region`]'s first mapping: what one 64 KiB read needs, twice over.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const REGION_MIN: usize = 128 * 1024;

/// The x86_64 huge-page size: from here on a mapping is advised onto
/// huge pages and sized in multiples of one.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const HUGE_PAGE: usize = 2 << 20;

/// The capacity to map next: double `cap` (so growth is amortised),
/// at least `need`, rounded up to whole pages — huge ones once that
/// large, since the kernel aligns only such mappings to them.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn grown_capacity(cap: usize, need: usize) -> usize {
    let want = need.max(cap.saturating_mul(2)).max(REGION_MIN);
    let page = if want >= HUGE_PAGE { HUGE_PAGE } else { 4096 };
    want.saturating_add(page - 1) / page * page
}

/// A live `PROT_READ|PROT_WRITE` anonymous private mapping, owned
/// uniquely. Constructing one is the only way to obtain a non-null
/// `ptr`; `Drop` unmaps exactly once.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct AnonMapping {
    /// Page-aligned base of the mapping; never null, valid for reads and
    /// writes of `cap` bytes until `Drop` runs.
    ptr: *mut u8,
    /// Exact mapped length, a whole number of pages.
    cap: usize,
}

// SAFETY: the mapping is private to this process and owned uniquely by
// this value (the pointer is never cloned out); writes go through
// `&mut self` only. Moving it across threads or sharing `&self` is as
// safe as for a `Vec<u8>`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Send for AnonMapping {}

// SAFETY: see the `Send` impl above — `&self` hands out only `&[u8]`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Sync for AnonMapping {}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl AnonMapping {
    /// Maps `cap` zero bytes, or `None` if the kernel refuses
    /// (`RLIMIT_AS`, overcommit policy, …).
    fn new(cap: usize) -> Option<AnonMapping> {
        if cap == 0 || !kernel_allows() {
            return None;
        }
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // needs no descriptor (`fd` is -1 as the ABI asks) and touches no
        // existing memory of this process; `cap > 0`. The kernel returns a
        // fresh zero-filled region valid for `cap` bytes or an error,
        // which `sys::mmap` reports as `Err`.
        let ptr = unsafe {
            sys::mmap(
                cap,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        }
        .ok()?;
        let mut map = AnonMapping { ptr, cap: 0 };
        map.resized(cap);
        Some(map)
    }

    /// Grows the mapping to `cap` bytes, contents kept, new bytes zero;
    /// the mapping may move. `false` (and no change) if the kernel
    /// refuses.
    fn grow(&mut self, cap: usize) -> bool {
        debug_assert!(cap > self.cap, "grow only grows");
        if !kernel_allows() {
            return false;
        }
        // SAFETY: `(ptr, self.cap)` is exactly the live mapping this value
        // owns, and `&mut self` proves no slice into it is alive, so the
        // kernel moving it invalidates no reachable reference. On success
        // the old range is gone and the returned one is valid for `cap`
        // bytes (old contents first, zero pages after); on failure the
        // old mapping is untouched.
        match unsafe { sys::mremap(self.ptr, self.cap, cap) } {
            Ok(ptr) => {
                self.ptr = ptr;
                self.resized(cap);
                true
            }
            Err(_) => false,
        }
    }

    /// Records the new capacity, and asks for huge pages the first time it
    /// spans one: the advice sticks to the mapping through later growth.
    fn resized(&mut self, cap: usize) {
        if self.cap < HUGE_PAGE && cap >= HUGE_PAGE {
            // SAFETY: `(ptr, cap)` is the live mapping this value owns.
            // The advice changes how the kernel backs it, never its
            // contents; a refusal (THP off) is harmless, so the result is
            // ignored.
            unsafe { sys::madvise(self.ptr, cap, sys::MADV_HUGEPAGE) };
        }
        self.cap = cap;
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for reads of `cap` bytes until `Drop`
        // (which takes `&mut self`, so no borrow outlives it), every byte
        // of an anonymous mapping is initialised (zero until written), and
        // `cap` is far below `isize::MAX`. Writers need `&mut self`, so
        // nothing mutates the bytes while this borrow lives.
        unsafe { std::slice::from_raw_parts(self.ptr, self.cap) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as `as_slice`, plus: the mapping is writable
        // (`PROT_WRITE`), private, and `&mut self` makes this the only
        // live view of it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.cap) }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for AnonMapping {
    fn drop(&mut self) {
        // SAFETY: `(ptr, cap)` is exactly the mapping `mmap`/`mremap` last
        // returned to this value and it has not been unmapped — `Drop`
        // runs once and no other path calls `munmap`. The struct is gone
        // after this line, so the dangling `ptr` is never read.
        unsafe { sys::munmap(self.ptr, self.cap) };
    }
}

/// Whether a [`Region`] may ask the kernel for (more) mapping: always,
/// except in this crate's unit tests, which count down to a forced
/// refusal here to exercise the heap fallback.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn kernel_allows() -> bool {
    #[cfg(test)]
    if !tests::region_syscall_allowed() {
        return false;
    }
    true
}

/// The x86_64 page size: `mmap` maps from file offsets that are a
/// multiple of it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const PAGE: usize = 4096;

/// A private read-only mapping of the bytes `[offset, offset + len)` of a
/// file: its page cache, seen in place. The one mmap wrapper of the crate
/// — [`load`] maps a whole file as the window at 0, and a streamed run
/// maps one window of a file at a time, each of its own, so that what a
/// run holds is bounded by the window, not the file. `offset` need not
/// be page-aligned: the pages around the window are mapped and only the
/// window is shown. A window of 0 bytes maps nothing.
///
/// Off `x86_64`-Linux no window but the empty one can be made.
///
/// The pointer and the length sit in the order of a slice reference's, so
/// that a reader holding either kind of window reads it from one place.
#[repr(C)]
pub struct Mapping {
    /// The window's first byte, `offset % PAGE` bytes into a page-aligned
    /// region a successful `mmap` returned, valid for that many bytes
    /// plus `len` until `Drop` runs; dangling (and never read) when `len`
    /// is 0.
    ptr: *const u8,
    /// The window's length.
    len: usize,
}

// SAFETY: the mapping is PROT_READ and MAP_PRIVATE — no thread can write
// through it, and we hand out only `&[u8]`. Ownership of the region is
// unique to this value (the pointer is never cloned out), so moving it
// across threads or sharing shared references is as safe as for a
// `Vec<u8>`.
unsafe impl Send for Mapping {}

// SAFETY: see the `Send` impl above — read-only region, shared access
// only through `&[u8]`.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `len` bytes of `file` from `offset` read-only. Fails with the
    /// kernel's error (a descriptor not open for reading, exotic
    /// filesystems, `RLIMIT_AS`, …), and with `Unsupported` off
    /// `x86_64`-Linux.
    pub fn of_file(file: &File, offset: u64, len: usize) -> io::Result<Mapping> {
        if len == 0 {
            return Ok(Mapping {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            });
        }
        Mapping::map_pages(file, offset, len)
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn map_pages(file: &File, offset: u64, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let offset = usize::try_from(offset).map_err(|_| io::ErrorKind::InvalidInput)?;
        let pad = offset % PAGE;
        let span = len.checked_add(pad).ok_or(io::ErrorKind::InvalidInput)?;
        // SAFETY: `fd` is a valid open descriptor for the duration of the
        // call (we hold `&File`), `span > 0`, and the request is PROT_READ
        // + MAP_PRIVATE at the page-aligned `offset - pad` — the kernel
        // either returns a fresh region valid for `span` bytes or an
        // error, which `sys::mmap` reports as `Err`.
        let base = unsafe {
            sys::mmap(
                span,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                offset - pad,
            )
        }
        .map_err(io::Error::from_raw_os_error)?;
        Ok(Mapping {
            ptr: base.wrapping_add(pad).cast_const(),
            len,
        })
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn map_pages(_file: &File, _offset: u64, _len: usize) -> io::Result<Mapping> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

impl Deref for Mapping {
    type Target = [u8];

    #[inline(always)]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for reads of `len` bytes until `Drop`
        // (which takes `&mut self`, so no `&[u8]` borrow can outlive it):
        // it came from a successful `mmap` of the window, or it is a
        // dangling, aligned pointer and `len` is 0. `len` is far below
        // `isize::MAX`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mapping({} bytes)", self.len)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if self.len > 0 {
            let pad = self.ptr as usize % PAGE;
            // SAFETY: `ptr - pad` and `len + pad` are exactly the base and
            // length `mmap` returned in `map_pages` (its base is page-aligned,
            // so `pad` is the window's offset into it), and the region has
            // not been unmapped — `Drop` runs once and no other code path
            // calls `munmap`. After this line the struct is gone, so the
            // dangling `ptr` is never read.
            unsafe { sys::munmap(self.ptr.wrapping_sub(pad), self.len + pad) };
        }
    }
}

/// Raw x86_64-Linux syscalls. No libc: the workspace builds offline
/// with zero external crates, so the four calls we need are issued
/// directly via the `syscall` instruction per the kernel ABI (args in
/// rdi/rsi/rdx/r10/r8/r9, number in rax, result in rax, rcx/r11
/// clobbered; errors are returned as `-errno` in `-4095..=-1`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::arch::asm;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const SYS_MREMAP: usize = 25;
    const SYS_MADVISE: usize = 28;
    pub(crate) const PROT_READ: usize = 1;
    pub(crate) const PROT_WRITE: usize = 2;
    pub(crate) const MAP_PRIVATE: usize = 2;
    pub(crate) const MAP_ANONYMOUS: usize = 0x20;
    pub(crate) const MADV_HUGEPAGE: usize = 14;
    const MREMAP_MAYMOVE: usize = 1;

    /// Largest `-errno` the kernel returns; anything in
    /// `-4095..=-1` is an error code, anything else a valid address.
    const ERRNO_MAX: isize = 4095;

    /// The address or `-errno` a mapping syscall left in `rax`.
    fn address(ret: isize) -> Result<*mut u8, i32> {
        if (-ERRNO_MAX..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// `mmap(NULL, len, prot, flags, fd, offset)`.
    ///
    /// # Safety
    ///
    /// `len` must be non-zero and `flags` must not contain `MAP_FIXED`;
    /// unless `flags` contains `MAP_ANONYMOUS` (then `fd` is -1 and
    /// `offset` 0), `fd` must be an open descriptor that allows `prot`,
    /// and `offset` a multiple of the page size. On `Ok`, the
    /// returned pointer is page-aligned and valid for `len` bytes of
    /// `prot` access until passed to [`munmap`] or [`mremap`]; the caller
    /// owns the region and must unmap it exactly once.
    pub(crate) unsafe fn mmap(
        len: usize,
        prot: usize,
        flags: usize,
        fd: i32,
        offset: usize,
    ) -> Result<*mut u8, i32> {
        let ret: isize;
        // SAFETY: a kernel-chosen-address mapping request (no `MAP_FIXED`,
        // per the contract above) touches no existing memory of this
        // process; the asm matches the syscall ABI exactly (six args,
        // rcx/r11 declared clobbered) and the preconditions on
        // `fd`/`len` are the caller's contract above.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MMAP as isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") prot,
                in("r10") flags,
                in("r8") fd as isize,
                in("r9") offset,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        address(ret)
    }

    /// `mremap(ptr, old_len, new_len, MREMAP_MAYMOVE)`.
    ///
    /// # Safety
    ///
    /// `(ptr, old_len)` must be exactly a live private mapping returned by
    /// [`mmap`] or an earlier `mremap`, with no reference into it alive;
    /// `new_len` must be non-zero. On `Ok` the old range is unmapped (if
    /// the mapping moved) and the returned pointer is valid for `new_len`
    /// bytes under the same protection — the first `min(old, new)` bytes
    /// carried over, any growth zero-filled — with the ownership
    /// obligations of [`mmap`]. On `Err` the old mapping is unchanged.
    pub(crate) unsafe fn mremap(
        ptr: *mut u8,
        old_len: usize,
        new_len: usize,
    ) -> Result<*mut u8, i32> {
        let ret: isize;
        // SAFETY: per this function's contract the old range is a live
        // mapping we own with no outstanding references, so resizing or
        // moving it invalidates nothing reachable; without `MREMAP_FIXED`
        // the kernel picks any new address itself, so no other memory of
        // this process is touched. Asm per the syscall ABI as in `mmap`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MREMAP as isize => ret,
                in("rdi") ptr,
                in("rsi") old_len,
                in("rdx") new_len,
                in("r10") MREMAP_MAYMOVE,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        address(ret)
    }

    /// `madvise(ptr, len, advice)`, result ignored.
    ///
    /// # Safety
    ///
    /// `(ptr, len)` must lie within a live mapping the caller owns, and
    /// `advice` must be one that leaves the contents alone (such as
    /// [`MADV_HUGEPAGE`]).
    pub(crate) unsafe fn madvise(ptr: *mut u8, len: usize, advice: usize) {
        let _ret: isize;
        // SAFETY: non-destructive advice on a range we own (the contract
        // above) changes no byte any reference can observe; asm per the
        // syscall ABI as in `mmap`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MADVISE as isize => _ret,
                in("rdi") ptr,
                in("rsi") len,
                in("rdx") advice,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }

    /// `munmap(ptr, len)`.
    ///
    /// # Safety
    ///
    /// `(ptr, len)` must be exactly a region returned by [`mmap`] or
    /// [`mremap`] that has not been unmapped yet; no reference into the
    /// region may be used afterwards.
    pub(crate) unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ret: isize;
        // SAFETY: per this function's contract the region is a live
        // mapping we own, so removing it invalidates no reachable
        // reference; asm per the syscall ABI as in `mmap` above. The
        // result is ignored — on a valid region munmap cannot fail,
        // and in `Drop` there is nothing to do about it anyway.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP as isize => _ret,
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique temp file that cleans up on drop; no tempfile crate in
    /// the offline workspace.
    struct TempFile(PathBuf);

    impl TempFile {
        fn with_bytes(bytes: &[u8]) -> TempFile {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "rsq-mmap-test-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let mut file = File::create(&path).expect("create temp file");
            file.write_all(bytes).expect("write temp file");
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn forced_map_matches_buffered_read() {
        let content: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let tmp = TempFile::with_bytes(&content);
        let mapped = load(&tmp.0, MapPolicy::On).expect("load mapped");
        let buffered = load(&tmp.0, MapPolicy::Off).expect("load buffered");
        assert_eq!(&*mapped, &content[..]);
        assert_eq!(&*buffered, &content[..]);
        assert!(!buffered.is_mapped());
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(mapped.is_mapped(), "On maps on the supported target");
    }

    #[test]
    fn auto_policy_buffers_small_and_maps_large() {
        let small = TempFile::with_bytes(b"{\"a\": 1}");
        let loaded = load(&small.0, MapPolicy::Auto).expect("load small");
        assert_eq!(&*loaded, b"{\"a\": 1}");
        assert!(!loaded.is_mapped(), "below AUTO_THRESHOLD stays buffered");

        let big_bytes = vec![b'x'; AUTO_THRESHOLD as usize + 1];
        let big = TempFile::with_bytes(&big_bytes);
        let loaded = load(&big.0, MapPolicy::Auto).expect("load large");
        assert_eq!(loaded.len(), big_bytes.len());
        assert_eq!(&*loaded, &big_bytes[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(loaded.is_mapped(), "at threshold Auto maps");
    }

    #[test]
    fn empty_file_degrades_to_buffered() {
        let tmp = TempFile::with_bytes(b"");
        let loaded = load(&tmp.0, MapPolicy::On).expect("load empty");
        assert!(loaded.is_empty());
        assert!(!loaded.is_mapped(), "zero-length files cannot be mapped");
    }

    #[test]
    fn missing_file_reports_the_read_error() {
        let path = std::env::temp_dir().join("rsq-mmap-test-definitely-missing");
        assert!(load(&path, MapPolicy::On).is_err());
        assert!(load(&path, MapPolicy::Off).is_err());
    }

    #[test]
    fn windows_show_exactly_their_bytes_from_any_offset() {
        let content = pattern(3 * 4096 + 123);
        let tmp = TempFile::with_bytes(&content);
        let file = File::open(&tmp.0).expect("open temp file");
        for (offset, len) in [
            (0, 1),
            (1, 4095),
            (4095, 2),
            (4096, 4096),
            (5000, 7000),
            (0, 0),
        ] {
            let window = Mapping::of_file(&file, offset as u64, len);
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            assert_eq!(&*window.expect("maps"), &content[offset..offset + len]);
            #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
            assert_eq!(window.is_ok(), len == 0);
        }
    }

    #[test]
    fn many_mappings_map_and_unmap_cleanly() {
        let content = vec![b'y'; 200_000];
        let tmp = TempFile::with_bytes(&content);
        for _ in 0..64 {
            let loaded = load(&tmp.0, MapPolicy::On).expect("load");
            assert_eq!(loaded.len(), content.len());
            assert_eq!(loaded[0], b'y');
            assert_eq!(loaded[content.len() - 1], b'y');
        }
    }

    #[test]
    fn from_vec_and_policy_parse() {
        let input = MmapInput::from_vec(b"[1,2,3]".to_vec());
        assert_eq!(input.as_ref(), b"[1,2,3]");
        assert!(!input.is_mapped());
        assert_eq!(MapPolicy::parse("auto"), Some(MapPolicy::Auto));
        assert_eq!(MapPolicy::parse("on"), Some(MapPolicy::On));
        assert_eq!(MapPolicy::parse("off"), Some(MapPolicy::Off));
        assert_eq!(MapPolicy::parse("maybe"), None);
        assert_eq!(MapPolicy::default(), MapPolicy::Auto);
    }

    thread_local! {
        /// How many more mapping syscalls a `Region` on this thread may
        /// make before the kernel "refuses" (see `kernel_allows`).
        static REGION_SYSCALLS_LEFT: std::cell::Cell<usize> =
            const { std::cell::Cell::new(usize::MAX) };
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(super) fn region_syscall_allowed() -> bool {
        REGION_SYSCALLS_LEFT.with(|left| {
            let n = left.get();
            left.set(n.saturating_sub(1));
            n > 0
        })
    }

    /// Fills a landing the way the ingest loop does — `step` bytes of
    /// `data` per pass into a tail of at least `min` — checking on every
    /// pass that what was filled is intact and the room beyond is zero.
    fn fill<B: Landing + Deref<Target = [u8]>>(data: &[u8], step: usize, min: usize) -> B {
        let mut buf = B::default();
        let mut filled = 0;
        for piece in data.chunks(step) {
            let tail = buf.tail(filled, min);
            assert!(tail.len() >= min && min >= piece.len());
            assert!(tail.iter().all(|&b| b == 0), "room at {filled} is zero");
            tail[..piece.len()].copy_from_slice(piece);
            filled += piece.len();
            // Growth (an `mremap`, possibly moving) keeps the contents.
            buf.tail(filled, min);
            buf.finish(filled);
            assert!(*buf == data[..filled], "contents after {filled} bytes");
        }
        buf.finish(filled);
        buf
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8 + 1).collect()
    }

    #[test]
    fn region_contents_survive_every_growth_and_the_tail_is_zero() {
        // 5 MiB in 48 KiB steps: the first mapping, five doublings below
        // the huge-page size, the advice at 2 MiB, two doublings above.
        let data = pattern(5 << 20);
        let region: Region = fill(&data, 48 * 1024, 64 * 1024);
        assert!(*region == data[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(
            matches!(&region.repr, RegionRepr::Mapped { map, .. } if map.cap == 8 << 20),
            "5 MiB lands in a mapping doubled to 8 MiB"
        );
        // The heap landing obeys the same contract.
        let heap: Vec<u8> = fill(&data[..300_000], 7_777, 64 * 1024);
        assert_eq!(heap, &data[..300_000]);
        let input = MmapInput::from(region);
        assert!(!input.is_mapped(), "a copy, not the file's pages");
        assert!(*input == data[..]);
    }

    #[test]
    fn empty_region_is_an_empty_slice() {
        assert!(Region::default().is_empty());
        let mut region = Region::default();
        region.finish(0);
        assert!(region.is_empty());
        // Room was handed out but nothing arrived (an empty stdin).
        assert!(region.tail(0, 4096).len() >= 4096);
        region.finish(0);
        assert!(region.is_empty());
        assert!(MmapInput::from(region).is_empty());
    }

    #[test]
    fn region_crosses_threads() {
        let data = pattern(3 << 20);
        let region: Region = fill(&data, 1 << 20, 1 << 20);
        let shared = std::sync::Arc::new(MmapInput::from(region));
        let sums: Vec<u64> = (0..2)
            .map(|_| {
                let input = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || input.iter().map(|&b| u64::from(b)).sum::<u64>())
            })
            .map(|handle| handle.join().expect("thread joins"))
            .collect();
        let want: u64 = data.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(sums, [want, want]);
    }

    /// Whatever syscall the kernel refuses — the first `mmap` or any later
    /// `mremap` — the region carries on in a `Vec`, contents intact.
    #[test]
    fn refused_syscalls_degrade_the_region_to_a_vec() {
        let data = pattern(1 << 20);
        for allowed in 0..7 {
            REGION_SYSCALLS_LEFT.with(|left| left.set(allowed));
            let region: Region = fill(&data, 40_000, 64 * 1024);
            REGION_SYSCALLS_LEFT.with(|left| left.set(usize::MAX));
            assert!(*region == data[..], "{allowed} syscalls allowed");
            // 1 MiB and its 64 KiB of room: 128 KiB mapped, doubled four times.
            let heap = matches!(region.repr, RegionRepr::Heap(_));
            let supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
            assert_eq!(
                heap,
                !supported || allowed < 5,
                "{allowed} syscalls allowed"
            );
        }
    }

    /// Mapped input must be consumable from another thread (the batch
    /// layer fans documents out to workers).
    #[test]
    fn mapped_input_crosses_threads() {
        let content = vec![b'z'; 150_000];
        let tmp = TempFile::with_bytes(&content);
        let loaded = load(&tmp.0, MapPolicy::On).expect("load");
        let handle = std::thread::spawn(move || loaded.iter().map(|&b| b as u64).sum::<u64>());
        let sum = handle.join().expect("thread joins");
        assert_eq!(sum, content.len() as u64 * u64::from(b'z'));
    }
}
