//! Instruction counts that the neighbours cannot move (DESIGN.md §16):
//! [`step`] runs a command to its exit under `ptrace(PTRACE_SINGLESTEP)`
//! and counts its user-mode steps, the iterations of `rep`-prefixed
//! string instructions apart. A kernel crate without libc, like
//! `rsq-mmap`: its syscalls are issued via `asm!`.

#![warn(missing_docs)]
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

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::process::Command;

/// What one stepped run executed in user mode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Steps {
    /// Instructions retired, a `rep`-prefixed string instruction once.
    pub instructions: u64,
    /// The further iterations of `rep`-prefixed string instructions.
    pub string_iterations: u64,
    /// Instructions by the address they ran at; empty unless asked for.
    pub sites: HashMap<u64, u64>,
    /// The address the executable's first mapping was loaded at (0 if
    /// it was not found), which turns a site into an offset in the file.
    pub exe_base: u64,
}

/// Why a command could not be metered.
#[derive(Debug)]
pub enum MeterError {
    /// Single-stepping is implemented for x86_64 Linux only.
    Unavailable,
    /// The command did not start, or a tracing request failed.
    Io(io::Error),
    /// The command cloned a thread or a process.
    Cloned,
    /// The command exited with this status (128 + the signal that
    /// killed it).
    Exit(i32),
}

impl fmt::Display for MeterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeterError::Unavailable => f.write_str("single-stepping needs x86_64 Linux"),
            MeterError::Io(e) => write!(f, "{e}"),
            MeterError::Cloned => f.write_str("the command started another thread or process"),
            MeterError::Exit(status) => write!(f, "the command exited with status {status}"),
        }
    }
}

impl std::error::Error for MeterError {}

impl From<io::Error> for MeterError {
    fn from(e: io::Error) -> Self {
        MeterError::Io(e)
    }
}

/// What the meter needs to know of the instruction at an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Insn {
    /// A `rep`-prefixed `ins`, `outs`, `movs`, `cmps`, `stos`, `lods` or
    /// `scas`.
    RepString,
    /// `syscall`.
    Syscall,
    Other,
}

/// Decodes the instruction that starts with `bytes`, past any legacy and
/// REX prefixes.
fn decode(bytes: [u8; 8]) -> Insn {
    let mut rep = false;
    for b in bytes {
        match b {
            0xf2 | 0xf3 => rep = true,
            0x26 | 0x2e | 0x36 | 0x3e | 0x64..=0x67 | 0xf0 | 0x40..=0x4f => {}
            0x6c..=0x6f | 0xa4..=0xa7 | 0xaa..=0xaf if rep => return Insn::RepString,
            0x0f if bytes.starts_with(&[0x0f, 0x05]) => return Insn::Syscall,
            _ => return Insn::Other,
        }
    }
    Insn::Other
}

/// Runs `command` to its exit, single-stepping it, and counts what it
/// executed in user mode; with `sites`, also by address. The command
/// keeps the standard streams the caller gave it; of the environment it
/// keeps only the variables the caller set, it runs with address-space
/// randomisation off, and what `getrandom` gives it is zeroed (std's
/// `HashMap` seeds), so that it does the same work every time. The
/// calling thread is left pinned to the CPU it ran on. A `rep`-prefixed
/// string instruction stops after every iteration at the same address:
/// those steps go to [`Steps::string_iterations`], so that a `memset`
/// does not pose as work.
///
/// # Errors
///
/// [`MeterError`]: the command did not start, cloned a thread or a
/// process (whose steps would go uncounted), or did not exit with status
/// 0, or a tracing request failed; off x86_64-Linux, always
/// [`MeterError::Unavailable`]. The child is killed and reaped on every
/// error.
pub fn step(command: &mut Command, sites: bool) -> Result<Steps, MeterError> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    return linux::step(command, sites);
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    Err(MeterError::Unavailable)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use super::{decode, Insn, MeterError, Steps};
    use std::collections::HashMap;
    use std::os::unix::process::CommandExt;
    use std::process::Command;

    pub(crate) fn step(command: &mut Command, sites: bool) -> Result<Steps, MeterError> {
        let set: Vec<_> = command
            .get_envs()
            .filter_map(|(k, v)| Some((k.to_owned(), v?.to_owned())))
            .collect();
        command.env_clear().envs(set);
        // SAFETY: the hook runs in the forked child before `execve`, and
        // makes two raw syscalls and nothing else: it allocates nothing
        // and takes no lock, so it is async-signal-safe.
        unsafe {
            command.pre_exec(|| {
                sys::personality(sys::ADDR_NO_RANDOMIZE)?;
                sys::ptrace(sys::PTRACE_TRACEME, 0, 0, 0)
            });
        }
        // The tracer stays on the CPU it runs on, and the child inherits
        // the mask: a step that wakes no other CPU costs half as much.
        let mut here = sys::CpuMask::default();
        let cpu = sys::getcpu()?;
        if let Some(word) = here.0.get_mut(cpu / 64) {
            *word = 1 << (cpu % 64);
            sys::set_affinity(&here)?;
        }
        // Held to the end: dropping it would close the parent's ends of
        // any pipes the caller set up.
        let child = command.spawn()?;
        let pid = child.id() as i32;
        let mut traced = Traced(Some(pid), None);
        // The child stops at its first instruction, after `execve`.
        sys::wait4(pid)?;
        let options = sys::O_EXITKILL | sys::O_TRACECLONE | sys::O_TRACEFORK | sys::O_TRACEVFORK;
        sys::ptrace(sys::PTRACE_SETOPTIONS, pid, 0, options)?;
        let mut steps = Steps {
            exe_base: exe_base(pid).unwrap_or(0),
            ..Steps::default()
        };
        let mut kinds: HashMap<u64, Insn> = HashMap::new();
        let mut at = sys::peek(sys::PTRACE_PEEKUSER, pid, sys::RIP)?;
        let mut signal = 0;
        loop {
            sys::ptrace(sys::PTRACE_SINGLESTEP, pid, 0, signal)?;
            let status = sys::wait4(pid)?;
            signal = 0;
            if status & 0xff != 0x7f {
                // Exited (low seven bits 0) or killed by a signal.
                traced.0 = None;
                return match (status & 0x7f, (status >> 8) & 0xff) {
                    (0, 0) => Ok(steps),
                    (0, code) => Err(MeterError::Exit(code)),
                    (sig, _) => Err(MeterError::Exit(128 + sig)),
                };
            }
            match ((status >> 8) & 0xff, status >> 16) {
                (sys::SIGTRAP, 0) => {
                    let next = sys::peek(sys::PTRACE_PEEKUSER, pid, sys::RIP)?;
                    let insn = match kinds.get(&at) {
                        Some(&insn) => insn,
                        None => {
                            let text = sys::peek(sys::PTRACE_PEEKTEXT, pid, at)?;
                            *kinds.entry(at).or_insert(decode(text.to_le_bytes()))
                        }
                    };
                    if insn == Insn::Syscall
                        && sys::peek(sys::PTRACE_PEEKUSER, pid, sys::ORIG_RAX)? == sys::GETRANDOM
                    {
                        zero_random(pid)?;
                    }
                    if next == at && insn == Insn::RepString {
                        steps.string_iterations += 1;
                    } else {
                        steps.instructions += 1;
                        if sites {
                            *steps.sites.entry(at).or_insert(0) += 1;
                        }
                    }
                    at = next;
                }
                (sys::SIGTRAP, _) => {
                    // A clone, fork or vfork event: the new task is
                    // attached and stopped; it is killed with the child.
                    traced.1 = sys::peek(sys::PTRACE_GETEVENTMSG, pid, 0)
                        .ok()
                        .and_then(|p| i32::try_from(p).ok());
                    return Err(MeterError::Cloned);
                }
                // Any other signal is delivered on the next step.
                (sig, _) => signal = sig as usize,
            }
        }
    }

    /// Zeroes the whole words the `getrandom` call the child just made
    /// wrote.
    fn zero_random(pid: i32) -> std::io::Result<()> {
        let buf = sys::peek(sys::PTRACE_PEEKUSER, pid, sys::RDI)?;
        let written = sys::peek(sys::PTRACE_PEEKUSER, pid, sys::RAX)? as i64;
        for word in 0..written.clamp(0, 1 << 16) as u64 / 8 {
            sys::ptrace(sys::PTRACE_POKEDATA, pid, (buf + 8 * word) as usize, 0)?;
        }
        Ok(())
    }

    /// Where the executable of `pid` starts in its address space: the
    /// first mapping of the file `/proc/PID/exe` names.
    fn exe_base(pid: i32) -> Option<u64> {
        let exe = std::fs::read_link(format!("/proc/{pid}/exe")).ok()?;
        let exe = exe.to_str()?;
        let maps = std::fs::read_to_string(format!("/proc/{pid}/maps")).ok()?;
        let line = maps.lines().find(|line| line.ends_with(exe))?;
        u64::from_str_radix(line.split('-').next()?, 16).ok()
    }

    /// A traced child that is killed and reaped when dropped while it
    /// lives, and a task it cloned, attached and stopped.
    struct Traced(Option<i32>, Option<i32>);

    impl Drop for Traced {
        fn drop(&mut self) {
            // The clone first: a thread-group leader is not reaped before
            // its other threads are.
            let pids = [self.1, self.0];
            for &pid in pids.iter().flatten() {
                sys::kill(pid);
            }
            for &pid in pids.iter().flatten() {
                // A traced task reports its pending stops before its exit.
                while sys::wait4(pid).is_ok_and(|status| status & 0xff == 0x7f) {}
            }
        }
    }

    /// Raw syscalls, issued via the `syscall` instruction per the kernel
    /// ABI (args in rdi/rsi/rdx/r10, number in rax, result in rax, rcx/r11
    /// clobbered; errors come back as `-errno` in `-4095..=-1`).
    mod sys {
        use std::arch::asm;
        use std::io;
        use std::ptr::addr_of_mut;

        const SYS_WAIT4: usize = 61;
        const SYS_KILL: usize = 62;
        const SYS_PTRACE: usize = 101;
        const SYS_PERSONALITY: usize = 135;
        const SCHED_SETAFFINITY: usize = 203;
        const SYS_GETCPU: usize = 309;
        pub(crate) const PTRACE_TRACEME: usize = 0;
        pub(crate) const PTRACE_PEEKTEXT: usize = 1;
        pub(crate) const PTRACE_PEEKUSER: usize = 3;
        pub(crate) const PTRACE_POKEDATA: usize = 5;
        pub(crate) const PTRACE_SINGLESTEP: usize = 9;
        pub(crate) const PTRACE_SETOPTIONS: usize = 0x4200;
        pub(crate) const PTRACE_GETEVENTMSG: usize = 0x4201;
        pub(crate) const O_TRACEFORK: usize = 1 << 1;
        pub(crate) const O_TRACEVFORK: usize = 1 << 2;
        pub(crate) const O_TRACECLONE: usize = 1 << 3;
        pub(crate) const O_EXITKILL: usize = 1 << 20;
        /// Offsets in `struct user_regs_struct`.
        pub(crate) const RAX: u64 = 10 * 8;
        pub(crate) const RDI: u64 = 14 * 8;
        pub(crate) const ORIG_RAX: u64 = 15 * 8;
        pub(crate) const RIP: u64 = 16 * 8;
        pub(crate) const GETRANDOM: u64 = 318;
        pub(crate) const ADDR_NO_RANDOMIZE: usize = 0x0040000;
        pub(crate) const SIGTRAP: i32 = 5;
        const SIGKILL: usize = 9;
        /// `wait4` for clones and children alike.
        const WALL: usize = 0x4000_0000;

        /// A four-argument syscall.
        ///
        /// # Safety
        ///
        /// The kernel may write through a pointer among the arguments
        /// only where the caller made it valid for that write.
        unsafe fn syscall(nr: usize, a: usize, b: usize, c: usize, d: usize) -> io::Result<usize> {
            let ret: isize;
            // SAFETY: the asm matches the syscall ABI (four args, rcx/r11
            // declared clobbered); what the kernel writes is the caller's
            // contract above.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") nr as isize => ret,
                    in("rdi") a,
                    in("rsi") b,
                    in("rdx") c,
                    in("r10") d,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            if (-4095..0).contains(&ret) {
                Err(io::Error::from_raw_os_error(-ret as i32))
            } else {
                Ok(ret as usize)
            }
        }

        /// A `ptrace` request that reads or writes no memory of this
        /// process (`TRACEME`, `SINGLESTEP` with a signal, `SETOPTIONS`).
        pub(crate) fn ptrace(request: usize, pid: i32, addr: usize, data: usize) -> io::Result<()> {
            // SAFETY: these requests take integers only.
            unsafe { syscall(SYS_PTRACE, request, pid as usize, addr, data) }.map(drop)
        }

        /// A `PEEKTEXT`, `PEEKUSER` or `GETEVENTMSG` request: the kernel
        /// stores one word through `data`.
        pub(crate) fn peek(request: usize, pid: i32, addr: u64) -> io::Result<u64> {
            let mut word = 0u64;
            let data = addr_of_mut!(word) as usize;
            // SAFETY: `data` points at a live local word, the one write
            // these requests make.
            unsafe { syscall(SYS_PTRACE, request, pid as usize, addr as usize, data) }?;
            Ok(word)
        }

        /// `wait4(pid, &status, __WALL, NULL)`: the next status of `pid`.
        pub(crate) fn wait4(pid: i32) -> io::Result<i32> {
            let mut status = 0i32;
            let at = addr_of_mut!(status) as usize;
            // SAFETY: the status pointer is a live local; the rusage
            // pointer is null, which the kernel skips.
            unsafe { syscall(SYS_WAIT4, pid as usize, at, WALL, 0) }?;
            Ok(status)
        }

        /// `kill(pid, SIGKILL)`; a task that is already gone is no error
        /// worth reporting.
        pub(crate) fn kill(pid: i32) {
            // SAFETY: takes integers only.
            let _ = unsafe { syscall(SYS_KILL, pid as usize, SIGKILL, 0, 0) };
        }

        /// A set of up to 1 024 CPUs.
        #[derive(Default)]
        pub(crate) struct CpuMask(pub(crate) [u64; 16]);

        /// `sched_setaffinity(0, len, mask)`: the calling thread's CPUs.
        pub(crate) fn set_affinity(mask: &CpuMask) -> io::Result<()> {
            let len = std::mem::size_of::<CpuMask>();
            // SAFETY: the kernel reads at most the `len` bytes of the
            // live mask.
            unsafe {
                syscall(
                    SCHED_SETAFFINITY,
                    0,
                    len,
                    std::ptr::addr_of!(*mask) as usize,
                    0,
                )
            }
            .map(drop)
        }

        /// `getcpu(&cpu, NULL, NULL)`: the CPU the calling thread runs on.
        pub(crate) fn getcpu() -> io::Result<usize> {
            let mut cpu = 0u32;
            let at = addr_of_mut!(cpu) as usize;
            // SAFETY: the kernel writes one `unsigned` to a live local
            // and skips the null node and cache pointers.
            unsafe { syscall(SYS_GETCPU, at, 0, 0, 0) }?;
            Ok(cpu as usize)
        }

        /// `personality(persona)`.
        pub(crate) fn personality(persona: usize) -> io::Result<()> {
            // SAFETY: takes an integer only.
            unsafe { syscall(SYS_PERSONALITY, persona, 0, 0, 0) }.map(drop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{decode, Insn};

    #[test]
    fn prefixes_are_decoded_past() {
        let insn = |bytes: &[u8]| {
            let mut word = [0x90; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            decode(word)
        };
        assert_eq!(insn(&[0xf3, 0xaa]), Insn::RepString); // rep stosb
        assert_eq!(insn(&[0xf3, 0x48, 0xab]), Insn::RepString); // rep stosq
        assert_eq!(insn(&[0x66, 0xf3, 0xa5]), Insn::RepString); // rep movsw
        assert_eq!(insn(&[0xf2, 0xae]), Insn::RepString); // repne scasb
        assert_eq!(insn(&[0xaa]), Insn::Other); // stosb
        assert_eq!(insn(&[0xf3, 0x0f, 0xb8, 0xc0]), Insn::Other); // popcnt
        assert_eq!(insn(&[0xf3, 0xc3]), Insn::Other); // rep ret
        assert_eq!(insn(&[0x0f, 0x05]), Insn::Syscall);
        assert_eq!(insn(&[0x0f, 0x0b]), Insn::Other); // ud2
    }
}
