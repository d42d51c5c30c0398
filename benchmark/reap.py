"""Spawn a command, reap it with wait4, report what only wait4 knows.

usage: reap.py run|until-eof PROGRAM [ARG...]

The harness is safe Rust without a libc crate, and std's `Child::wait`
throws the child's rusage away. This wrapper is the smallest thing that
keeps it: it starts PROGRAM with its own stdin/stdout/stderr, waits, and
appends one line to stderr:

    reaped wall_ns=N cpu_us=N maxrss_kb=N exit=N

wall_ns runs from just before posix_spawn to just after wait4 returns, so
the interpreter's own start-up is outside it. `until-eof` is for servers
that never exit on their own: PROGRAM runs until this wrapper's stdin
reaches EOF, then gets SIGTERM (exit reads -15).

maxrss_kb. A child's `ru_maxrss` starts from the resident set of the
process that spawned it (exec carries the high-water mark over), so in
`run` mode it cannot read below this interpreter's own ~9 MiB; the
harness measures that floor and refuses values at it. `until-eof` can do
better, because the child is still alive when the answer is wanted: it
reports `VmHWM` of /proc/PID/status, read just before the SIGTERM — the
peak of PROGRAM's own address space.
"""
import os
import signal
import sys
import time


def vm_hwm_kb(pid):
    """Peak resident set of a live process; None once it has exited."""
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


mode, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter_ns()
pid = os.posix_spawn(argv[0], argv, os.environ)
hwm_kb = None
if mode == "until-eof":
    while os.read(0, 4096):
        pass
    hwm_kb = vm_hwm_kb(pid)
    os.kill(pid, signal.SIGTERM)
_, status, usage = os.wait4(pid, 0)
wall_ns = time.perf_counter_ns() - start
sys.stderr.write(
    "reaped wall_ns=%d cpu_us=%d maxrss_kb=%d exit=%d\n"
    % (
        wall_ns,
        round((usage.ru_utime + usage.ru_stime) * 1e6),
        usage.ru_maxrss if hwm_kb is None else hwm_kb,
        os.waitstatus_to_exitcode(status),
    )
)
