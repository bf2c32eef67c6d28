"""
Host-speed reference: timings rescaled to a fixed machine speed.

The shared VMs this benchmark runs on change speed by up to 1.8x for
stretches of seconds to minutes, with no steal time shown, so two runs of
the same code made a few minutes apart can differ by more than a
regression bound.  A fixed reference kernel, part of the benchmark and
never of the program, is timed next to every op and every set-up; each
timing is then rescaled to the speed at which the kernel takes
REFERENCE_S.  The kernel is plain interpreter work (integer arithmetic,
dict stores).  On the VM below, over 170 s of each workload with the kernel
timed before every op, log(op time) followed log(kernel time) with a slope
of 1.0 on derivs-3d-scatter and atlas-transport and 0.7 on cli-grid-tiles,
and rescaling each op by the kernel timings around it cut the spread of
5-8 s window medians by 2.5-5x.  A change
in the program does not touch the kernel, so it shows in full.
"""

import gc
import statistics
import time

# The kernel's median time on a 2-vCPU x86-64 VM (CPython 3.11, numpy 2.4)
# in its fast stretches, so that rescaled figures read as that VM's
# milliseconds.
REFERENCE_S = 0.65e-3
# Reference timings around an op that its rescaling averages: the op's own
# and this many on each side.  A narrow window follows the host's speed
# changes closely; on recorded runs, windows of 3 to 5 timings gave the
# steadiest 90th percentiles, and 9 or 17 blurred the changes.
NEIGHBOURS = 2


def _kernel():
    total, table = 0, {}
    for i in range(7500):
        total += (i * i) % 7
        table[i & 63] = total
    return total


def time_reference():
    """Seconds the reference kernel takes now.  Garbage collection is off
    while it runs, so that the program's heap does not enter its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds, references):
    """`seconds` measured while the reference kernel took `references`
    (seconds, their mean counts), rescaled to reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(references)


def rescale(times, references):
    """
    Each of `times` (seconds) at reference speed, using the reference
    timings within NEIGHBOURS of it; `references[i]` was taken next to
    `times[i]`.
    """
    return [
        at_reference_speed(t, references[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
        for i, t in enumerate(times)
    ]
