"""Host speed meter: a light probe that runs beside a timed phase.

    python3 perfbench/meter.py OUT [CPU]

Pinned to ``CPU`` when one is given, the meter runs a fixed mix of
small NumPy calls and Python loops (about 3 ms of CPU time) every
:data:`INTERVAL_S` seconds, which costs that CPU about 5% of its time.
It prints ``ready`` once it has started.  On SIGTERM, or when its parent
exits, it writes one ``<perf_counter> <cpu seconds>`` line per sample to
the file ``OUT`` and exits.  ``time.perf_counter`` reads the system's
monotonic clock, so the parent can place each sample within its own
timed windows.  The samples go to a file, not a pipe, because the
parent may fork workers that keep a pipe open after the meter is gone.

A sample is timed in the meter's own CPU time, not wall time: the work
being measured shares the CPU, and a wall-clock sample would count the
slices the scheduler gives to that work.  CPU time still grows when the
host slows the CPU down.

A shared host changes speed per CPU, within seconds, by up to about a
third, and a probe run only between units of work misses most of that.
On the 2-vCPU Xeon VM the bounds were set on, dividing by this meter
cut the spread (IQR over median) over five seeds of ``tune-paper`` from
24% to 6% and of ``retune-sizes`` from 20% to 3%.  Over seven
``serve-closed`` runs, a meter on the worker's CPU tracked the mean job
latency with a correlation of 0.97, and one on the other CPU with 0.38.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np

#: Seconds between the end of one sample and the start of the next.
INTERVAL_S = 0.1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0]
    if len(argv) > 1:
        os.sched_setaffinity(0, {int(argv[1])})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 32, (4000, 8)) + np.arange(8) * 32
    weights = np.repeat(rng.random(4000), 8).reshape(4000, 8)

    def sample() -> float:
        start = time.thread_time()
        best = 0.0
        for i in range(150):
            lo = (i * 37) % 3000
            hist = np.bincount(codes[lo:lo + 600].ravel(),
                               weights=weights[lo:lo + 600].ravel(),
                               minlength=256)
            best = max(best, float(np.cumsum(hist.reshape(8, 32), axis=1).max()))
            scores = {}
            for k in range(20):
                scores[k] = k * best
        return time.thread_time() - start

    sample()  # warm-up
    print("ready", flush=True)
    samples = []
    while True:
        time.sleep(INTERVAL_S)
        if stop or os.getppid() != parent:
            break
        seconds = sample()
        samples.append((time.perf_counter(), seconds))
    with open(out + ".tmp", "w", encoding="ascii") as handle:
        handle.write("".join(f"{end!r} {seconds!r}\n" for end, seconds in samples))
    os.replace(out + ".tmp", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
