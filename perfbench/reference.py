"""The references that calibrate the benchmark's times.

The shared host runs for seconds to minutes at a time about 1.6 times
slower than at other times, and pudsim's code slows down alike.  A fixed
loop of interpreter-bound work, timed right before and right after each
measured interval, tracks that speed.  Each time is
scaled by REFERENCE_S / (the loop's time around it): it reads as host
seconds at the speed where the loop takes REFERENCE_S.  Set-up, which
runs in a process of its own, is scaled in the same way by a fresh
interpreter's start-up time and STARTUP_S.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# the loop's time on the 2.1 GHz Xeon host the benchmark was tuned on,
# between that host's fast (3.3 ms) and slow (5.4 ms) states
REFERENCE_S = 0.004

# start-up of a fresh interpreter that imports numpy, on the same host:
# 0.14 s fast, 0.19 s slow
STARTUP_S = 0.16


def loop() -> float:
    """Interpreter-bound work in two equal parts: integer arithmetic in a
    Python loop, and numpy calls on a small array."""
    s = 0
    for i in range(25000):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(1200):
        a = a * 1.0001 + 1.0
    return s + float(a[0])


def sample(times: int = 5) -> float:
    """Median seconds of `times` runs of the loop."""
    ts = []
    for _ in range(times):
        t = time.perf_counter()
        loop()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts)


def startup(env: dict, cwd) -> float:
    """Seconds a fresh interpreter takes to start, import numpy and exit.

    Set-up (a fresh process importing pudsim, numpy and scipy) tracks
    this more closely than it tracks `loop`: over three minutes, set-up
    ÷ start-up varied by 6% from sample to sample, set-up ÷ loop by 12%.
    """
    t = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=60)
    return time.monotonic() - t
