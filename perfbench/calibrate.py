"""The host's speed, measured by a fixed piece of pure-Python work.

The shared host this benchmark was defined on runs Python code 20-30 %
slower or faster for tens of seconds at a time.  A timed run therefore
measures the host's speed next to every operation, with work that calls
nothing of hklat, and multiplies the operation's wall time by it: times
are reported in milliseconds of the reference machine, on which the work
takes ``REF_S``.  The host's drift cancels; a change to hklat shows in full.
"""

import time
from fractions import Fraction

# Wall time of work() on the reference machine: the 2-vCPU Intel Xeon KVM
# guest (Python 3.11) on which the benchmark was defined.
REF_S = 0.0028
CHECK = 289564  # what work() computes


def work() -> int:
    """Dictionary churn on tuple keys, big-integer products and Fraction
    sums: the kind of work hklat does.  Of the candidates tried, this one
    followed hklat's own speed most closely as the host's speed changed."""
    acc = 0
    for k in range(4):
        counts = {}
        for i in range(1500):
            key = (i % 7, i * k % 11, i // 13)
            counts[key] = counts.get(key, 0) + i * 1234567891011 % 97
        acc += sum(counts.values()) + sum(Fraction(i, k + 3) for i in range(60)).numerator
    return acc


def calibration() -> float:
    """Wall time of one run of work()."""
    t0 = time.perf_counter()
    acc = work()
    elapsed = time.perf_counter() - t0
    if acc != CHECK:
        raise AssertionError(f"calibration work computed {acc}, not {CHECK}")
    return elapsed


def speed() -> float:
    """The host's speed now, relative to the reference machine."""
    return REF_S / calibration()
