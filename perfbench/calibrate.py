"""The reference loop that calibrates each timed sample to the machine's speed.

The host this benchmark was written on is shared, and the speed a process
gets switches between a fast and a slow state, about 1.6 times apart, that
lasts from seconds to minutes (NOTES.md, Environment). That is far more
than a regression worth catching, and no statistic over one run removes a
slow state that lasts the whole run. So the benchmark also times a fixed
piece of its own code, the reference loop: a mix of what the program
spends its time on, Python dict and tuple loops (the neighborhood
tables), text splitting (the TSV readers) and numpy gathers and scatters
(the gradients). It runs right before and right after every timed sample
(several times for a long sample; the fastest counts), and the sample is
scaled by REFERENCE_S / (mean of those two reference times). A change to
the program does not touch the loop, so it moves the calibrated sample as
it moves the raw one; a slow state around the sample moves both the
sample and the loop, and the scale takes it out.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time in the fast state of the 2-core VM the benchmark was
# written on (Python 3.11, numpy 2.4): calibrated timings are seconds at
# that speed.
REFERENCE_S = 0.077

_TEXT = "\n".join(f"u{i}\ti{(i * 7919) % 2003}\t{1 + i % 5}" for i in range(30_000))
_ROWS = (np.arange(200_000) * 7919) % 3000
_COLS = (np.arange(200_000) * 104_729) % 10


def reference_work():
    """About 0.08 s of work shaped like the program's; returns a checksum."""
    table = {}
    for line in _TEXT.splitlines():
        user, item, rating = line.split("\t")
        row = table.setdefault(user[-2:], {})
        row[item] = row.get(item, 0.0) + float(rating)
    pairs = {}
    for i in range(100_000):
        key = ((i * 31) % 701, (i * 17) % 709)
        pairs[key] = pairs.get(key, 0) + 1
    acc = np.zeros((3000, 10))
    values = np.full(len(_ROWS), 0.5)
    for _ in range(5):
        np.add.at(acc, (_ROWS, _COLS), values)
        values = acc[_ROWS, _COLS] * 1e-3
    return len(table) + len(pairs) + float(acc.sum())


def reference_loops(sample_s):
    """Reference loops to time on each side of a sample expected to take
    `sample_s`: one, and one more per 2 s, up to five (0.4 s)."""
    return min(1 + int(sample_s / 2.0), 5)


def time_reference(loops=1):
    """Seconds of the fastest of `loops` reference loops; the fastest, so
    that a brief stall does not count as a slow state."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return min(times)
