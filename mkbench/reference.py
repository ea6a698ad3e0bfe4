"""The reference computation that op times are divided by.

The speed of a shared host drifts by a quarter and more over minutes,
which no run of a minute averages out. The harness therefore times this
fixed computation every few tenths of a second and reports each op's
time as a multiple of it: the quotient moves with the program, not with
the host. It uses no mklang code and does not depend on the seed.

It has two parts, because the two kinds of work in a run drift
differently with the host: evaluating generated methods in plain Python
(calls, dicts, arithmetic, as an interpreter does) and a pointer-chasing
walk over a 4 MB table (memory latency, as a garbage collector sweeping
a large heap does). Dividing by either part alone left link-churn, which
spends nearly half its time in gen-2 collections, twice as noisy.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

from . import gen

CALLS = 30
TABLE = 1 << 20          # entries of 4 bytes
STEPS = 30000


class Reference:
    def __init__(self):
        self.cls = gen.gen_class(
            random.Random("reference"), "Reference", ["s0", "s1", "s2", "s3"],
            (gen.SMALL, gen.MEDIUM, gen.LARGE), chain=True)
        # A full-period linear congruential step: walking i -> table[i]
        # visits every entry in a cache-hostile order.
        self.table = array("i", ((i * 1103515245 + 12345) % TABLE
                                 for i in range(TABLE)))

    def time(self):
        """Seconds the reference takes now. GC is off while it runs, so
        the size of the workload's heap does not enter it."""
        gc.disable()
        try:
            start = time.perf_counter()
            evaluator = gen.Evaluator(self.cls)
            for arg in range(CALLS):
                evaluator.send("m2:", arg)
            table = self.table
            i = 0
            for _ in range(STEPS):
                i = table[i]
            return time.perf_counter() - start
        finally:
            gc.enable()
