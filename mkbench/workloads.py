"""The three workloads: `run-plain`, `run-linked` and `link-churn`.

Every workload is a closed loop: one client in one process, no threads,
the next op starts when the previous one returned. A workload builds its
state from the seed in `setup`, and `script` gives one round of ops; the
harness repeats whole rounds, so every seed runs the same op count per
round and the same mix of op kinds. `execute` is the timed part of an op;
`verify` then checks it and returns the names of the gates it violated.
"""

from __future__ import annotations

import random
from collections import Counter

from mklang.interpreter import Interpreter

from . import linkset, programs

VARIANTS = 4     # variants of each kernel per seed


class Workload:
    name = ""
    why = ""

    def __init__(self):
        self.stats = Counter()   # per-layer counts the workload observes

    def setup(self, seed):
        raise NotImplementedError

    def script(self):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def verify(self, op, token):
        raise NotImplementedError

    def finish(self):
        """Checks after the measured phase; returns violated gate names."""
        return []

    def interpreters(self):
        """Interpreters that live across ops, for the tracer to instrument."""
        return []

    def describe(self):
        """Text that determines the inputs; equal seeds give equal text."""
        raise NotImplementedError


def make_programs(seed):
    return [programs.make_program(kernel, seed, v)
            for kernel in programs.KERNELS for v in range(VARIANTS)]


class RunPlain(Workload):
    name = "run-plain"
    why = ("kernel programs run with no link; interpreter evaluation and "
           "kernel primitives do almost all the work, parser a little; links "
           "untouched, so link-side changes predict no change here")

    def setup(self, seed):
        self.seed = seed
        self.programs = make_programs(seed)
        self.round = list(range(len(self.programs)))
        random.Random("%s/%d" % (self.name, seed)).shuffle(self.round)

    def script(self):
        return [("run", self.programs[i].kernel, i) for i in self.round]

    def execute(self, op):
        """What `mklang run` does: a fresh interpreter runs the source."""
        program = self.programs[op[2]]
        interp = Interpreter(seed=program.seed)
        return interp, interp.run(program.source)

    def verify(self, op, token):
        interp, result = token
        bad = check_run(self.programs[op[2]], result)
        self.stats["hook_visits"] += interp.hook_visits
        self.stats["registry_consults"] += interp.registry_consults
        if interp.hook_visits != 0 or interp.registry_consults != 0:
            bad.append("zero_cost")
        return bad

    def describe(self):
        return "\n".join("== %s\n%s\n-- expected\n%s" % (
            p.kernel, p.source, p.expected) for p in self.programs) + \
            "\nround %s" % (self.round,)


def check_run(program, result):
    bad = []
    if result.signal is not None:
        bad.append("halted")
    if result.output != program.expected:
        bad.append("output_mismatch")
    return bad


class RunLinked(RunPlain):
    name = "run-linked"
    why = ("run-plain's programs and outputs under a seeded link set (tools "
           "and generic links); hook dispatch, reify.resolve and the "
           "meta-send do most of the work; run-plain is the base without them")

    def setup(self, seed):
        super().setup(seed)
        self.link_sets = [linkset.make_link_set(p, seed, i)
                          for i, p in enumerate(self.programs)]

    def execute(self, op):
        program = self.programs[op[2]]
        interp = Interpreter(seed=program.seed)
        interp.load(program.classes)
        interp.load(linkset.BENCH_META_SOURCE)
        installed = linkset.install_link_set(interp, self.link_sets[op[2]])
        return installed, interp.run(program.main)

    def verify(self, op, token):
        installed, result = token
        interp = installed.interp
        bad = check_run(self.programs[op[2]], result)
        if interp.meta_level != 0:
            bad.append("meta_level")
        self.stats["hook_visits"] += interp.hook_visits
        self.stats["registry_consults"] += interp.registry_consults
        self.stats["fires"] += installed.fires()
        self.stats["trace_total"] += installed.counter.total
        self.stats["watch_records"] += len(installed.watch.history)
        return bad

    def describe(self):
        return super().describe() + "\n" + "\n".join(
            "== links %d\n%s" % (i, ls.describe())
            for i, ls in enumerate(self.link_sets))


def workloads():
    from .churn import LinkChurn
    return {w.name: w for w in (RunPlain, RunLinked, LinkChurn)}
