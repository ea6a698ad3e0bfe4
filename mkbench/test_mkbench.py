"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest mkbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from mklang import links as mk_links  # noqa: E402
from mklang.interpreter import Interpreter  # noqa: E402
from mklang.links import MetaLink  # noqa: E402
from mklang.parser import parse  # noqa: E402
from mklang.values import HostFunction  # noqa: E402

from mkbench import harness, linkset, programs  # noqa: E402
from mkbench.reference import Reference  # noqa: E402
from mkbench.churn import LinkChurn  # noqa: E402
from mkbench.workloads import RunLinked, RunPlain, workloads  # noqa: E402


def one_op(workload, index=0):
    op = workload.script()[index]
    return workload.verify(op, workload.execute(op))


def node_count(source):
    program = parse(source)
    return sum(1 for root in program.classes + [program.main]
               for _ in root.walk())


# -- correctness gates ----------------------------------------------------

@pytest.mark.parametrize("cls", [RunPlain, RunLinked])
def test_every_kernel_matches_its_reference(cls):
    w = cls()
    w.setup(11)
    for index in range(len(w.script())):
        assert one_op(w, index) == []


@pytest.mark.parametrize("cls", [RunPlain, RunLinked])
def test_wrong_expected_output_counts_as_failure(cls):
    w = cls()
    w.setup(3)
    i = w.script()[0][2]
    w.programs[i] = dataclasses.replace(
        w.programs[i], expected=w.programs[i].expected + "1\n")
    assert one_op(w) == ["output_mismatch"]
    phase = harness.run_phase(w, 0, Reference())
    assert phase.failed == 1
    assert phase.violations == Counter({"output_mismatch": 1})


def test_stray_link_in_run_plain_trips_the_zero_cost_gate():
    class StrayLink(RunPlain):
        def execute(self, op):
            program = self.programs[op[2]]
            interp = Interpreter(seed=program.seed)
            link = MetaLink()
            link.set_meta_object(HostFunction(lambda: None, "a no-op"))
            link.set_selector("value")
            mk_links.install(interp, link,
                             interp.method_ast("Object", "logCr"))
            return interp, interp.run(program.source)

    w = StrayLink()
    w.setup(5)
    assert one_op(w) == ["zero_cost"]


def test_churn_round_passes_every_gate():
    w = LinkChurn()
    w.setup(2)
    phase = harness.run_phase(w, 0, Reference())
    assert phase.attempted == len(w.script())
    assert phase.failed == 0, (phase.violations, phase.first_error)
    assert w.finish() == []


def test_churn_identity_gate_catches_a_leftover_twin():
    w = LinkChurn()
    w.setup(2)
    script = w.script()
    last = script.index(next(op for op in script if op[0] == "uninstall_x"))
    for op in script[:last]:
        assert w.verify(op, w.execute(op)) == []
    key = next(iter(w.batch["first"]))
    leftover = MetaLink()
    leftover.set_meta_object(HostFunction(lambda: None, "a no-op"))
    leftover.set_selector("value")
    mk_links.install(w.interp, leftover, w._record(key).original_ast)
    op = script[last]
    assert "identity_restored" in w.verify(op, w.execute(op))


# -- seeds ----------------------------------------------------------------

@pytest.mark.parametrize("cls", [RunPlain, RunLinked, LinkChurn])
def test_same_seed_gives_identical_inputs(cls):
    a, b, c = cls(), cls(), cls()
    a.setup(7)
    b.setup(7)
    c.setup(8)
    assert a.describe() == b.describe()
    assert a.describe() != c.describe()


@pytest.mark.parametrize("cls", [RunPlain, RunLinked, LinkChurn])
def test_seeds_give_the_same_op_count_and_mix(cls):
    mixes = []
    for seed in (1, 2, 99):
        w = cls()
        w.setup(seed)
        script = w.script()
        mixes.append((len(script), Counter(op[0] for op in script),
                      Counter(op[1] for op in script)
                      if cls is not LinkChurn else None))
    assert mixes[0] == mixes[1] == mixes[2]


def test_seeds_do_not_change_program_sizes():
    for kernel in programs.KERNELS:
        sizes = {node_count(programs.make_program(kernel, seed, v).source)
                 for seed in (1, 2, 3) for v in range(2)}
        assert len(sizes) == 1, kernel


def test_seeds_do_not_change_corpus_sizes():
    sizes = []
    for seed in (1, 2):
        w = LinkChurn()
        w.setup(seed)
        sizes.append(sorted(len(list(w._record(k).original_ast.walk()))
                            for k in w.corpus.expected))
    assert sizes[0] == sizes[1]


def test_link_set_covers_every_case():
    for kernel in programs.KERNELS:
        ls = linkset.make_link_set(programs.make_program(kernel, 4), 4, 0)
        assert ls.kinds == set(harness.REIFICATION_KINDS)
        specs = ls.links
        assert {s.control for s in specs} == {"before", "after", "instead"}
        assert {s.scope for s in specs} == {"class", "object"}
        assert {s.level for s in specs} == {0, 1}
        assert {True, False} <= {s.condition for s in specs}
        assert {s.meta for s in specs} == {"host", "mk"}


# -- output ---------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace, tmp_path):
    result, report = harness.measure(RunPlain(), 1, 0.01, trace,
                                     str(tmp_path / "spans.jsonl"))
    wanted = harness.END_TO_END if not trace else harness.PER_LAYER
    assert set(result["metrics"]) == {m[0] for m in wanted}
    assert result["correct"] and result["attempted"] >= 1
    assert report["failed_ratio"] == 0.0
    if trace:
        assert result["metrics"]["interpreter.hook_visits"]["value"] == 0
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert json.loads(spans[0])[0] == "bench.op"


def test_manifest_matches_benchmark_json():
    from mkbench.run import manifest
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == manifest()
    assert [w["name"] for w in manifest()["workloads"]] == list(workloads())


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "mkbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "mkbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "mkbench", name), "rb") as f:
                (bench / name).write_bytes(f.read())
    proc = subprocess.run(
        [sys.executable, "mkbench/run.py", "--workload", "run-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode == 2
    assert proc.stdout == ""
