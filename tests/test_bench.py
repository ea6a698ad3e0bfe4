import gc
import sys
import threading

import pytest

from mklang import bench
from mklang.bench import (
    CHUNK, LINKAGES, WINDOW, WORKLOADS, _calls_per_budget, bench_install,
    bench_overhead, configure, counts, format_install_table,
    format_overhead_table, ratios, runner, synthetic_corpus,
)
from mklang.errors import BudgetExceeded
from mklang.interpreter import Interpreter

BUDGET = 0.02   # seconds per mode: one pair of windows, enough for a
                # well-formed report but not for an ordering


def test_send_reports_are_well_formed():
    reports = bench_overhead("send", budget=BUDGET)
    assert [r.scenario for r in reports] == \
        ["send/nolink", "send/empty", "send/full"]
    for r in reports:
        assert r.rate > 0
        assert "scenario=" in r.record_line()
    assert reports[0].overhead_percent == 0.0


def test_varrw_reports_are_well_formed():
    reports = bench_overhead("varrw", budget=BUDGET)
    assert [r.scenario for r in reports] == \
        ["varrw/nolink", "varrw/empty-write", "varrw/full-write",
         "varrw/empty-read", "varrw/full-read"]
    assert all(r.rate > 0 for r in reports)


def test_warm_up_window_calibrates_the_call_count():
    # A 0.05 s budget holds thousands of no-link sends on any host this
    # suite runs on; a count of one chunk or less would time call overhead.
    assert _calls_per_budget(runner("send", "nolink"), 0.05) > CHUNK


def test_ratios_times_adjacent_pairs_in_abba_order_with_the_gc_off():
    calls = []
    ratios(lambda: calls.append(("a", gc.isenabled())),
           lambda: calls.append(("b", gc.isenabled())), pairs=4)
    assert "".join(side for side, _ in calls) == "abbaabba"
    assert not any(enabled for _, enabled in calls)
    assert gc.isenabled()


def test_ratios_answers_the_median_time_ratio():
    ratio = ratios(lambda: sum(range(20_000)), lambda: sum(range(40_000)),
                   pairs=21)
    assert 0.4 < ratio < 0.6


def test_counts_are_exact_per_call_and_leave_tracing_off():
    def leaf():
        return 1

    def two_leaves(n):
        for _ in range(n):
            leaf()
            leaf()

    # The first traced runs of these code objects are inside `counts`:
    # CPython 3.12 and 3.13 miss opcode events in such a run.
    bytecodes, calls = counts(two_leaves, 50)
    assert calls == 100                  # `two_leaves` itself cancels out
    assert counts(two_leaves, 100) == (2 * bytecodes, 2 * calls)
    assert sys.gettrace() is None and sys.getprofile() is None
    assert gc.isenabled()


def test_counts_see_only_the_calling_thread():
    stop = threading.Event()

    def spin():                 # Python calls on another thread
        while not stop.is_set():
            stop.wait(0)

    busy = threading.Thread(target=spin)
    alone = counts(runner("send", "nolink"), 20)
    busy.start()
    try:
        assert counts(runner("send", "nolink"), 20) == alone
    finally:
        stop.set()
        busy.join(timeout=10)
    assert not busy.is_alive()


def test_each_linked_mode_is_paired_with_no_link_at_one_call_count(
        monkeypatch):
    calibrations, compared = [], []

    def fake_runner(workload, mode):
        return lambda n: compared[-1].append((mode, n))

    def fake_calls_per_budget(run, budget):
        calibrations.append(budget)
        return 7

    def fake_ratios(fn_a, fn_b, pairs):
        compared.append([])
        fn_a()
        fn_b()
        compared[-1].append(pairs)
        return 2.0

    monkeypatch.setattr(bench, "runner", fake_runner)
    monkeypatch.setattr(bench, "_calls_per_budget", fake_calls_per_budget)
    monkeypatch.setattr(bench, "ratios", fake_ratios)
    for budget, pairs in ((0.4, 10), (1.0, 25), (0.001, 1)):
        calibrations.clear()
        compared.clear()
        reports = bench_overhead("varrw", budget=budget)
        assert calibrations == [WINDOW]
        assert compared == [[(mode, 7), ("nolink", 7), pairs]
                            for mode in list(LINKAGES["varrw"])[1:]]
        assert [(r.rate, r.overhead_percent) for r in reports] == \
            [(7 / WINDOW, 0.0)] + [(7 / WINDOW / 2.0, 100.0)] * 4


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        bench_overhead("bogus", budget=BUDGET)


def test_non_positive_budget_rejected():
    with pytest.raises(BudgetExceeded):
        bench_overhead("send", budget=0)
    with pytest.raises(BudgetExceeded):
        bench_overhead("send", budget=-1)


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_non_finite_budget_rejected(budget):
    with pytest.raises(BudgetExceeded):
        bench_overhead("send", budget=budget)


def test_workloads_are_semantically_neutral():
    """Every linkage mode computes the same answers as the plain run."""
    expected = {"send": [1] * 5, "varrw": [1, 2, 3, 4, 5]}
    for workload, modes in LINKAGES.items():
        for mode in modes:
            interp = Interpreter()
            interp.load(WORKLOADS[workload])
            configure(interp, workload, mode)
            target = interp.send(interp.class_named("BenchTarget"), "new",
                                 [], None)
            assert [interp.send(target, "run", [], None)
                    for _ in range(5)] == expected[workload], mode


def test_every_full_mode_has_an_empty_mode_on_its_sites():
    """A full row's overhead is comparable only with an empty meta-call on
    the same sites under the same control."""
    for modes in LINKAGES.values():
        empties = {(sites, control) for mode, (sites, _sel, _reifs, control)
                   in modes.items() if mode.startswith("empty")}
        for mode, (sites, _sel, _reifs, control) in modes.items():
            if mode.startswith("full"):
                assert (sites, control) in empties, mode


def test_synthetic_corpus_method_count():
    for n in (0, 1, 50, 51, 120):
        source = synthetic_corpus(n, methods_per_class=50)
        interp = Interpreter()
        interp.load(source)
        count = sum(
            1 for name, cls in interp.classes.items()
            if name.startswith("Corpus")
            for sel in cls.methods if sel != "base")
        assert count == n


def test_install_report_fields_and_orderings():
    report = bench_install(method_count=120)
    assert report.method_count == 120
    assert report.recompile_seconds > 0
    assert report.cold_install_seconds > 0
    assert report.hot_install_seconds > 0
    assert report.remove_seconds > 0
    assert report.uninstall_seconds > 0
    # A second link on an already-woven method must not cost more than
    # the first (cold) weave of the same methods.
    assert report.hot_install_seconds <= report.cold_install_seconds
    line = report.record_line()
    assert "methods=120" in line
    assert "remove_s=" in line and "uninstall_s=" in line


def test_install_report_for_an_empty_corpus():
    report = bench_install(method_count=0)
    assert report.method_count == 0
    assert report.recompile_seconds >= 0
    assert report.cold_install_seconds >= 0
    assert report.hot_install_seconds >= 0
    assert report.remove_seconds >= 0
    assert report.uninstall_seconds >= 0


def test_tables_render():
    reports = bench_overhead("send", budget=BUDGET)
    table = format_overhead_table(reports)
    assert "send/full" in table and "overhead %" in table
    install = format_install_table(bench_install(method_count=10))
    assert "methods: 10" in install and "install (hot)" in install
    assert "remove (hot)" in install and "uninstall" in install
