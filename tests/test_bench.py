import gc

import pytest

from mklang.bench import (
    CHUNK, LINKAGES, WORKLOADS, _calls_per_budget, bench_install,
    bench_overhead, configure, format_install_table, format_overhead_table,
    ratios, runner, synthetic_corpus,
)
from mklang.errors import BudgetExceeded
from mklang.interpreter import Interpreter

BUDGET = 0.02   # seconds per timed window; enough for orderings, not noise


def test_send_reports_are_well_formed():
    reports = bench_overhead("send", budget=BUDGET, repetitions=2)
    assert [r.scenario for r in reports] == \
        ["send/nolink", "send/empty", "send/full"]
    for r in reports:
        assert r.rate > 0
        assert r.repetitions == 2
        assert "scenario=" in r.record_line()
    assert reports[0].overhead_percent == 0.0


def test_varrw_reports_are_well_formed():
    reports = bench_overhead("varrw", budget=BUDGET, repetitions=2)
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


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        bench_overhead("bogus", budget=BUDGET)


def test_non_positive_budget_rejected():
    with pytest.raises(BudgetExceeded):
        bench_overhead("send", budget=0)
    with pytest.raises(BudgetExceeded):
        bench_overhead("send", budget=-1)


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
    reports = bench_overhead("send", budget=BUDGET, repetitions=1)
    table = format_overhead_table(reports)
    assert "send/full" in table and "overhead %" in table
    install = format_install_table(bench_install(method_count=10))
    assert "methods: 10" in install and "install (hot)" in install
    assert "remove (hot)" in install and "uninstall" in install
