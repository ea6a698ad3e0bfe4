import pytest

from mklang.bench import (
    SEND_WORKLOAD, VARRW_WORKLOAD, bench_install, bench_overhead,
    format_install_table, format_overhead_table, synthetic_corpus,
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
        ["varrw/nolink", "varrw/empty", "varrw/full-write", "varrw/full-read"]
    assert all(r.rate > 0 for r in reports)


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
    from mklang.bench import _configure_send, _configure_varrw

    def results(source, configure, mode, n=5):
        interp = Interpreter()
        interp.load(source)
        if mode != "nolink":
            configure(interp, mode)
        target = interp.send(interp.class_named("BenchTarget"), "new",
                             [], None)
        return [interp.send(target, "run", [], None) for _ in range(n)]

    for mode in ("nolink", "empty", "full"):
        assert results(SEND_WORKLOAD, _configure_send, mode) == [1] * 5
    for mode in ("nolink", "empty", "full-write", "full-read"):
        assert results(VARRW_WORKLOAD, _configure_varrw, mode) \
            == [1, 2, 3, 4, 5]


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
