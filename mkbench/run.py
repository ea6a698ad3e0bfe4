"""Run the mklang benchmark.

From the root of a checkout:

    python3 mkbench/run.py --workload run-plain --seed 1 --seconds 10 --trace 0
    python3 mkbench/run.py --workload all --seed 1 --seconds 10
    python3 mkbench/run.py --write-manifest

A single workload prints a report line (host, failed_ratio, the gates
that failed, op mix, gen-2 collections, peak RSS) and, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. A traced run also writes its spans to
`.bench_out/spans-<workload>-<seed>.jsonl`.

`--workload all` runs every workload in its own process, one after the
other, prints each metric by name and unit, and derives the paper's
overhead: run-plain's ops_per_ref over run-linked's, less one.

`--write-manifest` writes BENCHMARK.json from the definitions here.
The program under test is imported from `src/` of the checkout and
nowhere else; without it the benchmark exits with code 2. The run
re-executes itself once with a fixed PYTHONHASHSEED, so string hashing,
and with it the layout of every dict the interpreter builds, is the same
in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_MISSING = 2
RUN_SECONDS = 30
HASH_SEED = "0"


def _import_program():
    """Import mklang from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "mklang", "__init__.py")):
        print("mkbench: no mklang sources under %s" % SRC, file=sys.stderr)
        raise SystemExit(EXIT_MISSING)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import mklang
    if not os.path.abspath(mklang.__file__).startswith(SRC + os.sep):
        print("mkbench: mklang was imported from %s, not %s"
              % (mklang.__file__, SRC), file=sys.stderr)
        raise SystemExit(EXIT_MISSING)


def manifest():
    from mkbench import harness, workloads
    return {
        "command": ["python3", "mkbench/run.py"],
        "paths": ["mkbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.workloads().values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in harness.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in harness.PER_LAYER],
    }


def run_one(args):
    from mkbench import harness, workloads
    workload = workloads.workloads()[args.workload]()
    spans = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-%d.jsonl"
                             % (args.workload, args.seed))
    result, report = harness.measure(workload, args.seed, args.seconds,
                                     args.trace, spans)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in its own process, so memory peaks stay apart."""
    from mkbench import harness, workloads
    results = {}
    for name in workloads.workloads():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        report, result = (json.loads(line) for line in
                          proc.stdout.strip().splitlines()[-2:])
        results[name] = result
        print("%s: correct=%s attempted=%d failed=%d failed_ratio=%.4f "
              "gc_collections=%d violations=%s" % (
                  name, result["correct"], result["attempted"],
                  result["failed"], report["failed_ratio"],
                  report["python.gc_collections"], report["violations"]))
        for metric, m in result["metrics"].items():
            print("  %-32s %16.6f %s" % (metric, m["value"], m["unit"]))
        for metric, value in report.get("in_seconds", {}).items():
            print("  %-32s %16.6f %s" % (metric, value,
                                          harness.SECONDS_UNITS[metric]))
    summary = {"correct": all(r["correct"] for r in results.values())}
    if not args.trace:
        plain = results["run-plain"]["metrics"]["ops_per_ref"]["value"]
        linked = results["run-linked"]["metrics"]["ops_per_ref"]["value"]
        summary["overhead_pct"] = (plain / linked - 1.0) * 100.0
        print("derived: link overhead, run-plain over run-linked ops_per_ref,"
              " %.1f %%" % summary["overhead_pct"])
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None):
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(
        prog="mkbench/run.py", description="Benchmark of the mklang "
        "interpreter and its metalink layer.")
    parser.add_argument("--workload", default="all",
                        help="run-plain, run-linked, link-churn or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    _import_program()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from mkbench import workloads
    names = workloads.workloads()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(names)))
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
