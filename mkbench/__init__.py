"""Outside-in benchmark of the mklang interpreter and its metalink layer.

Run it from the repository root:

    python3 mkbench/run.py --workload run-plain --seed 1 --seconds 10 --trace 0

`run.py --help` lists the options; `BENCHMARK.json` at the root names the
workloads and metrics. Nothing here edits the program under `src/`: the
benchmark drives its public API and, for the traced run, wraps public
functions from the outside.
"""
