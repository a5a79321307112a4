#!/usr/bin/env python3
"""End-to-end CANDLE benchmark: one workload per invocation.

    python3 perfbench/run.py --workload nt3_spmd2 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the root of a source checkout. ``--trace 0`` times untraced
rounds and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer ledger plus the
tracing overhead. Metric names and units are read from
``BENCHMARK.json``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Lines
before it give the host fingerprint, each round's numbers, and any
failed check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: idle seconds before each round, so BLAS worker threads still spinning
#: after the previous round's last matrix product have gone to sleep
SETTLE_S = 0.3
#: the traced rounds' nn self-times, with optimizer and loss, must
#: cover at least this share of the traced train phase
LEDGER_COVERAGE = 0.5


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=False), flush=True)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from host import fingerprint
    from ledger import Ledger

    bench_spec = _load_spec()
    spec = workloads.WORKLOADS[name]
    _emit({"host": fingerprint(ROOT), "workload": name, "seed": seed,
           "seconds": seconds, "trace": int(trace)})
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    runner = workloads.Runner(spec, seed, workdir)
    # the first round of each kind warms lazy imports and caches: it is
    # checked and counted in attempted/failed, but left out of the medians
    plain, traced, problems = [], [], []
    try:
        runner.setup(trace, timed=False)
        # a timed set-up before every untimed round spreads the set-ups
        # over the run, so host speed, which drifts over tens of seconds,
        # weighs on setup_s as on the round metrics
        t0 = time.perf_counter()
        while len(plain) < 2 or time.perf_counter() - t0 < seconds:
            for ledger in (None, Ledger()) if trace else (None,):
                gc.collect()
                time.sleep(SETTLE_S)
                if ledger is None:
                    runner.setup(trace)
                (plain if ledger is None else traced).append(runner.round(ledger))
            if len(plain) == 1:
                # resident memory grows over later rounds (a known fault,
                # see the README); the first round's peak is the steady figure
                first_round_rss = workloads.peak_rss_mb()
        while len(runner.setup_s) < workloads.SETUPS:
            runner.setup(trace)
        problems += runner.check_inputs()
        problems += runner.check_gradients()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = plain + traced
    for i, r in enumerate(rounds):
        _emit({"round": i, "traced": i >= len(plain), "seconds": r.seconds,
               "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
               "problems": r.problems})
        problems += r.problems

    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]}
    if trace:
        values = {}
        for key in (m["name"] for m in bench_spec["per_layer"]):
            if key == "trace.overhead_s":
                values[key] = (statistics.median([r.seconds for r in traced[1:]])
                               - statistics.median([r.seconds for r in plain[1:]]))
            elif key == "frame.write_csv_s":
                values[key] = statistics.median(runner.write_csv_s)
            else:
                got = [r.layers[key] for r in traced[1:] if r.layers]
                if not got:
                    raise SystemExit(f"no traced round of {name} completed")
                values[key] = statistics.median(got)
        for r in traced:
            if not r.layers:
                continue
            covered, train = r.layers["_nn_train_s"], r.layers["_train_s"]
            if not LEDGER_COVERAGE * train <= covered <= train:
                problems.append(f"ledger covers {covered:.3f} s of a {train:.3f} s "
                                f"train phase (want {LEDGER_COVERAGE:.0%}-100%)")
    else:
        values = {}
        for key in (m["name"] for m in bench_spec["end_to_end"]):
            if key == "setup_s":
                values[key] = statistics.median(runner.setup_s)
            elif key == "peak_rss_mb":
                values[key] = first_round_rss
            else:
                got = [r.metrics[key] for r in plain[1:] if key in r.metrics]
                if not got:
                    raise SystemExit(f"no round of {name} measured {key}")
                values[key] = statistics.median(got)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    names = [w["name"] for w in _load_spec()["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        print(name, json.dumps(result), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"run from a source checkout: no package at {os.path.join(src, 'repro')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.workload == "all":
        result = run_all(args)
    else:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}, all")
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
