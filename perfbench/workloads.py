"""The benchmark's workloads: inputs, one round of operations, checks.

Every workload runs the whole CANDLE pipeline through the program's
public entry points: the Figure 2 phases (load → preprocess → train →
eval) through ``repro.core.run_parallel_benchmark`` or
``repro.candle.run_benchmark``, then the trained model served through
``repro.serve.serve_workload`` in two open-loop phases (a fixed rate
well below capacity, then a rate above it). The workloads differ in
which phase carries the weight, so that a change to one layer shows on
one workload and not on another:

- ``nt3_spmd2``: training dominates (conv layers, gradient allreduce,
  the broadcast rendezvous, BLAS threads shared by two ranks);
- ``p1b2_csv_serial``: CSV loading dominates (the entry point's default
  ``original`` loader); no conv and no gradient communication.

Serving NT3 in ``nt3_spmd2`` covers the forward-only path in batches of
1-32 rows behind the batcher and the RPC plane.

A round is one entry-point call and both serve phases, with inputs
fixed by the seed, so every round of a run attempts the same operations:
one per rank in the pipeline call and one per request served.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import shutil
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks
import reference
from ledger import Ledger
from repro.candle import NT3Benchmark, P1B2Benchmark, run_benchmark
from repro.candle.preprocessing import get_scaler
from repro.core import run_parallel_benchmark
from repro.core.scaling import strong_scaling_plan
from repro.ingest import load_benchmark_data
from repro.nn import Dropout
from repro.serve import OpenWorkload, ServeOptions, poisson_arrivals, serve_workload

#: fewest timed set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: open-loop phase well below capacity, on every workload: (requests/s, seconds)
FIXED_PHASE = (150.0, 1.5)
#: CSV loader of every workload: both entry points' default, under which
#: every rank parses the whole files, as in the paper
LOADER = "original"
#: rows of the batch whose gradients are checked, and random entries
#: probed per weight tensor besides its largest one
GRAD_BATCH = 8
GRAD_PROBES = 3


@dataclass(frozen=True)
class Spec:
    name: str
    benchmark: str
    scale: float
    sample_scale: float
    #: SPMD ranks under run_parallel_benchmark; 0 runs run_benchmark
    ranks: int
    #: epochs each rank trains
    epochs: int
    learning_rate: float
    #: open-loop phase above capacity: (requests/s, seconds)
    overload: tuple


# The NT3 learning rate sits above Table 1's so one short training call
# reaches the accuracy floor on every seed (NT3 at Table 1's rate, 0.002
# after linear scaling, needs about 12 epochs per rank); the module
# docstring says why each workload exists.
WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            name="nt3_spmd2",
            benchmark="nt3", scale=0.02, sample_scale=0.5,
            ranks=2, epochs=1, learning_rate=0.03,
            overload=(3000.0, 0.3),
        ),
        Spec(
            name="p1b2_csv_serial",
            benchmark="p1b2", scale=0.1, sample_scale=0.5,
            ranks=0, epochs=4, learning_rate=0.001,
            overload=(20000.0, 0.1),
        ),
    )
}

_BENCHMARKS = {"nt3": NT3Benchmark, "p1b2": P1B2Benchmark}


class _Recorder:
    """Mixin keeping every model the pipeline builds, instrumented when
    a ledger is set, so the benchmark can check and trace them."""

    ledger: Optional[Ledger] = None

    def build_model(self, seed=0, *, train=None, arena=None, dtype=None):
        t0 = time.perf_counter()
        model = super().build_model(seed, train=train, arena=arena, dtype=dtype)
        if self.ledger is not None:
            self.ledger.add("candle.build_model_s", time.perf_counter() - t0)
            self.ledger.instrument(model)
        with self._lock:
            self.built[seed] = model
        return model


def _subject(spec: Spec):
    cls = _BENCHMARKS[spec.benchmark]
    sub = type(f"Recorded{cls.__name__}", (_Recorder, cls), {})
    bench = sub(scale=spec.scale, sample_scale=spec.sample_scale)
    bench.built = {}
    bench._lock = threading.Lock()
    return bench


@dataclass
class Round:
    """What one round measured, before aggregation over the run."""

    attempted: int
    failed: int
    seconds: float = 0.0
    metrics: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)


class Runner:
    """One run of one workload: set up, rounds, checks."""

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.bench = _subject(spec)
        self.plain = _BENCHMARKS[spec.benchmark](
            scale=spec.scale, sample_scale=spec.sample_scale
        )
        self.paths = None
        self.setup_s: list[float] = []
        self.write_csv_s: list[float] = []
        self._expect()

    # -- set-up ------------------------------------------------------------
    def setup(self, trace: bool, timed: bool = True) -> None:
        """Write the input CSVs into a fresh directory and use them from
        now on; the files of every set-up are the same.

        An untimed set-up takes first-call costs (lazy imports, heap
        growth) out of the figures.
        """
        directory = os.path.join(self.workdir, f"setup{len(self.setup_s)}-{int(timed)}")
        os.makedirs(directory)
        ledger = Ledger() if trace else None
        with ledger.patched() if trace else nullcontext():
            t0 = time.perf_counter()
            paths = self.bench.write_files(directory, np.random.default_rng(self.seed))
            elapsed = time.perf_counter() - t0
        if timed:
            self.setup_s.append(elapsed)
            if trace:
                self.write_csv_s.append(ledger.seconds["frame.write_csv_s"])
        if self.paths is not None:
            shutil.rmtree(os.path.dirname(self.paths[0]))
        self.paths = paths

    def _expect(self) -> None:
        """Arrays the pipeline must see, derived from the generator."""
        gen = self.plain.synth_arrays(np.random.default_rng(self.seed))
        self.generated = {
            "x_train": gen.x_train, "y_train": gen.y_train,
            "x_test": gen.x_test, "y_test": gen.y_test,
        }
        x_train = reference.round_sig6(gen.x_train)
        x_test = reference.round_sig6(gen.x_test)
        if self.spec.ranks == 0:  # run_benchmark max-abs scales; SPMD ranks do not
            x_train, x_test = reference.maxabs_scale(x_train, x_test)
        self.x_train, self.y_train = x_train, gen.y_train
        self.x_test, self.y_test = x_test, gen.y_test
        self.train_rows = len(x_train)
        self.arrivals = {
            phase: poisson_arrivals(qps, seconds, seed=self.seed * 2 + k)
            for k, (phase, (qps, seconds)) in enumerate(
                (("fixed", FIXED_PHASE), ("overload", self.spec.overload)))
        }

    # -- one round -----------------------------------------------------------
    def round(self, ledger: Optional[Ledger]) -> Round:
        spec = self.spec
        requests = sum(len(a) for a in self.arrivals.values())
        self.bench.ledger = ledger
        self.bench.built.clear()
        t_round = time.perf_counter()
        reports, late = {}, []
        with ledger.patched() if ledger is not None else nullcontext():
            try:
                out, model, evals, result = self._pipeline()
            except Exception:  # a raised error fails every rank, and no serving follows
                traceback.print_exc()
                n = max(1, spec.ranks) + requests
                return Round(attempted=n, failed=n)
            out.attempted += requests
            weights = {k: v.copy() for k, v in model.named_parameters().items()}
            for phase, arrivals in self.arrivals.items():
                try:
                    reports[phase] = self._serve(weights, arrivals, ledger)
                except Exception:
                    traceback.print_exc()
                    out.failed += len(arrivals)
                    continue
                out.failed += len(arrivals) - reports[phase].slo.requests
                if ledger is not None:
                    late.append(_lateness_s(ledger.take_offers(), arrivals))
        out.seconds = time.perf_counter() - t_round
        if "fixed" in reports:
            out.metrics["serve_p50_ms"] = reports["fixed"].slo.p50_ms
            out.metrics["serve_p99_ms"] = reports["fixed"].slo.p99_ms
        if "overload" in reports:
            out.metrics["serve_rows_per_s"] = reports["overload"].slo.rows_per_s
        if ledger is not None:
            out.layers = self._layers(ledger, result, reports)
            out.layers["serve.generator_late_ms"] = (
                float(np.concatenate(late).mean() * 1000.0) if late else 0.0
            )
        # checks run after the round's numbers are taken
        out.problems += self._check_model(model, evals)
        for phase, report in reports.items():
            out.problems += self._check_served(report, weights, model, len(self.arrivals[phase]))
        self.bench.built.clear()  # hold no model, and its caches, past the round
        return out

    def _pipeline(self):
        spec = self.spec
        t0 = time.perf_counter()
        if spec.ranks:
            plan = dataclasses.replace(
                strong_scaling_plan(self.bench.spec, spec.ranks,
                                    total_epochs=spec.epochs * spec.ranks),
                learning_rate=spec.learning_rate,
            )
            result = run_parallel_benchmark(
                self.bench, plan, data_paths=self.paths, load_method=LOADER,
                seed=self.seed, local_size=spec.ranks,
            )
            wall = time.perf_counter() - t0
            phases = result.phase_seconds()
            evals = [r.eval_metrics for r in result.ranks]
            # rank r builds with seed + 1000 (r + 1); ranks hold equal weights
            model = self.bench.built[self.seed + 1000]
            live = len(result.ranks)
            out = Round(attempted=spec.ranks, failed=spec.ranks - live)
        else:
            result = run_benchmark(
                self.bench, self.paths, load_method=LOADER, epochs=spec.epochs,
                learning_rate=spec.learning_rate, seed=self.seed, validation=False,
            )
            wall = time.perf_counter() - t0
            phases = {"load": result.load_s, "train": result.train_s, "eval": result.eval_s}
            evals = [result.eval_metrics]
            model = self.bench.built[self.seed]
            live = 1
            out = Round(attempted=1, failed=0)
        out.metrics.update(
            wall_s=wall,
            load_s=phases["load"],
            train_samples_per_s=self.train_rows * spec.epochs * live / phases["train"],
        )
        return out, model, evals, result

    def _serve(self, weights, arrivals, ledger):
        spec = self.spec
        plain = self.plain

        def build():
            model = plain.build_model(seed=0)
            return ledger.instrument(model, serving=True) if ledger is not None else model

        options = ServeOptions(
            max_batch=32, replicas=1, queue_depth=len(arrivals),
            admission="reject", seed=self.seed,
        )
        return serve_workload(
            build, OpenWorkload(arrivals=arrivals), self.x_test, options,
            initial_weights=weights, keep_responses=True,
        )

    # -- per-layer numbers -----------------------------------------------------
    def _layers(self, ledger: Ledger, result, reports) -> dict:
        sec, cnt = ledger.seconds, ledger.counts
        out = {}
        for name in layer_names():
            out[f"nn.{name}.fwd_s"] = sec.get(f"nn.{name}.fwd_s", 0.0)
            out[f"nn.{name}.bwd_s"] = sec.get(f"nn.{name}.bwd_s", 0.0)
            out[f"nn.{name}.calls"] = cnt.get(f"nn.{name}.calls", 0)
        for key in ("nn.optimizer_s", "nn.loss_s", "ingest.load_s",
                    "candle.scale_s", "candle.build_model_s", "serve.forward_s"):
            out[key] = sec.get(key, 0.0)
        load = sec.get("ingest.load_s", 0.0)
        out["ingest.mb_per_s"] = cnt.get("ingest.bytes", 0) / 1e6 / load if load else 0.0
        if self.spec.ranks:
            ranks = result.ranks
            out["candle.eval_s"] = max(r.eval_s for r in ranks)
            train_s = sum(r.train_s for r in ranks)
            out.update(_hvd(result.timeline))
        else:
            out["candle.eval_s"] = result.eval_s
            train_s = result.train_s
            out.update(_hvd(None))
        # every recorded training interval lies inside a rank's train span
        out["_train_s"] = train_s
        out["_nn_train_s"] = (
            sum(v for k, v in sec.items() if k.startswith("nn."))
            - sec.get("serve.forward_s", 0.0)
        )
        batches = sum(r.batches for r in reports.values())
        rows = sum(r.mean_batch_rows * r.batches for r in reports.values())
        out["serve.batches"] = batches
        out["serve.mean_batch_rows"] = rows / batches if batches else 0.0
        over = reports.get("overload")
        out["serve.drain_s"] = (
            over.slo.wall_s - float(self.arrivals["overload"][-1]) if over else 0.0
        )
        return out

    # -- checks -----------------------------------------------------------------
    def _check_model(self, model, evals) -> list[str]:
        problems = checks.rank_metrics(evals)
        y_pred = model.predict(self.x_test)
        layers = model.layers
        params = model.named_parameters()
        recomputed = {
            "loss": reference.cross_entropy(self.y_test, y_pred)
            + reference.penalty(layers, params),
            "accuracy": reference.accuracy(self.y_test, y_pred),
        }
        problems += checks.eval_metrics(evals[0], recomputed)
        problems += checks.accuracy_floor(recomputed["accuracy"])
        return problems

    def _check_served(self, report, weights, model, n_requests) -> list[str]:
        pool = reference.forward(model.layers, weights, self.x_test)
        expected = pool[np.arange(n_requests) % len(pool)]
        return checks.served(report, n_requests, expected)

    def check_inputs(self) -> list[str]:
        """The program's loader and scaler on this run's files."""
        loaded = load_benchmark_data(self.plain, *self.paths, method=LOADER)
        got = {"x_train": loaded.x_train, "y_train": loaded.y_train,
               "x_test": loaded.x_test, "y_test": loaded.y_test}
        problems = checks.loaded_arrays(got, self.generated)
        raw = loaded.x_train.reshape(len(loaded.x_train), -1)
        problems += checks.scaled_features(get_scaler("maxabs").fit_transform(raw), raw)
        return problems

    def check_gradients(self) -> list[str]:
        """Program gradients of one batch against central differences."""
        model = self.plain.build_model(seed=self.seed)
        for layer in model.layers:
            if isinstance(layer, Dropout):
                layer.rate = 0.0  # a deterministic objective to difference
        model.compile("sgd", "categorical_crossentropy")
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        x, y = self.x_train[:GRAD_BATCH], self.y_train[:GRAD_BATCH]
        model.train_on_batch(x, y)
        grads = {k: v.copy() for k, v in model.named_gradients().items()}
        rng = np.random.default_rng(self.seed)
        probes, program = [], []
        for name, g in grads.items():
            picks = [np.unravel_index(int(np.argmax(np.abs(g))), g.shape)]
            picks += [tuple(int(rng.integers(s)) for s in g.shape) for _ in range(GRAD_PROBES)]
            for index in picks:
                probes.append((name, index))
                program.append(g[index])
        forward, backward = reference.one_sided_differences(model.layers, before, x, y, probes)
        return checks.gradients(np.asarray(program), forward, backward, probes)


def _hvd(timeline) -> dict:
    keys = ("hvd.allreduce_s", "hvd.allreduce_calls", "hvd.allreduce_mb",
            "hvd.negotiate_allreduce_s", "hvd.negotiate_broadcast_s", "hvd.broadcast_s")
    if timeline is None:
        return dict.fromkeys(keys, 0.0)
    events = timeline.events

    def total(name):
        return sum(e.duration_s for e in events if e.name == name)

    allreduces = [e for e in events if e.name == "allreduce"]
    return {
        "hvd.allreduce_s": total("allreduce"),
        "hvd.allreduce_calls": len(allreduces),
        "hvd.allreduce_mb": sum(e.args.get("bytes", 0) for e in allreduces) / 1e6,
        "hvd.negotiate_allreduce_s": total("negotiate_allreduce"),
        "hvd.negotiate_broadcast_s": total("negotiate_broadcast"),
        "hvd.broadcast_s": total("broadcast"),
    }


def _lateness_s(offers, arrivals) -> np.ndarray:
    """How late each submission of one phase went out past its due time.

    The generator's start time is not visible from outside, so the
    least-late submission is taken as on time: the figures are lower
    bounds, exact when any request went out on schedule.
    """
    delays = np.array([t - float(arrivals[req_id]) for req_id, t in offers])
    return delays - delays.min() if len(delays) else delays


@functools.cache
def layer_names() -> tuple[str, ...]:
    """Layer names of every workload's model, in first-seen order."""
    names = []
    for spec in WORKLOADS.values():
        bench = _BENCHMARKS[spec.benchmark](scale=spec.scale, sample_scale=spec.sample_scale)
        for layer in bench.build_model(seed=0).layers:
            if layer.name not in names:
                names.append(layer.name)
    return tuple(names)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
