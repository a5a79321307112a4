"""Self-tests of the benchmark's correctness checks.

Each check must pass on the program's real output and fail once that
output is deliberately corrupted. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
from repro.candle import NT3Benchmark, P1B2Benchmark  # noqa: E402
from repro.candle.preprocessing import get_scaler  # noqa: E402
from repro.ingest import load_benchmark_data  # noqa: E402
from repro.nn import Dropout  # noqa: E402
from repro.serve import OpenWorkload, ServeOptions, serve_workload  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def nt3():
    return NT3Benchmark(scale=0.005, sample_scale=0.05)


@pytest.fixture(scope="module")
def loaded(nt3, tmp_path_factory):
    directory = tmp_path_factory.mktemp("csv")
    paths = nt3.write_files(directory, np.random.default_rng(SEED))
    data = load_benchmark_data(nt3, *paths, method="original")
    gen = nt3.synth_arrays(np.random.default_rng(SEED))
    got = {"x_train": data.x_train, "y_train": data.y_train,
           "x_test": data.x_test, "y_test": data.y_test}
    want = {"x_train": gen.x_train, "y_train": gen.y_train,
            "x_test": gen.x_test, "y_test": gen.y_test}
    return got, want


def test_loaded_arrays_pass_and_catch_a_perturbed_value(loaded):
    got, want = loaded
    assert checks.loaded_arrays(got, want) == []
    bad = dict(got, x_train=got["x_train"].copy())
    bad["x_train"][3, 7, 0] += 1e-5
    assert checks.loaded_arrays(bad, want)


def test_scaled_features_pass_and_catch_a_wrong_scale(loaded):
    raw = loaded[0]["x_train"].reshape(len(loaded[0]["x_train"]), -1)
    scaled = get_scaler("maxabs").fit_transform(raw)
    assert checks.scaled_features(scaled, raw) == []
    over = scaled.copy()
    over[0, 2] = 1.5
    assert checks.scaled_features(over, raw)
    under = scaled * 0.5
    assert checks.scaled_features(under, raw)


@pytest.fixture(scope="module")
def gradient_probe(nt3, loaded):
    model = nt3.build_model(seed=SEED)
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rate = 0.0
    model.compile("sgd", "categorical_crossentropy")
    before = {k: v.copy() for k, v in model.named_parameters().items()}
    x, y = loaded[0]["x_train"][:6], loaded[0]["y_train"][:6]
    model.train_on_batch(x, y)
    grads = model.named_gradients()
    rng = np.random.default_rng(SEED)
    probes = []
    for name, g in grads.items():
        probes.append((name, np.unravel_index(int(np.argmax(np.abs(g))), g.shape)))
        probes += [(name, tuple(int(rng.integers(s)) for s in g.shape)) for _ in range(2)]
    program = np.array([grads[name][index] for name, index in probes])
    forward, backward = reference.one_sided_differences(model.layers, before, x, y, probes)
    return program, forward, backward, probes


def test_gradients_pass_and_catch_a_sign_flip(gradient_probe):
    program, forward, backward, probes = gradient_probe
    assert checks.gradients(program, forward, backward, probes) == []
    # flip one whole tensor, as a backward pass with a sign error would
    flipped = program.copy()
    kernel = [i for i, (name, _) in enumerate(probes) if name == probes[0][0]]
    flipped[kernel] *= -1.0
    assert checks.gradients(flipped, forward, backward, probes)


def test_gradients_set_aside_a_probe_across_a_kink(gradient_probe):
    program, forward, backward, probes = gradient_probe
    kinked = forward.copy()
    kinked[0] *= 1.01  # the forward step saw the slope past a kink
    assert checks.gradients(program, kinked, backward, probes) == []
    # but a check that cannot difference most probes proves nothing
    assert checks.gradients(program, forward * 1.01, backward, probes)


def test_eval_metrics_and_floor():
    reported = {"loss": 0.25, "accuracy": 0.95}
    assert checks.eval_metrics(reported, dict(reported)) == []
    assert checks.eval_metrics(reported, {"loss": 0.25 * (1 + 1e-6), "accuracy": 0.95})
    assert checks.eval_metrics({"loss": 0.25}, reported)
    assert checks.accuracy_floor(checks.ACCURACY_FLOOR) == []
    assert checks.accuracy_floor(checks.ACCURACY_FLOOR - 0.05)


def test_rank_metrics_catch_a_mismatch():
    same = [{"loss": 0.1, "accuracy": 1.0}, {"loss": 0.1, "accuracy": 1.0}]
    assert checks.rank_metrics(same) == []
    assert checks.rank_metrics([same[0], {"loss": 0.1000001, "accuracy": 1.0}])


@pytest.fixture(scope="module")
def serve_run():
    bench = P1B2Benchmark(scale=0.01, sample_scale=0.02)
    model = bench.build_model(seed=SEED)
    weights = {k: v.copy() for k, v in model.named_parameters().items()}
    pool = bench.synth_arrays(np.random.default_rng(SEED)).x_test
    arrivals = np.linspace(0.0, 0.05, 24)
    report = serve_workload(
        lambda: bench.build_model(seed=0), OpenWorkload(arrivals=arrivals), pool,
        ServeOptions(max_batch=8, replicas=1, queue_depth=len(arrivals), admission="reject"),
        initial_weights=weights, keep_responses=True,
    )
    expected = reference.forward(model.layers, weights, pool)
    return report, expected[np.arange(len(arrivals)) % len(pool)]


def test_served_passes_on_the_real_report(serve_run):
    report, expected = serve_run
    assert checks.served(report, len(expected), expected) == []


def test_served_catches_a_dropped_response(serve_run):
    report, expected = serve_run
    bad = copy.deepcopy(report)
    del bad.responses[5]
    assert checks.served(bad, len(expected), expected)


def test_served_catches_an_altered_response(serve_run):
    report, expected = serve_run
    bad = copy.deepcopy(report)
    version, rows = bad.responses[3]
    bad.responses[3] = (version, rows + 1e-6)
    assert checks.served(bad, len(expected), expected)


def test_served_catches_a_request_answered_twice(serve_run):
    report, expected = serve_run
    bad = copy.deepcopy(report)
    bad.batch_log.append(bad.batch_log[0])
    assert checks.served(bad, len(expected), expected)
