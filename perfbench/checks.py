"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list is a pass. Every
check compares against arithmetic done here (see ``reference``) or a
property the method must have, never against a stored copy of an
earlier run's output. ``test_checks.py`` shows each one failing on a
deliberately corrupted output.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import reference

#: tolerance of a served prediction against the reference forward
#: (float64 softmax outputs; only the summation order differs)
PREDICTION_ATOL = 1e-9
#: relative tolerance of a reported eval metric against its recomputation
EVAL_RTOL = 1e-9
#: finite-difference agreement: |fd - program| <= atol + rtol * |fd|
FD_RTOL = 1e-3
FD_ATOL = 1e-7
#: test accuracy the synthetic data's separability supports after each
#: workload's training (seeded class signal well above the noise)
ACCURACY_FLOOR = 0.9


def loaded_arrays(loaded: dict, generated: dict) -> list[str]:
    """Loaded arrays equal the generated ones as ``%.6g`` leaves them."""
    problems = []
    for name, expected in generated.items():
        got = loaded[name]
        want = reference.round_sig6(expected)
        if got.shape != want.shape:
            problems.append(f"{name}: shape {got.shape} != generated {want.shape}")
        elif not np.array_equal(got, want):
            bad = int(np.sum(got != want))
            problems.append(f"{name}: {bad} values differ from the generated data")
    return problems


def scaled_features(scaled: np.ndarray, raw: np.ndarray) -> list[str]:
    """Max-abs scaling: every column within [-1, 1], and exactly 1 at
    its extreme on every column that is not constant."""
    flat = scaled.reshape(len(scaled), -1)
    raw = raw.reshape(len(raw), -1)
    colmax = np.abs(flat).max(axis=0)
    problems = []
    if not np.all(colmax <= 1.0):
        problems.append(f"{int(np.sum(colmax > 1.0))} columns exceed max-abs 1")
    varying = raw.max(axis=0) != raw.min(axis=0)
    off = varying & (colmax != 1.0)
    if off.any():
        problems.append(f"{int(off.sum())} non-constant columns do not reach max-abs 1")
    return problems


def gradients(program: np.ndarray, forward: np.ndarray, backward: np.ndarray,
              labels) -> list[str]:
    """Program gradients agree with central differences, probe by probe.

    ``forward`` and ``backward`` are one-sided differences of the loss.
    Where they disagree, a ReLU or max-pool kink lies within the step
    and the loss has no derivative to compare: that probe is set aside.
    At least half the probes must be usable, and every usable one must
    agree with the central difference.
    """
    def close(a, b):
        return np.abs(a - b) <= FD_ATOL + FD_RTOL * np.abs(b)

    central = (forward + backward) / 2.0
    usable = close(forward, backward)
    problems = []
    if usable.sum() * 2 < len(central):
        problems.append(f"only {int(usable.sum())}/{len(central)} gradient probes are "
                        "smooth enough to difference")
    bad = np.flatnonzero(usable & ~close(program, central))
    problems += [
        f"gradient {labels[i]}: program {program[i]:.6g} but central "
        f"differences {central[i]:.6g}"
        for i in bad[:3]
    ]
    if len(bad) > 3:
        problems.append(f"... {len(bad)} gradient probes disagree in all")
    return problems


def eval_metrics(reported: dict, recomputed: dict) -> list[str]:
    problems = []
    for name, want in recomputed.items():
        got = reported.get(name)
        if got is None or not np.isclose(got, want, rtol=EVAL_RTOL, atol=0.0):
            problems.append(f"eval {name}: reported {got} != recomputed {want}")
    return problems


def accuracy_floor(accuracy: float) -> list[str]:
    if accuracy >= ACCURACY_FLOOR:
        return []
    return [f"test accuracy {accuracy:.4f} below the floor {ACCURACY_FLOOR}"]


def rank_metrics(per_rank: list) -> list[str]:
    """Weight-consistent ranks evaluate to identical metrics."""
    first = per_rank[0]
    return [
        f"rank {r} eval metrics {m} != rank 0 {first}"
        for r, m in enumerate(per_rank) if m != first
    ]


def served(report, n_requests: int, expected: np.ndarray) -> list[str]:
    """Every request answered exactly once, with the reference prediction.

    ``expected[i]`` is the reference forward of request ``i``'s rows.
    """
    problems = []
    dispatched = Counter(rid for _, ids in report.batch_log for rid in ids)
    twice = [rid for rid, n in dispatched.items() if n != 1]
    if twice:
        problems.append(f"requests dispatched more than once: {sorted(twice)[:5]}")
    answered = set(report.responses or {})
    missing = set(range(n_requests)) - answered
    if missing:
        problems.append(f"{len(missing)} requests unanswered, e.g. {sorted(missing)[:5]}")
    extra = answered - set(range(n_requests))
    if extra:
        problems.append(f"responses for unknown requests {sorted(extra)[:5]}")
    if report.slo.requests != n_requests:
        problems.append(f"{report.slo.requests} of {n_requests} requests completed")
    wrong = [
        rid for rid in sorted(answered - extra)
        if not np.allclose(report.responses[rid][1], expected[rid],
                           rtol=0.0, atol=PREDICTION_ATOL)
    ]
    if wrong:
        problems.append(f"{len(wrong)} predictions differ from the reference forward, "
                        f"e.g. request {wrong[0]}")
    return problems
