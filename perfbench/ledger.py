"""The per-layer ledger of a traced run, recorded from outside the program.

Every number comes from one of two places: timing wrappers this module
puts around public calls (layer ``forward``/``backward``, the base
optimizer's update, the loss, ``DataSource.load``, the scaler,
``write_csv``, ``DynamicBatcher.offer``), or what the program already
returns (the Horovod timeline, the phase spans, the serve report). The
program itself carries no instrumentation for this benchmark.

Wrapped calls record wall seconds and a call count under a metric key.
Layers do not nest, so a layer's wrapped time is its self time. Calls
made inside ``Sequential.evaluate`` are not recorded: evaluation is
reported whole as ``candle.eval_s``, which keeps the ``nn.*`` times a
breakdown of training steps and serving forwards only.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict

from repro.candle import base as candle_base
from repro.candle.preprocessing import MaxAbsScaler
from repro.ingest.source import DataSource
from repro.serve.batcher import DynamicBatcher


class Ledger:
    """Thread-safe accumulation of seconds and counts per metric key."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: (req_id, monotonic time) of every DynamicBatcher.offer
        self.offers: list[tuple[int, float]] = []

    def add(self, key: str, seconds: float = 0.0, count: int = 0) -> None:
        with self._lock:
            self.seconds[key] += seconds
            self.counts[key] += count

    def timed(self, fn, keys, calls_key=None):
        """Wrap ``fn`` to add its wall time to every key in ``keys``.

        Re-entrant calls under the same first key (``fit_transform``
        calling ``transform``) and calls made during evaluation record
        nothing, so no interval is counted twice.
        """
        guard = keys[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = getattr(self._local, "active", None)
            if active is None:
                active = self._local.active = set()
            if guard in active or getattr(self._local, "quiet", 0):
                return fn(*args, **kwargs)
            active.add(guard)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active.discard(guard)
                with self._lock:
                    for key in keys:
                        self.seconds[key] += dt
                    if calls_key is not None:
                        self.counts[calls_key] += 1

        return wrapper

    def quiet(self, fn):
        """Wrap ``fn`` so calls beneath it record nothing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._local.quiet = getattr(self._local, "quiet", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.quiet -= 1

        return wrapper

    # -- models -------------------------------------------------------------
    def instrument(self, model, serving: bool = False):
        """Time every layer of ``model``; for a training model also its
        loss and its base optimizer's update once it is compiled."""
        for layer in model.layers:
            calls = f"nn.{layer.name}.calls"
            fwd = [f"nn.{layer.name}.fwd_s"] + (["serve.forward_s"] if serving else [])
            layer.forward = self.timed(layer.forward, fwd, calls)
            layer.backward = self.timed(layer.backward, [f"nn.{layer.name}.bwd_s"], calls)
        if serving:
            return model
        compile_model = model.compile

        def compile(*args, **kwargs):
            compile_model(*args, **kwargs)
            # DistributedOptimizer allreduces, then calls its base: wrap
            # the base so the optimizer time excludes communication
            opt = getattr(model.optimizer, "base", model.optimizer)
            for name in ("apply_arena", "apply_gradients"):
                setattr(opt, name, self.timed(getattr(opt, name), ["nn.optimizer_s"]))
            for name in ("value", "grad", "fused_softmax_grad"):
                setattr(model.loss, name, self.timed(getattr(model.loss, name), ["nn.loss_s"]))

        model.compile = compile
        model.evaluate = self.quiet(model.evaluate)
        return model

    # -- module and class entry points ----------------------------------------
    @contextlib.contextmanager
    def patched(self):
        """Wrap the program's loader, scaler, CSV writer and batcher
        admission for the duration of the block, then restore them."""
        ledger = self
        load = DataSource.load

        def traced_load(source, *args, **kwargs):
            ledger.add("ingest.bytes", count=os.path.getsize(source.path))
            return load(source, *args, **kwargs)

        offer = DynamicBatcher.offer

        def traced_offer(batcher, request, *args, **kwargs):
            with ledger._lock:
                ledger.offers.append((request.req_id, time.monotonic()))
            return offer(batcher, request, *args, **kwargs)

        patches = [
            (DataSource, "load", self.timed(traced_load, ["ingest.load_s"])),
            (MaxAbsScaler, "fit_transform",
             self.timed(MaxAbsScaler.fit_transform, ["candle.scale_s"])),
            (MaxAbsScaler, "transform",
             self.timed(MaxAbsScaler.transform, ["candle.scale_s"])),
            (candle_base, "write_csv",
             self.timed(candle_base.write_csv, ["frame.write_csv_s"])),
            (DynamicBatcher, "offer", traced_offer),
        ]
        saved = []
        try:
            for owner, name, value in patches:
                saved.append((owner, name, owner.__dict__.get(name, _ABSENT)))
                setattr(owner, name, value)
            yield self
        finally:
            for owner, name, old in reversed(saved):
                if old is _ABSENT:
                    delattr(owner, name)
                else:
                    setattr(owner, name, old)

    def take_offers(self) -> list[tuple[int, float]]:
        with self._lock:
            offers, self.offers = self.offers, []
        return offers


_ABSENT = object()
