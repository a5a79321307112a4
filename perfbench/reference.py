"""Plain-numpy arithmetic the correctness checks compare the program to.

Nothing here calls into ``repro.nn`` math: the forward pass is written
from the layer definitions (Keras channels-last semantics), with
different loops and summation orders than the program's vectorized
kernels, so agreement within a tight tolerance is evidence and not an
identity. Layer objects are read only for their configuration (kernel
size, pool size, activation name) and their current weights.
"""

from __future__ import annotations

import numpy as np

# Keras' clip for categorical cross-entropy on probabilities; the
# program documents the same convention.
CE_CLIP = 1e-12


def round_sig6(values: np.ndarray) -> np.ndarray:
    """``values`` as the CSV writer's ``%.6g`` formatting leaves them."""
    values = np.asarray(values, dtype=np.float64)
    out = values.copy()
    # integers below 1e6 survive %.6g exactly; format only the rest
    inexact = (values != np.round(values)) | (np.abs(values) >= 1e6)
    out[inexact] = [float("%.6g" % v) for v in values[inexact]]
    return out


def maxabs_scale(train: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """Divide every column by the train column's max |x| (0 → 1)."""
    flat = train.reshape(len(train), -1)
    scale = np.abs(flat).max(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return [(a.reshape(len(a), -1) / scale).reshape(a.shape) for a in (train, *others)]


def _relu(z):
    return np.where(z > 0.0, z, 0.0)


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _activate(name, z):
    if name in (None, "linear"):
        return z
    if name == "relu":
        return _relu(z)
    if name == "softmax":
        return _softmax(z)
    raise ValueError(f"reference forward has no activation {name!r}")


def _conv1d(x, kernel, bias):
    # x (n, steps, c), kernel (k, c, o): valid, stride 1, one tap at a time
    k = kernel.shape[0]
    out_steps = x.shape[1] - k + 1
    z = np.zeros((x.shape[0], out_steps, kernel.shape[2]))
    for tap in range(k):
        z += x[:, tap : tap + out_steps, :] @ kernel[tap]
    return z if bias is None else z + bias


def _maxpool1d(x, pool):
    n, steps, c = x.shape
    out_steps = steps // pool
    out = x[:, 0:out_steps * pool:pool, :].copy()
    for j in range(1, pool):
        np.maximum(out, x[:, j:out_steps * pool:pool, :], out=out)
    return out


def forward(layers, params: dict, x: np.ndarray) -> np.ndarray:
    """Inference-mode forward of a layer stack with weights ``params``.

    ``params`` maps ``layer_name/key`` to arrays, as
    ``Sequential.named_parameters`` names them.
    """
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        kind = type(layer).__name__
        w = params.get(f"{layer.name}/kernel")
        b = params.get(f"{layer.name}/bias")
        if kind == "Conv1D":
            if layer.padding != "valid":
                raise ValueError("reference Conv1D supports padding='valid' only")
            h = _activate(layer.activation_name, _conv1d(h, w, b))
        elif kind == "MaxPooling1D":
            h = _maxpool1d(h, layer.pool_size)
        elif kind == "Flatten":
            h = h.reshape(len(h), -1)
        elif kind == "Dense":
            z = np.einsum("ni,io->no", h, w)
            h = _activate(layer.activation_name, z if b is None else z + b)
        elif kind == "Dropout":
            pass  # identity at inference
        elif kind == "Activation":
            h = _activate(layer.activation_name, h)
        else:
            raise ValueError(f"reference forward has no layer {kind!r}")
    return h


def penalty(layers, params: dict) -> float:
    """Sum of kernel regularizer penalties ``l1*sum|w| + l2*sum(w^2)``."""
    total = 0.0
    for layer in layers:
        reg = getattr(layer, "kernel_regularizer", None)
        if reg is None:
            continue
        w = params[f"{layer.name}/kernel"]
        total += getattr(reg, "l1", 0.0) * float(np.abs(w).sum())
        total += getattr(reg, "l2", 0.0) * float((w * w).sum())
    return total


def cross_entropy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    p = np.clip(y_pred, CE_CLIP, 1.0)
    return float(-(y_true * np.log(p)).sum() / len(y_true))


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.argmax(y_true, axis=1) == np.argmax(y_pred, axis=1)))


def loss(layers, params, x, y) -> float:
    """Training objective: cross-entropy of the forward plus penalties."""
    return cross_entropy(y, forward(layers, params, x)) + penalty(layers, params)


def one_sided_differences(layers, params, x, y, probes, eps=1e-7):
    """Forward and backward differences of the loss at each probe.

    Returns ``(forward, backward)`` arrays for the ``(name, index)``
    probes. Their mean is the central difference; where they disagree by
    more than curvature allows, a ReLU or max-pool kink lies within
    ``eps`` of the point and neither is the derivative there.
    """
    base = loss(layers, params, x, y)
    up, down = np.empty(len(probes)), np.empty(len(probes))
    for i, (name, index) in enumerate(probes):
        arr = params[name]
        saved = arr[index]
        try:
            arr[index] = saved + eps
            up[i] = (loss(layers, params, x, y) - base) / eps
            arr[index] = saved - eps
            down[i] = (base - loss(layers, params, x, y)) / eps
        finally:
            arr[index] = saved
    return up, down
