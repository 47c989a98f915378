"""Adam optimizer with bias correction and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .core import Tensor

# Adam's moment decay rates and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class GradientError(ValueError):
    """A gradient contained NaN or Inf; names the offending parameter. The
    caller is expected to drop the update and keep training."""

    def __init__(self, param_name):
        super().__init__(f"non-finite gradient for parameter {param_name!r}")
        self.param_name = param_name


class OptimizerState:
    """Per-parameter Adam moments plus the learning rate. Parameter updates
    are in place (the Tensor objects keep their identity); moments live
    here."""

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.step = 0
        self.m = {}
        self.v = {}


def clip_global_norm(grads, max_norm=1.0):
    """Scale the whole gradient map so its global L2 norm is at most max_norm.
    Returns (scaled grads, pre-clip norm). Never mutates the inputs. A
    non-finite norm leaves the grads unscaled, so that optimizer_step names
    the parameter at fault rather than the first one a NaN scale spoiled.
    The squares are summed in float64, where a finite float32 gradient's
    cannot overflow."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g.data, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm <= max_norm or not np.isfinite(norm):
        return grads, norm
    scale = max_norm / norm
    return {name: Tensor(g.data * scale) for name, g in grads.items()}, norm


def optimizer_step(params, grads, state):
    """One Adam update. params and grads are name-keyed maps; every param must
    have a grad. Non-finite gradients abort the update before any parameter
    has been touched."""
    missing = set(params) - set(grads)
    if missing:
        raise ValueError(f"missing gradients for parameters: {sorted(missing)}")
    for name in params:
        if not np.all(np.isfinite(grads[name].data)):
            raise GradientError(name)
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads[name].data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
    return params, state
