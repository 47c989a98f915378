"""Finite-difference gradient verification for any parameters->scalar function."""

from __future__ import annotations

import numpy as np

from .core import Tape


def grad_check(fn, params, eps=1e-5):
    """Compare analytic gradients of fn against central finite differences.

    fn takes the name-keyed parameter map and returns a scalar Tensor; it must
    be pure (same params, same value), and every parameter float64. Returns
    the max over all coordinates of
    |analytic - numeric| / max(eps, |analytic| + |numeric|).

    The floor eps keeps the score relative where the gradient is large and
    makes it absolute where it is not: a central difference is only good to
    about eps^2 (truncation) plus rounding / eps, so below eps the ratio of
    two near-zero numbers (say a saturated gate's 1e-11 gradient) would
    measure the rounding of the loss, not the gradient.
    """
    if eps == 0:
        raise ValueError("grad_check: eps must be nonzero")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            # Rounding moves a float32 loss by ~1e-7 of its size, which the
            # 2e-5 wide difference turns into an error of ~5e-3 per unit.
            raise ValueError(f"grad_check: parameter {name!r} is {p.data.dtype}, not float64; "
                             f"finite differences need a float64 model")
    with Tape() as tape:
        loss = fn(params)
    if not np.all(np.isfinite(loss.data)):
        raise ValueError("grad_check: fn returned non-finite value")
    analytic = tape.gradients(loss, params=params.values())
    worst = 0.0
    for name, p in params.items():
        a = analytic[p].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(params).data)
            flat[i] = orig - eps
            lo = float(fn(params).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"grad_check: fn returned non-finite value perturbing {name!r}")
            numeric = (hi - lo) / (2.0 * eps)
            ana = float(a.reshape(-1)[i])
            err = abs(ana - numeric) / max(abs(eps), abs(ana) + abs(numeric))
            if err > worst:
                worst = err
    return worst
