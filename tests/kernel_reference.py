"""The linear kernel as one pass over whole arrays, the reference of the tiled kernel.

reference_block solves a block of paths with every fine-grid array held
at its full length, in new memory, by the formulas the production kernel
(engine.linear_block_arrays) applies tile by tile: the same ufuncs in the
same operand order, so each element must come out with the same bits,
whatever the tile length or the block width.
"""
import numpy as np

from rmplab.engine import _EXP_CAP, LOG_BUDGET, SATURATION
from rmplab.noise import sample_block
from rmplab.rng import ROLE_ADDITIVE, ROLE_MULTIPLICATIVE


def _sanitize(arr):
    finite = np.isfinite(arr)
    if not finite.all():
        np.nan_to_num(arr, copy=False, nan=0.0, posinf=SATURATION, neginf=-SATURATION)
    return ~finite.all(axis=0)


def _trapezoid(values, dt):
    # scipy.integrate.cumulative_trapezoid's formula along axis 0, from 0
    out = np.empty(values.shape)
    out[0] = 0.0
    out[1:] = np.cumsum(dt * (values[1:] + values[:-1]) / 2.0, axis=0)
    return out


def _response(log_a, phi, dt):
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(np.diff(log_a, axis=0))
        q = 0.5 * dt * (phi[:-1] * ratios + phi[1:])
        b = np.empty(log_a.shape)
        b[0] = 0.0
        for k in range(len(q)):
            b[k + 1] = b[k] * ratios[k] + q[k]
    return b


def reference_block(model, grid, master_seed, indices, strides):
    """Every label of strides, path-major at its stride, and each label's own mask."""
    n = len(indices)
    zeta = sample_block(model.multiplicative, grid, master_seed, indices, ROLE_MULTIPLICATIVE)
    phi = sample_block(model.additive, grid, master_seed, indices, ROLE_ADDITIVE)
    y = _trapezoid(zeta, grid.dt)
    log_a = -model.a * grid.times[:, None] - y
    a_vals = np.exp(np.minimum(log_a, _EXP_CAP))
    budget = log_a.max(axis=0) > LOG_BUDGET
    b = _response(log_a, phi, grid.dt)
    own_b = budget | _sanitize(b)
    with np.errstate(over="ignore", invalid="ignore"):
        x = model.x0 * a_vals + b
        h = _trapezoid(phi * a_vals, grid.dt)
    none = np.zeros(n, dtype=bool)
    arrays = {"zeta": zeta, "phi": phi, "Y": y, "A": a_vals, "B": b, "X": x, "H": h}
    masks = {
        "zeta": none, "phi": none, "Y": budget, "A": budget, "B": own_b,
        "X": own_b | _sanitize(x), "H": budget | _sanitize(h),
    }
    return {
        label: (np.ascontiguousarray(arrays[label][::stride].T), masks[label])
        for label, stride in strides.items()
    }
