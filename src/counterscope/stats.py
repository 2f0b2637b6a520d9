"""Core statistical kernels: Pearson r and simple OLS.

All moments are population moments (1/n), so sigma of [1,2,3] is sqrt(2/3).
Degenerate-case conventions: Pearson of a constant series is 0 and R^2 with
SS_tot = 0 is 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float

    def predict(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def _pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DegenerateInputError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DegenerateInputError("need at least 2 samples")
    return x, y


def _centered(arr):
    """(centered values / scale, scale), with the centered values finite for
    every finite input: when plain centering overflows (sums near the float
    ceiling), the series is first divided by its max magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = arr.mean()
        if np.isfinite(m):
            d = arr - m
            if np.all(np.isfinite(d)):
                return d, 1.0
    scale = float(np.max(np.abs(arr)))
    scaled = arr / scale
    return scaled - scaled.mean(), scale


def _safe_mean(arr) -> float:
    with np.errstate(over="ignore"):
        m = arr.mean()
    if np.isfinite(m):
        return float(m)
    scale = float(np.max(np.abs(arr)))
    return float((arr / scale).mean() * scale)


def pearson(x, y) -> float:
    """Population-moment Pearson coefficient; 0 if either series is constant.

    Centered series are max-normalized before forming products (the scale
    cancels in the ratio), so values near the subnormal range cannot
    underflow the moments and |r| stays within 1e-12 of [-1, 1].
    """
    x, y = _pair(x, y)
    dx, _ = _centered(x)
    dy, _ = _centered(y)
    mx = np.max(np.abs(dx))
    my = np.max(np.abs(dy))
    if mx == 0.0 or my == 0.0:
        return 0.0
    u = dx / mx
    v = dy / my
    su = np.sqrt(np.mean(u * u))
    sv = np.sqrt(np.mean(v * v))
    return float(np.mean(u * v) / (su * sv))


def linreg(x, y) -> RegressionFit:
    """Ordinary least squares y = slope*x + intercept with R^2.

    Raises DegenerateInputError for constant x. Constant y fits exactly
    (slope 0, R^2 1 by the SS_tot = 0 convention). Moments are formed on
    max-normalized centered series, same as pearson.
    """
    x, y = _pair(x, y)
    dx, sx = _centered(x)
    mx = np.max(np.abs(dx))
    if mx == 0.0:
        raise DegenerateInputError("x is constant")
    dy, sy = _centered(y)
    my = np.max(np.abs(dy))
    if my == 0.0:
        return RegressionFit(0.0, _safe_mean(y), 1.0)
    u = dx / mx
    v = dy / my
    beta = float(np.mean(u * v) / np.mean(u * u))  # slope in normalized space
    slope = beta * float((my / mx) * (sy / sx))
    intercept = float(_safe_mean(y) - slope * _safe_mean(x))
    resid = v - beta * u
    r2 = 1.0 - float(np.mean(resid * resid) / np.mean(v * v))
    return RegressionFit(slope, intercept, r2)
