"""Probability calibration: Platt scaling and isotonic regression.

Both calibrators map raw classifier scores to probabilities. Platt scaling
fits a two-parameter sigmoid by damped Newton on the logistic loss; isotonic
regression fits the least-squares nondecreasing step function by
pool-adjacent-violators, pooling exact score ties first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "platt_fit",
    "platt_apply",
    "IsotonicFit",
    "isotonic_fit",
    "CalibratedClassifier",
    "CALIBRATION_METHODS",
]

CALIBRATION_METHODS = ("none", "platt", "isotonic")


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss(scores, labels, a, b):
    z = a * scores + b
    return float(np.mean(np.logaddexp(0.0, z) - labels * z))


def platt_fit(scores, labels, tol: float = 1e-6, max_iter: int = 200) -> tuple[float, float]:
    """Fit (a, b) minimizing the logistic loss of sigmoid(a * score + b).

    Damped Newton iteration, run until the gradient norm drops below ``tol``.
    Both classes must be present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size < 2:
        raise ValueError("need matching scores and labels, at least 2 of each")
    n1 = labels.sum()
    if n1 == 0 or n1 == labels.size:
        raise ValueError("calibration needs both classes present")

    a = 0.0
    b = float(np.log(n1 / (labels.size - n1)))
    loss = _logistic_loss(scores, labels, a, b)
    for _ in range(max_iter):
        p = _sigmoid(a * scores + b)
        resid = p - labels
        grad = np.array([np.mean(resid * scores), np.mean(resid)])
        if np.linalg.norm(grad) < tol:
            break
        w = p * (1.0 - p)
        hess = np.array([
            [np.mean(w * scores * scores), np.mean(w * scores)],
            [np.mean(w * scores), np.mean(w)],
        ])
        hess[0, 0] += 1e-12
        hess[1, 1] += 1e-12
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while t > 1e-12:
            cand = _logistic_loss(scores, labels, a - t * step[0], b - t * step[1])
            if cand <= loss:
                a -= t * step[0]
                b -= t * step[1]
                loss = cand
                break
            t /= 2.0
        else:
            break
    return float(a), float(b)


def platt_apply(ab: tuple[float, float], scores):
    a, b = ab
    return _sigmoid(a * np.asarray(scores, dtype=float) + b)


@dataclass(frozen=True)
class IsotonicFit:
    """Nondecreasing step function from scores to calibrated probabilities."""

    thresholds: np.ndarray  # unique sorted scores seen at fit time
    values: np.ndarray      # fitted value at each threshold

    def predict(self, scores):
        scores = np.asarray(scores, dtype=float)
        idx = np.clip(np.searchsorted(self.thresholds, scores, side="right") - 1,
                      0, len(self.thresholds) - 1)
        out = self.values[idx]
        return out if out.ndim else float(out)


def isotonic_fit(scores, labels) -> IsotonicFit:
    """Least-squares monotone fit of labels ordered by score (PAV)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size < 1:
        raise ValueError("need matching, non-empty scores and labels")

    # pool exact score ties before running PAV
    uniq, inverse = np.unique(scores, return_inverse=True)
    weights = np.bincount(inverse).astype(float)
    means = np.bincount(inverse, weights=labels) / weights

    # stack-based pool-adjacent-violators on the tie-pooled blocks
    vals: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for mean, w in zip(means, weights):
        vals.append(float(mean))
        wts.append(float(w))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v, wt, c = vals.pop(), wts.pop(), counts.pop()
            vals[-1] = (vals[-1] * wts[-1] + v * wt) / (wts[-1] + wt)
            wts[-1] += wt
            counts[-1] += c

    fitted = np.repeat(vals, counts)
    return IsotonicFit(thresholds=uniq, values=fitted)


class CalibratedClassifier:
    """A base classifier whose scores pass through a calibrator before use."""

    def __init__(self, base, method: str, calibrator):
        if method not in ("platt", "isotonic"):
            raise ValueError(f"unknown calibration method {method!r}")
        self.base = base
        self.method = method
        self.calibrator = calibrator

    def predict(self, x) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float)[None, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        s = self.base.predict_batch(X)
        if self.method == "platt":
            return platt_apply(self.calibrator, s)
        return self.calibrator.predict(s)
