"""Closed-form objectives of the benchmark, each with a checked known minimum.

Forrester comes from the library; Branin, Hartmann-6 and the mixed
continuous/ordinal/categorical function live here so that the library's own
benchmark module stays untouched. Every objective is noise-free, so each
recorded ``y`` can be checked against a fresh evaluation of ``x``.

``build_problems`` rebuilds the problems a workload names and checks each
known minimum before it returns; a wrong minimum raises ``MinimumCheckError``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

__all__ = ["MinimumCheckError", "build_problems"]

# f* of the mixed function, found by ``_mixed_minimum`` and pinned here so a
# change to the function or to the solve shows up as a failed check
MIXED_F_STAR = -0.3119582211708978

BRANIN_F_STAR = 0.397887357729738
BRANIN_ARGMINS = ((-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475))

HARTMANN6_F_STAR = -3.32236801141551
HARTMANN6_ARGMIN = (0.20168952, 0.15001069, 0.47687398, 0.27533243, 0.31165162, 0.65730054)
_H6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_H6_A = np.array([
    [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
    [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
    [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
    [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
])
_H6_P = 1e-4 * np.array([
    [1312, 1696, 5569, 124, 8283, 5886],
    [2329, 4135, 8307, 3736, 1004, 9991],
    [2348, 1451, 3522, 2883, 3047, 6650],
    [4047, 8828, 8732, 5743, 1091, 381],
])

FORRESTER_F_STAR = -6.020740055767083

# mixed space: x0, x1 in [0, 1]; an ordinal "size" in MIXED_SIZES; a
# categorical with 3 codes and one with 4. The categoricals move the
# continuous optimum and add an interaction offset, so a classifier must
# split on them jointly with the continuous coordinates.
MIXED_SIZES = (1.0, 2.0, 4.0, 8.0, 16.0)
_MIXED_U = np.array([0.2, 0.5, 0.8])
_MIXED_V = np.array([0.15, 0.4, 0.65, 0.9])
_MIXED_W = np.array([
    [0.9, 0.3, 0.0, 0.6],
    [0.4, 1.2, 0.5, 0.2],
    [0.0, 0.7, 1.0, 0.35],
])


class MinimumCheckError(AssertionError):
    """A problem's known minimum disagrees with its objective."""


def branin(x) -> float:
    x1, x2 = float(x[0]), float(x[1])
    b = 5.1 / (4.0 * math.pi ** 2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1 * x1 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


def hartmann6(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(-_H6_ALPHA @ np.exp(-np.sum(_H6_A * (x - _H6_P) ** 2, axis=1)))


def _mixed_parts(x0, x1, size, c1: int, c2: int):
    return (10.0 * (x0 - _MIXED_U[c1]) ** 2 + 6.0 * (x1 - _MIXED_V[c2]) ** 2
            + 0.5 * np.sin(8.0 * x0 + 3.0 * x1)
            + 0.3 * (math.log2(size) - 2.5) ** 2 * (1.0 + 0.5 * c1)
            + 3.0 * _MIXED_W[c1, c2])


def mixed(x) -> float:
    return float(_mixed_parts(float(x[0]), float(x[1]), float(x[2]), int(x[3]), int(x[4])))


def mixed_round(x) -> float:
    """``mixed`` rounded to the nearest integer: plateaus and many tied outputs."""
    return float(round(mixed(x)))


def _check(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise MinimumCheckError(f"{name}: found minimum {got!r}, expected {want!r} (tol {tol})")


def _local_min(fn, x0, bounds) -> float:
    res = minimize(fn, np.asarray(x0, dtype=float), method="L-BFGS-B", bounds=bounds)
    return float(min(res.fun, fn(res.x)))


def _check_branin() -> None:
    for xs in BRANIN_ARGMINS:
        _check("branin", branin(xs), BRANIN_F_STAR, 1e-5)
    bounds = [(-5.0, 10.0), (0.0, 15.0)]
    for xs in BRANIN_ARGMINS:
        if _local_min(branin, xs, bounds) < BRANIN_F_STAR - 1e-9:
            raise MinimumCheckError("branin: local solve went below the known minimum")


def _check_hartmann6() -> None:
    _check("hartmann6", hartmann6(HARTMANN6_ARGMIN), HARTMANN6_F_STAR, 1e-5)
    if _local_min(hartmann6, HARTMANN6_ARGMIN, [(0.0, 1.0)] * 6) < HARTMANN6_F_STAR - 1e-6:
        raise MinimumCheckError("hartmann6: local solve went below the known minimum")


def _mixed_minimum() -> float:
    """Enumerate every discrete value; on each, scan a continuous grid and
    polish the best grid point with a bounded local solve."""
    grid = np.linspace(0.0, 1.0, 21)
    g0, g1 = np.meshgrid(grid, grid, indexing="ij")
    best = math.inf
    for size in MIXED_SIZES:
        for c1 in range(len(_MIXED_U)):
            for c2 in range(len(_MIXED_V)):
                values = _mixed_parts(g0, g1, size, c1, c2)
                i = np.unravel_index(int(np.argmin(values)), values.shape)
                start = (grid[i[0]], grid[i[1]])
                fn = lambda z: float(_mixed_parts(z[0], z[1], size, c1, c2))  # noqa: E731
                best = min(best, float(values[i]), _local_min(fn, start, [(0.0, 1.0)] * 2))
    return best


def _forrester(bk):
    bench = bk.get_benchmark("forrester", noise_std=0.0)
    _check("forrester", bench.minimum_value, FORRESTER_F_STAR, 1e-6)
    fn = bench.fn
    return bk.Problem(lambda x: fn(float(x[0])), bench.space, bench.minimum_value)


def _branin(bk):
    _check_branin()
    space = bk.SearchSpace((bk.Continuous(-5.0, 10.0), bk.Continuous(0.0, 15.0)))
    return bk.Problem(branin, space, BRANIN_F_STAR)


def _hartmann6(bk):
    _check_hartmann6()
    space = bk.SearchSpace(tuple(bk.Continuous(0.0, 1.0) for _ in range(6)))
    return bk.Problem(hartmann6, space, HARTMANN6_F_STAR)


def _mixed_space(bk):
    return bk.SearchSpace((bk.Continuous(0.0, 1.0), bk.Continuous(0.0, 1.0),
                           bk.Ordinal(MIXED_SIZES),
                           bk.Categorical(len(_MIXED_U)), bk.Categorical(len(_MIXED_V))))


def build_problems(bk, names) -> dict:
    """The named problems as ``bk.Problem``s, each known minimum checked.

    ``bk`` is the imported ``borekit`` package.
    """
    problems = {}
    mixed_f_star = None
    for name in names:
        if name == "forrester":
            problems[name] = _forrester(bk)
        elif name == "branin":
            problems[name] = _branin(bk)
        elif name == "hartmann6":
            problems[name] = _hartmann6(bk)
        elif name in ("mixed", "mixed-round"):
            if mixed_f_star is None:
                mixed_f_star = _mixed_minimum()
                _check("mixed", mixed_f_star, MIXED_F_STAR, 1e-7)
            if name == "mixed":
                problems[name] = bk.Problem(mixed, _mixed_space(bk), MIXED_F_STAR)
            else:
                # rounding is monotone, so the rounded minimum is the rounded f*
                problems[name] = bk.Problem(mixed_round, _mixed_space(bk),
                                            float(round(MIXED_F_STAR)))
        else:
            raise ValueError(f"unknown problem {name!r}")
    return problems
