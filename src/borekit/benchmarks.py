"""Synthetic 1-d benchmark problems with grid-oracle minima."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .space import Continuous, SearchSpace

__all__ = [
    "forrester",
    "sinusoid_quadratic",
    "Benchmark",
    "grid_minimum",
    "get_benchmark",
    "BENCHMARK_NAMES",
]

SINUSOID_BOUNDS = (-1.0, 2.0)


def forrester(x: float) -> float:
    """(6x - 2)^2 sin(12x - 4) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"forrester is defined on [0, 1], got {x}")
    return float((6.0 * x - 2.0) ** 2 * np.sin(12.0 * x - 4.0))


def sinusoid_quadratic(x: float, lo: float = SINUSOID_BOUNDS[0], hi: float = SINUSOID_BOUNDS[1]) -> float:
    """sin(3x) + x^2 - 0.7x on the configured bounds (default [-1, 2])."""
    if not lo <= x <= hi:
        raise ValueError(f"x={x} outside [{lo}, {hi}]")
    return float(np.sin(3.0 * x) + x * x - 0.7 * x)


def grid_minimum(fn: Callable[[float], float], lo: float, hi: float,
                 resolution: int = 10_001) -> tuple[float, float]:
    """Dense-grid scan plus bounded local refinement; returns (value, location)."""
    xs = np.linspace(lo, hi, resolution)
    fx = np.array([fn(x) for x in xs])
    i = int(np.argmin(fx))
    step = (hi - lo) / (resolution - 1)
    res = minimize_scalar(
        fn,
        bounds=(max(lo, xs[i] - step), min(hi, xs[i] + step)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if res.fun <= fx[i]:
        return float(res.fun), float(res.x)
    return float(fx[i]), float(xs[i])


@dataclass(frozen=True)
class Benchmark:
    name: str
    fn: Callable[[float], float]
    noise_std: float
    space: SearchSpace
    minimum_value: float
    minimum_location: float


def _build(name: str, fn, noise_std: float, lo: float, hi: float) -> Benchmark:
    value, loc = grid_minimum(fn, lo, hi)
    return Benchmark(
        name=name,
        fn=fn,
        noise_std=noise_std,
        space=SearchSpace((Continuous(lo, hi),)),
        minimum_value=value,
        minimum_location=loc,
    )


BENCHMARK_NAMES = ("forrester", "sinusoid")


def get_benchmark(name: str, noise_std: float | None = None) -> Benchmark:
    """Look up a benchmark by name; optionally overriding its default noise level."""
    if name == "forrester":
        bench = _build("forrester", forrester, 0.05, 0.0, 1.0)
    elif name == "sinusoid":
        bench = _build("sinusoid", sinusoid_quadratic, 0.2, *SINUSOID_BOUNDS)
    else:
        raise ValueError(f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}")
    if noise_std is not None:
        if noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        bench = Benchmark(bench.name, bench.fn, float(noise_std), bench.space,
                          bench.minimum_value, bench.minimum_location)
    return bench

