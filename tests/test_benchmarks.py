import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from borekit.benchmarks import (
    forrester,
    get_benchmark,
    grid_minimum,
    sinusoid_quadratic,
)
from borekit.loop import Problem, run_random_search

# frozen from the dense-grid + local-refinement oracle
FORRESTER_MIN = -6.020740
FORRESTER_ARGMIN = 0.757249
SINUSOID_MIN = -0.500360
SINUSOID_ARGMIN = -0.359394


class TestForrester:
    def test_zero_of_quadratic_factor(self):
        assert forrester(1 / 3) == pytest.approx(0.0, abs=1e-12)

    def test_left_endpoint(self):
        assert forrester(0.0) == pytest.approx(3.027210, abs=1e-6)

    def test_oracle_minimum(self):
        bench = get_benchmark("forrester")
        assert bench.minimum_value == pytest.approx(FORRESTER_MIN, abs=1e-4)
        assert bench.minimum_location == pytest.approx(FORRESTER_ARGMIN, abs=1e-4)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            forrester(1.2)
        with pytest.raises(ValueError):
            forrester(-0.1)


class TestSinusoid:
    def test_origin(self):
        assert sinusoid_quadratic(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_one(self):
        assert sinusoid_quadratic(1.0) == pytest.approx(np.sin(3) + 0.3, abs=1e-12)
        assert sinusoid_quadratic(1.0) == pytest.approx(0.44112, abs=1e-5)

    def test_oracle_minimum(self):
        bench = get_benchmark("sinusoid")
        assert bench.minimum_value == pytest.approx(SINUSOID_MIN, abs=1e-4)
        assert bench.minimum_location == pytest.approx(SINUSOID_ARGMIN, abs=1e-4)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            sinusoid_quadratic(2.5)


class TestGridOracle:
    def test_local_refinement_never_beats_oracle(self):
        for name in ("forrester", "sinusoid"):
            bench = get_benchmark(name)
            lo, hi = bench.space.dims[0].lo, bench.space.dims[0].hi
            rng = np.random.default_rng(0)
            for start in rng.uniform(lo, hi, size=12):
                res = minimize_scalar(bench.fn,
                                      bounds=(max(lo, start - 0.2), min(hi, start + 0.2)),
                                      method="bounded")
                assert res.fun >= bench.minimum_value - 1e-6

    def test_oracle_below_grid(self):
        value, loc = grid_minimum(lambda x: (x - 0.321) ** 2, 0.0, 1.0, resolution=501)
        assert value == pytest.approx(0.0, abs=1e-10)
        assert loc == pytest.approx(0.321, abs=1e-5)


def noise_draws(bench, n_evals, seed):
    """Observation noise y - f(x) of a random-search run on the benchmark."""
    problem = Problem(objective=lambda x: bench.fn(float(x[0])), space=bench.space,
                      noise_std=bench.noise_std)
    trace = run_random_search(problem, n_evals, seed)
    return np.array([r.y - bench.fn(float(r.x[0])) for r in trace.records])


class TestNoisyEval:
    """The loop's own noise path: observations are f(x) + N(0, noise_std^2)."""

    def test_noise_free(self):
        bench = get_benchmark("forrester", noise_std=0.0)
        assert np.all(noise_draws(bench, 20, seed=0) == 0.0)

    def test_noise_scale(self):
        bench = get_benchmark("sinusoid")  # default sigma = 0.2
        draws = noise_draws(bench, 100_000, seed=1)
        assert np.std(draws) == pytest.approx(0.2, rel=0.02)

    def test_deterministic_per_stream(self):
        bench = get_benchmark("forrester")
        a, b = (noise_draws(bench, 20, seed=3) for _ in range(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, noise_draws(bench, 20, seed=4))

    def test_default_noise_levels(self):
        assert get_benchmark("forrester").noise_std == 0.05
        assert get_benchmark("sinusoid").noise_std == 0.2

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            get_benchmark("rastrigin")
