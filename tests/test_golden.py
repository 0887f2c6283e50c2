"""Golden traces: short runs of every method, compared byte for byte with the
checked-in CSVs in ``tests/golden/``.

A change that keeps trajectories passes unchanged. A change meant to alter
them regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden.py

MLP bits depend on the BLAS build, so the comparison is skipped unless the
numpy and scipy versions and the machine match the ones recorded in
``tests/golden/environment.json``.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

import borekit as bk

GOLDEN = Path(__file__).parent / "golden"

MIXED = bk.SearchSpace((bk.Continuous(-2.0, 2.0), bk.Ordinal((0.0, 0.5, 1.0, 2.0)), bk.Categorical(3)))


def _environment() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__, "scipy": scipy.__version__}


def _forrester() -> bk.Problem:
    bench = bk.get_benchmark("forrester")
    return bk.Problem(objective=lambda x: bench.fn(float(x[0])), space=bench.space,
                      known_minimum=bench.minimum_value, noise_std=bench.noise_std)


def _mixed() -> bk.Problem:
    def objective(x):
        return (x[0] - 0.5) ** 2 + (x[1] - 1.0) ** 2 + (0.0, 0.3, 0.7)[int(x[2])]

    return bk.Problem(objective=objective, space=MIXED, known_minimum=0.0, noise_std=0.1)


MLP = bk.MlpConfig(steps_per_iteration=20)
FOREST = bk.ForestConfig(n_trees=5)
DE = bk.MaximizerBudget(max_evals=100)    # auto: differential evolution for the forest
RANDOM = bk.MaximizerBudget(max_evals=50)  # auto: random search on the mixed space
SHORT = dict(n_init=4, n_iterations=8, seed=0)

CASES = {
    # auto: gradient multistart
    "forrester_bore_mlp": lambda: bk.run_bore(_forrester(), classifier="mlp", mlp_config=MLP, **SHORT),
    **{f"forrester_bore_rf_{c}": (lambda c=c: bk.run_bore(
        _forrester(), classifier="rf", forest_config=FOREST, budget=DE, calibration=c, **SHORT))
       for c in ("none", "platt", "isotonic")},
    "mixed_bore_mlp": lambda: bk.run_bore(_mixed(), classifier="mlp", mlp_config=MLP,
                                          budget=RANDOM, **SHORT),
    "mixed_bore_rf": lambda: bk.run_bore(_mixed(), classifier="rf", forest_config=FOREST,
                                         budget=RANDOM, **SHORT),
    "forrester_tpe": lambda: bk.run_tpe(_forrester(), **SHORT),
    "mixed_tpe": lambda: bk.run_tpe(_mixed(), **SHORT),
    "forrester_random": lambda: bk.run_random_search(_forrester(), 12, seed=0),
    "mixed_random": lambda: bk.run_random_search(_mixed(), 12, seed=0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, tmp_path):
    recorded = json.loads((GOLDEN / "environment.json").read_text(encoding="utf-8"))
    if recorded != _environment():
        pytest.skip(f"goldens were written with {recorded}, this is {_environment()}; "
                    "MLP bits depend on the BLAS build")
    path = tmp_path / f"{name}.csv"
    bk.write_trace_csv(CASES[name](), path)
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in CASES.items():
        bk.write_trace_csv(run(), GOLDEN / f"{name}.csv")
    with open(GOLDEN / "environment.json", "w", encoding="utf-8") as fh:
        json.dump(_environment(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} golden traces to {GOLDEN}")
