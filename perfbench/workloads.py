"""The benchmark's workloads: which methods run on which problems, and why.

A workload is a list of cases, each one (method, problem, settings). One
round runs every case once, in order, with one run seed. Rounds
``0 .. quality_rounds - 1`` use run seeds ``0 .. quality_rounds - 1`` for
every workload seed: ``regret_p50`` is taken over exactly those runs, so it
moves only when the code changes trajectories, never with the seed. Later
rounds, which fill the measuring time, draw their run seeds from the
workload seed. A workload runs at least ``min_rounds`` rounds: enough for
``MIN_STEPS`` model-guided steps per case, so that each case's
``step_ms_p90`` rests on at least that many samples, and on ``mixed``, whose
runs vary most in cost with the seed, three rounds so that its times spread
less over workload seeds.

All workloads use gamma = 1/3, 4 initial points and noise-free objectives,
and run one optimisation at a time in one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Case", "Workload", "WORKLOADS", "run_seed"]

GAMMA = 1.0 / 3.0
N_INIT = 4
MIN_STEPS = 100


@dataclass(frozen=True)
class Case:
    method: str  # "bore-mlp", "bore-rf" or "tpe"
    problem: str
    n_iterations: int
    max_evals: int = 0  # acquisition budget handed to maximizers.suggest (bore only)
    calibration: str = "none"

    @property
    def label(self) -> str:
        cal = "" if self.calibration == "none" else f"+{self.calibration}"
        return f"{self.method}{cal}/{self.problem}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple
    quality_rounds: int
    min_rounds: int
    problems: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(dict.fromkeys(c.problem for c in self.cases)))
        assert self.min_rounds >= self.quality_rounds
        assert self.min_rounds * min(c.n_iterations for c in self.cases) >= MIN_STEPS


# bundled-config settings: 400 Adam steps per iteration, 100 trees, TPE with
# 64 candidates
MLP_STEPS = 400
N_TREES = 100
TPE_CANDIDATES = 64

_CONTINUOUS = ("forrester", "branin", "hartmann6")

WORKLOADS = {w.name: w for w in (
    Workload(
        "cont-mlp",
        "bore-mlp with gradient multistart: MLP fit and predict/input gradient; "
        "forest, DE and KDE idle",
        tuple(Case("bore-mlp", p, 30, max_evals=2000) for p in _CONTINUOUS),
        quality_rounds=3,
        min_rounds=4,
    ),
    Workload(
        "cont-rf",
        "bore-rf with DE scoring single points; Platt and isotonic on the out-of-bag "
        "path; MLP idle",
        tuple(Case("bore-rf", p, 30, max_evals=2000, calibration=cal)
              for p, cal in zip(_CONTINUOUS, ("none", "platt", "isotonic"))),
        quality_rounds=2,
        min_rounds=4,
    ),
    Workload(
        "mixed",
        "5-d mixed space, random-search maximizer: forest subset splits, one-hot "
        "MLP mini-batches, and a rounded variant whose ties can fail a run",
        tuple(Case(m, p, 70, max_evals=500)
              for m in ("bore-rf", "bore-mlp") for p in ("mixed", "mixed-round")),
        quality_rounds=1,
        min_rounds=3,
    ),
    Workload(
        "tpe",
        "run_tpe: KDE pdf_batch scoring; every classifier and maximizer bypassed",
        (Case("tpe", "hartmann6", 30), Case("tpe", "mixed", 30)),
        quality_rounds=15,
        min_rounds=15,
    ),
)}


def run_seed(workload: Workload, seed: int, round_index: int) -> int:
    """Run seed of every case in round ``round_index`` for workload seed ``seed``."""
    if round_index < workload.quality_rounds:
        return round_index
    return 100_000 * (seed + 1) + round_index
