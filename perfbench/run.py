"""borekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cont-mlp --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout. One process runs one optimisation at a time, with BLAS pinned
to one thread.

``--trace 0`` times the workload untraced for at least ``--seconds`` and
prints the end-to-end metrics. ``--trace 1`` runs each optimisation twice,
untraced and with spans around every library layer (``tracer.py``), checks
that both produce byte-identical trace CSVs, and prints the per-layer
metrics and the tracing overhead. Every run's output is checked; a violated
check makes the command exit with 1. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, with provenance and every failure, go to ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from setup_time import set_up  # noqa: E402
from tracer import MAXIMIZER_FUNCTIONS, Tracer  # noqa: E402
from workloads import GAMMA, MLP_STEPS, N_INIT, N_TREES, TPE_CANDIDATES, WORKLOADS, Case, run_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a run still going after this long is stopped and counted as failed; the
# slowest case takes under 4 s on a 2-vCPU x86-64 box
RUN_LIMIT_S = 20.0


class RunTimeout(Exception):
    pass


def _stop_run(_signum, _frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S:g} s")


class EvalLog:
    """A problem's objective that notes each value and when its evaluation
    finished, so a run that raised can still be timed and scored."""

    def __init__(self, fn):
        self.fn = fn
        self.times: list[float] = []
        self.ys: list[float] = []

    def __call__(self, x):
        y = self.fn(x)
        self.times.append(perf_counter())
        self.ys.append(y)
        return y


@dataclasses.dataclass
class Run:
    case: Case
    seed: int
    wall_s: float
    trace: object  # RunTrace, or None when the run raised
    error: str | None
    eval_times: list
    regret: float | None  # final regret; for a run that raised, that of its best evaluation

    @property
    def evaluations(self) -> int:
        return len(self.eval_times)


def execute(bk, case, problem, seed: int, tracer=None) -> Run:
    log = EvalLog(problem.objective)
    problem = dataclasses.replace(problem, objective=log if tracer is None else tracer.objective(log))
    signal.signal(signal.SIGALRM, _stop_run)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    t0 = perf_counter()
    try:
        if case.method == "tpe":
            trace = bk.run_tpe(problem, gamma=GAMMA, n_init=N_INIT, n_iterations=case.n_iterations,
                               candidates=TPE_CANDIDATES, seed=seed)
        else:
            trace = bk.run_bore(problem, gamma=GAMMA, classifier=case.method.removeprefix("bore-"),
                                n_init=N_INIT, n_iterations=case.n_iterations, seed=seed,
                                budget=bk.MaximizerBudget(max_evals=case.max_evals),
                                mlp_config=bk.MlpConfig(steps_per_iteration=MLP_STEPS),
                                forest_config=bk.ForestConfig(n_trees=N_TREES),
                                calibration=case.calibration)
        error = None
    except Exception as exc:  # a run that raises is recorded, never retried or dropped
        trace, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    wall_s = perf_counter() - t0
    if trace is not None:
        regret = trace.final_regret()
    else:
        regret = abs(min(log.ys) - problem.known_minimum) if log.ys else None
    return Run(case, seed, wall_s, trace, error, log.times, regret)


def check_run(run: Run, problem) -> list[str]:
    """Violations of the output contract by one run (empty when it holds)."""
    expected = N_INIT + run.case.n_iterations
    where = f"{run.case.label} seed {run.seed}"
    if run.trace is None:
        if run.evaluations == 0:
            return [f"{where}: raised before its first evaluation"]
        return [] if run.evaluations < expected else [f"{where}: raised after its last evaluation"]
    records = run.trace.records
    if len(records) != expected:
        return [f"{where}: {len(records)} records, expected {expected}"]
    bad = []
    best = float("inf")
    previous_regret = float("inf")
    for i, r in enumerate(records):
        phase = "init" if i < N_INIT else "bo"
        best = min(best, r.y)
        if r.iteration != i or r.phase != phase:
            bad.append(f"record {i}: iteration {r.iteration}, phase {r.phase!r}")
        if not problem.space.contains(r.x):
            bad.append(f"record {i}: x={r.x.tolist()} outside the space")
        elif r.y != problem.objective(r.x):
            bad.append(f"record {i}: y={r.y!r} is not f(x)")
        if r.incumbent != best:
            bad.append(f"record {i}: incumbent {r.incumbent!r}, running min {best!r}")
        if r.y < problem.known_minimum - 1e-9:
            bad.append(f"record {i}: y={r.y!r} below the known minimum")
        if r.regret is None or not 0.0 <= r.regret <= previous_regret:
            bad.append(f"record {i}: regret {r.regret!r} after {previous_regret!r}")
        else:
            previous_regret = r.regret
    return [f"{where}: {b}" for b in bad]


def step_seconds(run: Run) -> list[float]:
    """Latency of each completed model-guided step: the gap between one
    evaluation's record and the next, from the first ``bo`` record on."""
    t = [r.elapsed_s for r in run.trace.records] if run.trace is not None else run.eval_times
    return [t[i] - t[i - 1] for i in range(N_INIT, len(t))]


def trace_csv(bk, trace, directory: Path) -> bytes:
    path = directory / "trace.csv"
    bk.write_trace_csv(trace, path)
    return path.read_bytes()


def setup_times(workload: str) -> list[float]:
    """Wall time of cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_time.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def provenance(bk, workload, seed: int, trace: int) -> dict:
    src = ROOT / "src" / "borekit"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() if done.returncode == 0 else None
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "borekit": bk.__version__, "git_sha": git_sha, "src_sha256": digest.hexdigest(),
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def measure(bk, workload, problems, seed: int, seconds: float):
    """Untraced rounds for at least ``seconds`` and ``workload.min_rounds``."""
    runs = []
    t0 = perf_counter()
    r = 0
    while r < workload.min_rounds or perf_counter() - t0 < seconds:
        s = run_seed(workload, seed, r)
        for case in workload.cases:
            runs.append(execute(bk, case, problems[case.problem], s))
        r += 1
    return runs, perf_counter() - t0


def end_to_end(workload, runs, wall_s: float, setup: list[float]) -> tuple[dict, dict]:
    # times are summarised per case, then averaged over the cases: pooled,
    # a percentile can sit between two cases' modes and jump with the seed.
    # A run that raised has no run time, but its completed steps count, its
    # best evaluation counts toward regret, and it lowers completed_frac.
    ok = [run for run in runs if run.error is None]
    walls: dict = {}
    steps: dict = {}
    for run in runs:
        steps.setdefault(run.case, []).extend(step_seconds(run))
        if run.error is None:
            walls.setdefault(run.case, []).append(run.wall_s)

    def step_ms(q):
        return metric(1e3 * statistics.fmean(percentile(v, q) for v in steps.values() if v), "ms")

    quality = [run.regret for run in runs
               if run.seed < workload.quality_rounds and run.regret is not None]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s_p50": metric(statistics.fmean(statistics.median(w) for w in walls.values()), "s"),
        "evals_per_s": metric(sum(run.evaluations for run in runs) / wall_s, "1/s"),
        "step_ms_p50": step_ms(50),
        "step_ms_p90": step_ms(90),
        "regret_p50": metric(statistics.median(quality), "objective"),
        "completed_frac": metric(len(ok) / len(runs), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "failed_frac": (len(runs) - len(ok)) / len(runs),
        "steps": {case.label: len(v) for case, v in steps.items()},
        "runs": len(runs),
        "quality_runs": len(quality),
        "wall_s": wall_s,
        "setup_s_samples": setup,
    }
    return metrics, extra


def measure_traced(bk, workload, problems, seed: int, seconds: float, tracer):
    """Each run untraced and traced, alternating which goes first, for at
    least ``seconds``; returns the runs and the byte-identity violations."""
    runs, violations = [], []
    untraced_s = traced_s = 0.0
    pairs = 0
    t0 = perf_counter()
    r = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        while r < 1 or perf_counter() - t0 < seconds:
            s = run_seed(workload, seed, r)
            for case in workload.cases:
                problem = problems[case.problem]
                pair = {}
                for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                    if traced:
                        tracer.run_id = pairs
                        with tracer.installed():
                            pair[traced] = execute(bk, case, problem, s, tracer)
                    else:
                        pair[traced] = execute(bk, case, problem, s)
                plain, spanned = pair[False], pair[True]
                untraced_s += plain.wall_s
                traced_s += spanned.wall_s
                if plain.error != spanned.error:
                    violations.append(f"{case.label} seed {s}: untraced raised {plain.error!r}, "
                                      f"traced raised {spanned.error!r}")
                elif plain.trace is not None and (trace_csv(bk, plain.trace, Path(tmp))
                                                  != trace_csv(bk, spanned.trace, Path(tmp))):
                    violations.append(f"{case.label} seed {s}: traced CSV differs from untraced")
                runs += [plain, spanned]
                pairs += 1
            r += 1
    return runs, violations, traced_s / untraced_s - 1.0


def per_layer(tracer, n_runs: int, overhead_frac: float) -> dict:
    total, self_s, calls, counts = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts

    def per_run(value, unit):
        return metric(value / n_runs, unit)

    def rate(points, seconds):
        return metric(points / seconds if seconds > 0 else 0.0, "points/s")

    adam_steps = counts["mlp.adam_steps"]
    metrics = {
        "loop.step.calls": per_run(calls["loop.bore_step"] + calls["kde.tpe_suggest"], "calls/run"),
        "loop.step.s": per_run(total["loop.bore_step"] + total["kde.tpe_suggest"], "s/run"),
        "loop.evaluate.s": per_run(total["loop.evaluate"], "s/run"),
        "space.assign_labels.calls": per_run(calls["space.assign_labels"], "calls/run"),
        "space.assign_labels.s": per_run(total["space.assign_labels"], "s/run"),
        "mlp.fit.calls": per_run(calls["mlp.fit"], "calls/run"),
        "mlp.fit.s": per_run(total["mlp.fit"], "s/run"),
        "mlp.adam_steps": per_run(adam_steps, "steps/run"),
        "mlp.adam_step_us": metric(1e6 * total["mlp.fit"] / adam_steps if adam_steps else 0.0, "us"),
        "mlp.predict.points": per_run(counts["mlp.predict.points"], "points/run"),
        "mlp.predict.s": per_run(total["mlp.predict"], "s/run"),
        "mlp.input_gradient.calls": per_run(calls["mlp.input_gradient"], "calls/run"),
        "mlp.input_gradient.s": per_run(total["mlp.input_gradient"], "s/run"),
        "forest.fit.calls": per_run(calls["forest.fit"], "calls/run"),
        "forest.fit.s": per_run(total["forest.fit"], "s/run"),
        "forest.fit.trees": per_run(counts["forest.fit.trees"], "trees/run"),
        "forest.predict.points": per_run(counts["forest.predict.points"], "points/run"),
        "forest.predict.s": per_run(total["forest.predict"], "s/run"),
        "forest.predict.points_per_s": rate(counts["forest.predict.points"], total["forest.predict"]),
        "forest.oob_scores.s": per_run(total["forest.oob_scores"], "s/run"),
        "calibration.fit.s": per_run(total["calibration.fit"], "s/run"),
        "calibration.predict.points": per_run(counts["calibration.predict.points"], "points/run"),
        "kde.tpe_suggest.s": per_run(total["kde.tpe_suggest"], "s/run"),
        "kde.pdf_batch.points": per_run(counts["kde.pdf_batch.points"], "points/run"),
        "kde.pdf_batch.s": per_run(total["kde.pdf_batch"], "s/run"),
        "kde.pdf_batch.points_per_s": rate(counts["kde.pdf_batch.points"], total["kde.pdf_batch"]),
        "maximizers.suggest.calls": per_run(calls["maximizers.suggest"], "calls/run"),
        "maximizers.suggest.s": per_run(total["maximizers.suggest"], "s/run"),
        "maximizers.suggest.self_s": per_run(self_s["maximizers.suggest"], "s/run"),
        "maximizers.acq_evals": per_run(counts["maximizers.acq_evals"], "points/run"),
        "maximizers.budget_use": metric(counts["maximizers.acq_evals"] / counts["maximizers.max_evals"]
                                        if counts["maximizers.max_evals"] else 0.0, "ratio"),
    }
    for method in MAXIMIZER_FUNCTIONS.values():
        metrics[f"maximizers.{method}.calls"] = per_run(counts[f"maximizers.{method}.calls"], "calls/run")
    metrics["trace.overhead_frac"] = metric(overhead_frac, "ratio")
    return metrics


def print_runs(runs) -> None:
    by_case: dict = {}
    for run in runs:
        by_case.setdefault(run.case.label, []).append(run)
    print(f"{'case':34s} {'runs':>5s} {'failed':>6s} {'run_s_p50':>10s} {'regret_p50':>11s}")
    for label, group in by_case.items():
        ok = [run for run in group if run.error is None]
        wall = statistics.median(run.wall_s for run in ok) if ok else float("nan")
        regrets = [run.regret for run in group if run.regret is not None]
        regret = statistics.median(regrets) if regrets else float("nan")
        print(f"{label:34s} {len(group):5d} {len(group) - len(ok):6d} {wall:10.4f} {regret:11.4g}")
    for run in runs:
        if run.error is not None:
            print(f"failed: {run.case.method} {run.case.problem} seed {run.seed}: {run.error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        setup = setup_times(workload.name) if args.trace == 0 else []
        bk, problems = set_up(workload.name)
    except (ImportError, RuntimeError, AssertionError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = provenance(bk, workload, args.seed, args.trace)
    print("provenance " + json.dumps(info, sort_keys=True))

    if args.trace == 0:
        runs, wall_s = measure(bk, workload, problems, args.seed, args.seconds)
        metrics, extra = end_to_end(workload, runs, wall_s, setup)
        violations = []
        print(f"steps per case {extra['steps']}  runs {extra['runs']}  quality runs {extra['quality_runs']}  "
              f"failed_frac {extra['failed_frac']:.4f} ratio  wall {wall_s:.2f} s")
    else:
        tracer = Tracer()
        runs, violations, overhead = measure_traced(bk, workload, problems, args.seed,
                                                    args.seconds, tracer)
        metrics = per_layer(tracer, len(runs) // 2, overhead)
        extra = {"traced_runs": len(runs) // 2, "spans": len(tracer.name),
                 "self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
                 "calls": dict(tracer.calls)}
        tracer.write(OUT / f"spans-{workload.name}.npz")
        print(f"{'span':28s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
        for name in tracer.names:
            print(f"{name:28s} {tracer.calls[name]:9d} {tracer.total_s[name]:9.3f} "
                  f"{tracer.self_s[name]:9.3f}")

    for run in runs:
        violations += check_run(run, problems[run.case.problem])
    print_runs(runs)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    for v in violations:
        print(f"VIOLATION {v}")

    failed = sum(run.error is not None for run in runs)
    failures = [{"method": run.case.method, "problem": run.case.problem, "seed": run.seed,
                 "error": run.error} for run in runs if run.error is not None]
    result = {"correct": not violations, "attempted": len(runs), "failed": failed, "metrics": metrics}
    detail = {**result, "provenance": info, "extra": extra, "failures": failures,
              "violations": violations}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
