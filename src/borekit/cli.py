"""Command-line front end: configure and run experiments, aggregate traces,
and emit the density-ratio demo grid.

Subcommands:
  run        execute a configured experiment over its seeds
  aggregate  per-iteration regret quantiles across trace files
  dre-demo   grid CSV comparing true, KDE, MLP and forest ratio estimates

Run configurations are JSON; every field has a default and the fully
resolved configuration is echoed to ``manifest.json`` next to the traces, so
a manifest re-run reproduces the same outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .benchmarks import BENCHMARK_NAMES, get_benchmark
from .calibration import CALIBRATION_METHODS
from .forest import ForestConfig, fit_forest_classifier
from .kde import Kde, ToyMixture
from .loop import Problem, run_bore, run_random_search, run_tpe, write_trace_csv
from .maximizers import MAXIMIZER_METHODS, MaximizerBudget
from .mlp import MlpClassifier, MlpConfig
from .space import Continuous, LabeledSet, SearchSpace

METHODS = ("bore-mlp", "bore-rf", "tpe", "random")


def _defaults(config_cls, exposed: tuple[str, ...]) -> dict:
    """The dataclass defaults of the fields a run configuration may set."""
    return {f.name: f.default for f in dataclasses.fields(config_cls) if f.name in exposed}


# bore method -> (run_bore classifier kind, run_bore keyword, config class, defaults);
# seed and the Adam constants stay unexposed, the run seed drives the classifier
BORE_CLASSIFIERS = {
    "bore-mlp": ("mlp", "mlp_config", MlpConfig, _defaults(MlpConfig, (
        "hidden_widths", "activation", "batch_size", "steps_per_iteration", "learning_rate"))),
    "bore-rf": ("rf", "forest_config", ForestConfig, _defaults(ForestConfig, (
        "n_trees", "min_samples_split", "max_depth", "bootstrap", "features_per_split"))),
}


class ConfigError(ValueError):
    pass


def _resolve_seeds(raw) -> list[int]:
    if isinstance(raw, list):
        seeds = [int(s) for s in raw]
    elif isinstance(raw, dict):
        seeds = [int(raw.get("base", 0)) + i for i in range(int(raw["count"]))]
    else:
        raise ConfigError(f"seeds must be a list or {{count, base}}, got {raw!r}")
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    return seeds


def resolve_config(raw: dict) -> dict:
    """Validate a run configuration and materialize every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"benchmark", "method", "gamma", "n_init", "n_iterations", "seeds",
             "noise_std", "tpe_candidates", "calibration", "classifier",
             "maximizer", "workers", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    method = raw.get("method", "bore-mlp")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; available: {', '.join(METHODS)}")
    benchmark = raw.get("benchmark", "forrester")
    if benchmark not in BENCHMARK_NAMES:
        raise ConfigError(f"unknown benchmark {benchmark!r}; available: {', '.join(BENCHMARK_NAMES)}")
    gamma = float(raw.get("gamma", 1.0 / 3.0))
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    n_init = int(raw.get("n_init", 4))
    n_iterations = int(raw.get("n_iterations", 30))
    if n_init < 2 or n_iterations < 0:
        raise ConfigError("need n_init >= 2 and n_iterations >= 0")
    calibration = raw.get("calibration", "none")
    if calibration not in CALIBRATION_METHODS:
        raise ConfigError(f"unknown calibration {calibration!r}")

    bench = get_benchmark(benchmark)
    noise_std = raw.get("noise_std")
    noise_std = bench.noise_std if noise_std is None else float(noise_std)
    if noise_std < 0:
        raise ConfigError("noise_std must be nonnegative")

    maximizer = dict(raw.get("maximizer", {}))
    max_method = maximizer.get("method", "auto")
    if max_method not in MAXIMIZER_METHODS:
        raise ConfigError(f"unknown maximizer method {max_method!r}")
    max_evals = maximizer.get("max_evals")
    if max_evals is None:
        max_evals = 2000 if bench.space.all_continuous else 500
    max_evals = int(max_evals)
    if max_evals < 1:
        raise ConfigError("maximizer max_evals must be >= 1")

    classifier = dict(raw.get("classifier", {}))
    if method in BORE_CLASSIFIERS:
        *_, defaults = BORE_CLASSIFIERS[method]
        unknown = set(classifier) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown classifier fields for {method}: {sorted(unknown)}")
        classifier = {**defaults, **classifier}
    # tpe/random take no classifier; any block present is carried but unused

    workers = int(raw.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    return {
        "benchmark": benchmark,
        "method": method,
        "gamma": gamma,
        "n_init": n_init,
        "n_iterations": n_iterations,
        "seeds": _resolve_seeds(raw.get("seeds", {"count": 20, "base": 0})),
        "noise_std": noise_std,
        "tpe_candidates": int(raw.get("tpe_candidates", 64)),
        "calibration": calibration,
        "classifier": classifier,
        "maximizer": {"method": max_method, "max_evals": max_evals},
        "workers": workers,
        "output_dir": str(raw.get("output_dir", "results")),
    }


def _build_problem(config: dict) -> Problem:
    bench = get_benchmark(config["benchmark"], noise_std=config["noise_std"])
    return Problem(
        objective=lambda x: bench.fn(float(np.asarray(x).ravel()[0])),
        space=bench.space,
        known_minimum=bench.minimum_value,
        noise_std=bench.noise_std,
    )


def run_single_seed(config: dict, seed: int) -> Path:
    """Run one seed of a resolved configuration and write its trace CSV."""
    problem = _build_problem(config)
    method = config["method"]
    budget = MaximizerBudget(method=config["maximizer"]["method"],
                             max_evals=config["maximizer"]["max_evals"])
    if method in BORE_CLASSIFIERS:
        kind, keyword, config_cls, _ = BORE_CLASSIFIERS[method]
        trace = run_bore(problem, gamma=config["gamma"], classifier=kind,
                         n_init=config["n_init"], n_iterations=config["n_iterations"],
                         seed=seed, budget=budget, calibration=config["calibration"],
                         **{keyword: config_cls(**config["classifier"])})
    elif method == "tpe":
        trace = run_tpe(problem, gamma=config["gamma"], n_init=config["n_init"],
                        n_iterations=config["n_iterations"],
                        candidates=config["tpe_candidates"], seed=seed)
    else:
        trace = run_random_search(problem, config["n_init"] + config["n_iterations"], seed)

    path = Path(config["output_dir"]) / f"trace_seed{seed}.csv"
    write_trace_csv(trace, path)
    return path


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    for name in ("benchmark", "method", "gamma", "n_init", "n_iterations", "output_dir", "workers"):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            raw[name] = value
    if args.seeds is not None:
        raw["seeds"] = [int(s) for s in args.seeds.split(",")]

    try:
        config = resolve_config(raw)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(config["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")

    seeds = config["seeds"]
    if config["workers"] > 1:
        with ProcessPoolExecutor(max_workers=config["workers"]) as pool:
            paths = list(pool.map(run_single_seed, [config] * len(seeds), seeds))
    else:
        paths = [run_single_seed(config, seed) for seed in seeds]

    # aggregate exactly this run's traces; the directory may hold stale ones
    status = _aggregate_traces(sorted(paths), outdir / "aggregate.csv")
    if status != 0:
        return status
    print(f"wrote {len(paths)} trace files and aggregate to {outdir}")
    return 0


def _read_trace(path: Path) -> tuple[np.ndarray, str]:
    """Load (per-iteration metric values, metric name) from a trace CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    metric = "regret" if "regret" in header else "incumbent"
    col = header.index(metric)
    return np.array([float(r[col]) for r in rows]), metric


def _aggregate_traces(traces: list[Path], out_path: Path) -> int:
    loaded = [_read_trace(p) for p in traces]
    lengths = {len(values) for values, _ in loaded}
    if len(lengths) > 1:
        offenders = [str(p) for p, (values, _) in zip(traces, loaded)
                     if len(values) != len(loaded[0][0])]
        print("error: inconsistent iteration counts in: " + ", ".join(offenders),
              file=sys.stderr)
        return 2
    metric = loaded[0][1]
    matrix = np.vstack([values for values, _ in loaded])
    lines = [f"iteration,{metric}_median,{metric}_q25,{metric}_q75"]
    for i in range(matrix.shape[1]):
        med, q25, q75 = (float(np.percentile(matrix[:, i], q)) for q in (50, 25, 75))
        lines.append(f"{i},{med!r},{q25!r},{q75!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_aggregate(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    traces = sorted(directory.glob("trace_*.csv"))
    if not traces:
        print(f"error: no trace files in {directory}", file=sys.stderr)
        return 2
    out_path = Path(args.output or directory / "aggregate.csv")
    status = _aggregate_traces(traces, out_path)
    if status == 0:
        print(f"aggregated {len(traces)} traces into {out_path}")
    return status


def cmd_dre_demo(args) -> int:
    if not 0.0 < args.gamma < 1.0:
        print(f"error: gamma must lie in (0, 1), got {args.gamma}", file=sys.stderr)
        return 2
    toy = ToyMixture(gamma=args.gamma)
    xs, zs = toy.sample(args.n, seed=args.seed)
    space = SearchSpace((Continuous(-10.0, 10.0),))
    data = LabeledSet(xs=xs[:, None], zs=zs, tau=0.0, gamma=args.gamma)

    kde_l = Kde(space, xs[zs == 1][:, None])
    kde_g = Kde(space, xs[zs == 0][:, None])
    mlp = MlpClassifier(space, MlpConfig(hidden_widths=(32, 32, 32), activation="elu",
                                         steps_per_iteration=5000, learning_rate=3e-3,
                                         seed=args.seed))
    mlp.fit(data)
    forest = fit_forest_classifier(data, space, ForestConfig(seed=args.seed))

    grid = np.linspace(-6.0, 6.0, args.grid_size)
    g = args.gamma
    rows = []
    for x in grid:
        point = np.array([x])
        lhat = kde_l.pdf(point)
        ghat = kde_g.pdf(point)
        rows.append((
            x,
            toy.true_ratio(x, g),
            lhat / (g * lhat + (1.0 - g) * ghat),
            mlp.predict(point) / g,
            forest.predict(point) / g,
        ))

    out = Path(args.output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x,true_ratio,kde_ratio,mlp_ratio,rf_ratio\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {len(rows)}-row demo grid to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="borekit",
                                     description="Blackbox-optimization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment over its seeds")
    p_run.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_run.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    p_run.add_argument("--method", choices=METHODS)
    p_run.add_argument("--gamma", type=float)
    p_run.add_argument("--n-init", dest="n_init", type=int)
    p_run.add_argument("--n-iterations", dest="n_iterations", type=int)
    p_run.add_argument("--seeds", help="comma-separated seed list, overrides config")
    p_run.add_argument("--output-dir", dest="output_dir")
    p_run.add_argument("--workers", type=int)
    p_run.set_defaults(fn=cmd_run)

    p_agg = sub.add_parser("aggregate", help="aggregate regret quantiles across traces")
    p_agg.add_argument("directory", help="directory containing trace_*.csv files")
    p_agg.add_argument("--output", help="aggregate CSV path (default: <dir>/aggregate.csv)")
    p_agg.set_defaults(fn=cmd_aggregate)

    p_demo = sub.add_parser("dre-demo", help="emit the ratio-estimation demo grid CSV")
    p_demo.add_argument("--gamma", type=float, default=0.25)
    p_demo.add_argument("--n", type=int, default=1000)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--grid-size", dest="grid_size", type=int, default=512)
    p_demo.add_argument("--output", default="dre_demo.csv")
    p_demo.set_defaults(fn=cmd_dre_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
