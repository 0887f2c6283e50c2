"""Run ``run.py`` on every workload over several seeds and summarise.

    python3 perfbench/repeat.py --seeds 0-9 --seconds 20 --out perfbench/out/summary.json

Each (workload, seed) runs untraced in its own process, one after another.
Then each workload runs once traced, on the first seed. For every end-to-end metric the summary gives the median and the
quartiles of the seeds' values (``statistics.quantiles(values, n=4)``), and
their spread: the distance between the quartiles as a share of the median.
It prints all of this and writes it as JSON. The exit code is 1 if any run
exits non-zero or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        return done.returncode, None
    return done.returncode, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    ok = True
    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        values: dict = {}
        attempted = failed = 0
        for seed in summary["seeds"]:
            code, result = run(workload, seed, args.seconds, 0)
            ok &= code == 0 and result is not None and result["correct"]
            if result is None:
                print(f"{workload} seed {seed}: exit {code}, no result")
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: exit {code} correct {result['correct']} "
                  f"runs {result['attempted']} failed {result['failed']}", flush=True)
        detail = HERE / "out" / f"{workload}-seed{summary['seeds'][0]}-trace0.json"
        if "provenance" not in summary and detail.exists():
            provenance = json.loads(detail.read_text())["provenance"]
            summary["provenance"] = {k: v for k, v in provenance.items()
                                     if k not in ("workload", "seed", "trace")}
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {name: summarise(v) for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:9s} {name:12s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {spread}")
        code, result = run(workload, summary["seeds"][0], args.seconds, 1)
        ok &= code == 0 and result is not None and result["correct"]
        entry["per_layer"] = result["metrics"] if result else None
        for name, m in (result or {}).get("metrics", {}).items():
            print(f"  {workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
        summary["workloads"][workload] = entry

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
