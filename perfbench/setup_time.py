"""Set-up of a workload: import ``borekit`` from this checkout's ``src/``,
build the workload's problems and check their known minima.

Run as a script, ``python3 perfbench/setup_time.py <workload>`` does one cold
set-up in a fresh interpreter and prints its wall time in seconds; ``run.py``
starts it several times and reports the median as ``setup_s``.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """``borekit`` from ``SRC``; an install elsewhere is refused, not measured."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import borekit

    if Path(borekit.__file__).resolve().parent != (SRC / "borekit").resolve():
        raise ImportError(f"borekit was imported from {borekit.__file__}, not from {SRC}")
    return borekit


def set_up(workload_name: str):
    """(borekit, {problem name: Problem}) for the workload, minima checked."""
    bk = import_library()
    from problems import build_problems
    from workloads import WORKLOADS

    return bk, build_problems(bk, WORKLOADS[workload_name].problems)


if __name__ == "__main__":
    set_up(sys.argv[1])
    print(repr(perf_counter() - T0))
