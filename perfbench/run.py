"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload core_stream --seed 1 \
        --seconds 30 --trace 0

Workloads are ``core_stream``, ``fleet_thread``, ``fleet_process`` and
``http_gateway`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it spends half
its time untraced and half with spans recorded, and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS and OpenMP are pinned to one thread here, before numpy is first
imported, and in every process the run starts; the run refuses to
measure if the pin did not take effect.  Everything the run writes
goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORKLOADS = ("core_stream", "fleet_thread", "fleet_process", "http_gateway")
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Exit codes for runs that measure nothing.
EXIT_NO_PROGRAM = 2
EXIT_UNPINNED = 3

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS numpy or scipy loaded, by file."""
    import ctypes
    import glob

    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    for path in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        library = ctypes.CDLL(path)
        for name in names:
            if hasattr(library, name):
                getter = getattr(library, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = int(getter())
                break
    return found


def place_processes() -> tuple[set[int], set[int]]:
    """Pin this process to one CPU; return it and the CPUs for children.

    The client and any in-process runtime share one interpreter lock,
    so their threads run on one CPU: spread over two, they hand the
    lock back and forth across CPUs, and one 20 s run measured half
    the throughput of the next.  Worker processes and the gateway get
    the remaining CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    own = {cpus[0]}
    os.sched_setaffinity(0, own)
    return own, set(cpus[1:]) or own


def environment(seed: int, own: set[int], children: set[int]) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
        "cpus": {"benchmark": sorted(own), "children": sorted(children)},
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def check_counts(workdir: Path, workload: str, seed: int, counts: dict):
    """Compare this run's exact counters with the first run of the seed."""
    path = workdir / "counts" / f"{workload}-seed{seed}.json"
    if path.exists():
        first = json.loads(path.read_text())
        return [
            f"{key}: {counts.get(key)!r} != first run's {value!r}"
            for key, value in first.items()
            if counts.get(key) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def print_table(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit, note in rows:
        print(f"#   {name:<44} {value:>16.6g} {unit:<9} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program sources at {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM
    workdir = ROOT / ".perfbench"
    shutil.rmtree(workdir / "store", ignore_errors=True)
    shutil.rmtree(workdir / "tmp", ignore_errors=True)
    (workdir / "store").mkdir(parents=True)
    (workdir / "tmp").mkdir()
    # Pins and TMPDIR must be in the environment before numpy is first
    # imported; worker processes and the gateway inherit both.
    os.environ.update(THREAD_PINS)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    own, children = place_processes()

    env = environment(args.seed, own, children)
    print("# environment " + json.dumps(env, sort_keys=True))
    threads = env["blas_threads"]
    if not threads or any(count != 1 for count in threads.values()):
        print(
            f"perfbench: BLAS thread pin did not take effect: {threads}",
            file=sys.stderr,
        )
        return EXIT_UNPINNED

    import workloads
    from layers import PER_LAYER

    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            ROOT, workdir, children,
        )
    finally:
        shutil.rmtree(workdir / "store", ignore_errors=True)
        shutil.rmtree(workdir / "tmp", ignore_errors=True)

    problems = list(outcome.problems)
    problems += check_counts(workdir, args.workload, args.seed,
                             outcome.counts)
    print("# exact counts " + json.dumps(outcome.counts, sort_keys=True))
    if outcome.info:
        print("# info " + json.dumps(outcome.info, sort_keys=True))
    if args.trace:
        untraced = outcome.info["untraced_slices_per_s"]
        print_table(
            f"{args.workload} per-layer (traced); untraced slices_per_s "
            f"{untraced:.1f}",
            [
                (name, outcome.per_layer.get(name, 0.0), unit,
                 "" if name in outcome.per_layer else "(not crossed)")
                for name, unit in PER_LAYER.items()
            ],
        )
        metrics = {
            name: {"value": outcome.per_layer.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        rows = [
            (name, value, unit, "")
            for name, (value, unit) in outcome.metrics.items()
        ]
        rows += [
            (name, value, "ms", f"p{percentile:.2f} of n={n}, not gated")
            for name, (value, percentile, n) in outcome.tails.items()
        ]
        print_table(f"{args.workload} end-to-end", rows)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        }
    for problem in problems:
        print(f"# problem: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems and outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
