"""ldplab benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload tilt-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in fresh processes with
BLAS pinned to one thread: two set-up-only processes and one that sets up
and runs the timed passes (``setup_s`` is the median of the three set-ups).
With ``--trace 1`` a single process runs one untraced and one traced pass
plus the layer probes, and prints the per-layer metrics.

Every op's outcome is printed by name.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when any op fails that is not a documented baseline
defect; documented defects still count in ``failed`` and in ``pass_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("tilt-small", "chain-ladder", "leaf-mass")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"), ("call_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("pass_frac", "1"))


def child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh process and return its JSON record."""
    # numpy's transparent-huge-page advice is off: whether the kernel can back
    # an array with huge pages depends on the machine's memory state, not on
    # the program.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, NUMPY_MADVISE_HUGEPAGE="0")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (run record, metrics as {name: {"value", "unit"}})."""
    if trace:
        record = child(workload, seed, seconds, 1)
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in record["per_layer"].items()}
        return record, metrics
    setups = [child(workload, seed, seconds, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    record = child(workload, seed, seconds, 0)
    setups.append(record["setup_s"])
    record["setup_s"] = statistics.median(setups)
    record["pass_frac"] = 1.0 - record["failed"] / record["attempted"]
    metrics = {name: {"value": record[name], "unit": u} for name, u in END_TO_END}
    return record, metrics


def report(record: dict, metrics: dict) -> None:
    env = record["env"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['ops_per_pass']} ops x {record['passes']} passes, deadline {record['deadline_s']:g} s; "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}")
    for s in record["systems"]:
        print(f"   system {s['name']}: m={s['m']} memory={s['memory']} states={s['states']} "
              f"edges={s['edges']} draws={s['attempts']}")
    for op in record["ops"]:
        tag = "PASS" if op["status"] == "pass" else "FAIL"
        note = "" if op["status"] == "pass" else f"  [{op['status']}: {op['detail']}]"
        if op["defect"] and op["status"] != "pass":
            note += f"  documented baseline defect, {op['defect']}"
        print(f"   {tag} {1e3 * op['seconds']:10.2f} ms  {op['name']}{note}")
    print(f"   fail_frac = {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4f}")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/ldplab/__init__.py", "specs/fs2.json", "specs/golden.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not an ldplab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        record, wl_metrics = run_workload(name, args.seed, args.seconds, args.trace)
        report(record, wl_metrics)
        correct &= not record["unexpected_failures"]
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
