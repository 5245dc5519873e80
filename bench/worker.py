"""One workload in one fresh process: set up, run the timed op passes, check.

Started by ``run.py``; prints one JSON object (the run record) as its last
stdout line and writes the same record, with the spans of a traced run, to
``.bench_runs/`` in the checkout.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402
import ldplab  # noqa: E402

import harness as H  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Span names whose summed time is a per-layer metric ("<name>.s").
SPAN_METRICS = (
    "sft.validate_spec", "thermo.recode", "thermo.primitivity_power", "thermo.rpf_solve",
    "thermo.pressure", "thermo.equilibrium_measure", "ldp.ergodic_range", "ldp.rate_scalar",
    "ldp.q_value", "ldp.q_derivative", "ldp.rate_curve", "ldp.contraction_check",
    "cli.run.ratecurve", "cli.run.qcurve", "ldp.deviation_mass_exact.dp",
    "ldp.deviation_mass_exact.enumerate", "ldp.deviation_mass_mc", "leaf.sample_paths",
    "leaf.leaf_measure", "leaf.gibbs_ratio_audit", "ldp.recommended_tilt",
)
#: Exact work counters.
COUNT_METRICS = (
    "thermo.states", "thermo.edges", "thermo.rpf_solve.iterations", "thermo.rpf_solve.failed",
    "ldp.rate_scalar.failed", "ldp.dp_cells", "ldp.enum_words", "ldp.mc_path_steps",
    "leaf.sample_steps", "leaf.audit_words",
)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ldplab": ldplab.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def run_probes(probes, tracer: H.Tracer) -> None:
    """Recode, primitivity_power, transfer_matrix and rpf_solve on fresh chains."""
    for probe in probes:
        spec = probe.system.spec
        with tracer.span("probe"):
            with tracer.span("thermo.recode"):
                chain = ldplab.recode(spec, probe.system.block)
            tracer.add("thermo.states", chain.num_states)
            tracer.add("thermo.edges", int(chain.adjacency.sum()))
            with tracer.span("thermo.primitivity_power"):
                chain.primitivity_power()
            with tracer.span("thermo.transfer_matrix"):
                M = ldplab.transfer_matrix(chain, probe.potential)
            try:
                with tracer.span("thermo.rpf_solve"), H.deadline(H.DEADLINE_S):
                    rpf = ldplab.rpf_solve(M)
                tracer.add("thermo.rpf_solve.iterations", rpf.iterations)
            except (H.DeadlineExceeded, ldplab.LdplabError):
                tracer.add("thermo.rpf_solve.failed", 1)


def per_layer(tracer: H.Tracer, traced_outcomes, traced_wall: float, untraced_wall: float) -> dict:
    out = {f"{name}.s": tracer.seconds(name) for name in SPAN_METRICS}
    counts = dict(tracer.counts)
    counts["ldp.rate_scalar.failed"] = sum(1 for o in traced_outcomes
                                           if o.op.span == "ldp.rate_scalar" and not o.ok)
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    dp_s, mc_s = out["ldp.deviation_mass_exact.dp.s"], out["ldp.deviation_mass_mc.s"]
    out["ldp.dp_cells_per_s"] = out["ldp.dp_cells"] / dp_s if dp_s > 0 else 0.0
    out["ldp.mc_steps_per_s"] = out["ldp.mc_path_steps"] / mc_s if mc_s > 0 else 0.0
    out["tracing_overhead_s"] = traced_wall - untraced_wall
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        tracer = H.Tracer() if args.trace else H.NullTracer()
        rng = np.random.default_rng(args.seed)
        workload = WORKLOADS[args.workload](rng, tracer, scratch)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            # One untraced and one traced pass, so counts are per pass and exact.
            wall, outcomes = H.run_pass(workload.ops, H.NullTracer())
            traced_wall, traced = H.run_pass(workload.ops, tracer)
            walls, outcomes_by_pass = [wall, traced_wall], [outcomes, traced]
            run_probes(workload.probes, tracer)
            layers = per_layer(tracer, traced.values(), traced_wall, wall)
        else:
            # A failed op is not run again: its failure stands for the run.
            walls, outcomes_by_pass, failed_ops = [], [], set()
            for _ in range(max(1, round(workload.passes * args.seconds / 30))):
                wall, outcomes = H.run_pass(workload.ops, H.NullTracer(), skip=failed_ops)
                walls.append(wall)
                outcomes_by_pass.append(outcomes)
                failed_ops |= {i for i, o in outcomes.items() if not o.ok}
            layers = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Each op counts at its mean latency over the passes that ran it.  In the
    # latency percentiles a failed op counts at no less than the deadline, so
    # it ranks as the slowest.
    per_op, latency, ranked = [], [], []
    for i, op in enumerate(workload.ops):
        runs_of_op = [outcomes[i] for outcomes in outcomes_by_pass if i in outcomes]
        bad = [o for o in runs_of_op if not o.ok]
        latency.append(sum(o.seconds for o in runs_of_op) / len(runs_of_op))
        ranked.append(max(latency[-1], H.DEADLINE_S) if bad else latency[-1])
        per_op.append({"name": op.name, "status": bad[0].status if bad else "pass",
                       "seconds": latency[-1], "by_pass": [o.seconds for o in runs_of_op],
                       "detail": bad[0].detail if bad else "", "defect": op.defect})
    attempted = sum(len(outcomes) for outcomes in outcomes_by_pass)
    failed = sum(1 for outcomes in outcomes_by_pass for o in outcomes.values() if not o.ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "systems": [s.record() for s in workload.systems],
        "deadline_s": H.DEADLINE_S,
        "passes": len(walls),
        "ops_per_pass": len(workload.ops),
        "setup_s": setup_s,
        "wall_s": sum(latency),
        "pass_walls": walls,
        "call_p50_ms": 1e3 * H.percentile(ranked, 50),
        "call_p90_ms": 1e3 * H.percentile(ranked, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": [p["name"] for p in per_op if p["status"] != "pass" and not p["defect"]],
        "ops": per_op,
        "per_layer": layers,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(runs, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(runs, name + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
