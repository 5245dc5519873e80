"""The three benchmark workloads: inputs from the seed, op lists, oracles, probes.

Each workload function takes the seed's generator, a tracer (spans of the set-up's
library calls) and a scratch directory, and returns a :class:`Workload`.
Everything built here is set-up; the ops run later, timed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import ldplab
from ldplab import Interval, Potential
from ldplab import cli as ldcli

import oracles as O
import systems as S
from harness import Op, Tracer, close, first

ITEM2 = "ROADMAP item 2 (Perron solver that always terminates)"
ITEM5 = "ROADMAP item 5 (log-scaled deviation DP)"


@dataclass(eq=False)
class Probe:
    """A traced-run-only call sequence on a fresh chain: recode,
    primitivity_power, transfer_matrix and rpf_solve for one potential."""

    system: S.System
    potential: Potential


@dataclass(eq=False)
class Workload:
    """``passes`` is the number of timed passes in a 30 s run.  tilt-small
    makes one more than the others: after its first pass, which carries the
    18 s of deadline failures, a pass costs only ~7 s, and its small ops need
    the extra samples."""

    name: str
    passes: int
    systems: list
    ops: list
    probes: list = field(default_factory=list)


class Context(dict):
    """Results of earlier ops that later ops read (leaf measures, DP points)."""

    def keep(self, key, fn):
        def call():
            self[key] = fn()
            return self[key]
        return call


def shuffled(ops: list) -> list:
    """The ops in a fixed pseudo-random order, the same for every seed.

    Each kind of op is spread over the whole pass, so its latencies sample
    the machine's speed over the pass, not over one stretch of it; a fixed
    order keeps the allocation history the same across seeds.
    """
    return [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]


def load_specs(root: str, tracer: Tracer):
    """fs2 and golden mean from specs/, through the CLI's spec loader."""
    load = tracer.wrap("cli.load_spec", ldcli.load_spec)
    fs_spec, fs_pots = load(os.path.join(root, "specs", "fs2.json"))
    gm_spec, gm_pots = load(os.path.join(root, "specs", "golden.json"))
    return (fs_spec, fs_pots), (gm_spec, gm_pots)


def _rate_check(want: float):
    return lambda got: close(got, want, rel=1e-7, abs_=1e-9)


def _q_check(want: float):
    return lambda got: close(got, want, rel=1e-9, abs_=1e-11)


# ---------------------------------------------------------------------------
# tilt-small: many tilted Perron solves on tiny chains


def tilt_small(rng: np.random.Generator, tracer: Tracer, scratch: str) -> Workload:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    (fs, fp), (gm, gp) = load_specs(root, tracer)
    validate = tracer.wrap("sft.validate_spec", ldplab.validate_spec)
    ops: list[Op] = []
    probes: list[Probe] = []

    # Closed-form families: G = zero, phi = ind1.
    closed = {"fs2": (fs, fp, O.fs2_q, O.fs2_q_prime, O.fs2_rate, 1.0),
              "golden": (gm, gp, O.golden_q, O.golden_q_prime, O.golden_rate, 0.5)}
    for label, (spec, pots, q, qp, rate, amax) in closed.items():
        G, phi = pots["zero"], pots["ind1"]
        for k in range(1, 24):
            a = amax * k / 24
            ops.append(Op(f"rate_scalar[{label},zero,ind1,a={a:.6g}]", "ldp.rate_scalar",
                          lambda s=spec, a=a, G=G, phi=phi: ldplab.rate_scalar(s, G, phi, a),
                          _rate_check(rate(a))))
        for t in range(-12, 13, 2):
            ops.append(Op(f"q_value[{label},zero,ind1,t={t}]", "ldp.q_value",
                          lambda s=spec, t=t, G=G, phi=phi: ldplab.q_value(s, G, phi, t),
                          _q_check(q(t))))
            ops.append(Op(f"q_derivative[{label},zero,ind1,t={t}]", "ldp.q_derivative",
                          lambda s=spec, t=t, G=G, phi=phi: ldplab.q_derivative(s, G, phi, t),
                          _q_check(qp(t))))
        alphas = [float(a) for a in np.linspace(0.1 * amax, 0.9 * amax, 9)]

        def curve_check(c, rate=rate, amax=amax, alphas=alphas):
            return first(close(c.alpha_range[0], 0.0), close(c.alpha_range[1], amax),
                         *(close(v, rate(a), rel=1e-7, abs_=1e-9) for a, v in zip(alphas, c.values)))
        ops.append(Op(f"rate_curve[{label},zero,ind1,9 alphas]", "ldp.rate_curve",
                      lambda s=spec, G=G, phi=phi, al=alphas: ldplab.rate_curve(s, G, phi, al),
                      curve_check))
        # Perron probes on the q grid (traced run only), incl. the failing t.
        sys_ = S.from_spec(label, spec, pots, 1)
        for t in list(range(-12, 13, 4)) + ([40] if label == "golden" else []):
            probes.append(Probe(sys_, ldplab.combine_potentials(spec, G, phi, float(t))))

    # Documented baseline failures (spin ~40 s, then NoConvergence).
    G, phi = gp["zero"], gp["ind1"]
    for a, want in ((0.499, O.golden_rate(0.499)), (0.5, O.LOG_GOLDEN)):
        ops.append(Op(f"rate_scalar[golden,zero,ind1,a={a}]", "ldp.rate_scalar",
                      lambda a=a: ldplab.rate_scalar(gm, G, phi, a), _rate_check(want), defect=ITEM2))
    ops.append(Op("q_value[golden,zero,ind1,t=40]", "ldp.q_value",
                  lambda: ldplab.q_value(gm, G, phi, 40.0), _q_check(O.golden_q(40.0)), defect=ITEM2))

    # The other spec-file families: oracles from the reference Perron solver.
    for label, (spec, pots) in (("fs2", (fs, fp)), ("golden", (gm, gp))):
        for gname in ("zero", "bern03"):
            for pname in ("ind1", "pair01"):
                if gname == "zero" and pname == "ind1":
                    continue
                sys_ = S.from_spec(label, spec, pots, max(pots[gname].memory, pots[pname].memory))
                ops += _family_ops(f"{label},{gname},{pname}", sys_, gname, pname, (-1.5, 2.0), (-2.0, 3.0))

    # Seeded random systems of at most ~40 recoded states.
    randoms = []
    for i, (m, k, lo, hi) in enumerate(((16, 1, 16, 16), (3, 2, 6, 9), (4, 2, 10, 16),
                                        (4, 3, 24, 40), (8, 2, 24, 40))):
        density = 0.85 if k == 1 else S.density_for(m, k, (lo + hi) / 2)
        sys_ = S.draw_random(rng, f"rand{i}", m, k, density, lo, hi, validate,
                             S.normal_tables(0.5))
        randoms.append(sys_)
        ops += _family_ops(f"rand{i}", sys_, "G", "phi", (-1.0, 0.75), (-2.0, 1.5))
        probes.append(Probe(sys_, sys_.pots["G"]))

    # Contraction check: random Markov measures tilted onto the slice mean = 0.7.
    ops.append(Op("contraction_check[fs2,zero,ind1,a=0.7,20 samples]", "ldp.contraction_check",
                  lambda s=int(rng.integers(2 ** 31)): ldplab.contraction_check(
                      fs, fp["zero"], fp["ind1"], 0.7, samples=20, seed=s),
                  lambda r: first(None if r.passed else f"report not passed: {r}",
                                  close(r.scalar_rate, O.fs2_rate(0.7), rel=1e-7, abs_=1e-9))))

    # The CLI in-process: argument parsing and 17-digit serialization to a file.
    gm_path = os.path.join(root, "specs", "golden.json")
    rand_path = os.path.join(scratch, "rand3.json")
    S.write_spec(rand_path, randoms[3])
    ops.append(_cli_op("ratecurve", ["--spec", gm_path, "--G", "zero", "--phi", "ind1",
                                     "--alphas", "0.05:0.45:5"], scratch,
                       lambda row: close(row["rate"], O.golden_rate(row["alpha"]), rel=1e-7, abs_=1e-9)))
    ops.append(_cli_op("qcurve", ["--spec", gm_path, "--G", "zero", "--phi", "ind1",
                                  "--t=-6:6:7"], scratch,
                       lambda row: first(_q_check(O.golden_q(row["t"]))(row["q"]),
                                         _q_check(O.golden_q_prime(row["t"]))(row["q_prime"]))))
    r3 = randoms[3]
    g3, p3 = r3.values(r3.pots["G"]), r3.values(r3.pots["phi"])
    ops.append(_cli_op("qcurve", ["--spec", rand_path, "--G", "G", "--phi", "phi", "--t=-1:1:3"],
                       scratch, lambda row: _q_check(_ref_q(r3.adjacency, g3, p3, row["t"]))(row["q"]),
                       label="rand3"))
    return Workload("tilt-small", 3, randoms, shuffled(ops), probes)


def _ref_q(adjacency, g, phi, t):
    return O.gibbs_chain(O.weighted(adjacency, g + t * phi))[2] - O.gibbs_chain(O.weighted(adjacency, g))[2]


def _family_ops(label: str, sys_: S.System, gname: str, pname: str, rate_tilts, q_tilts) -> list[Op]:
    """rate_scalar at alpha = q'(t0) (oracle t0 alpha - q(t0)), q and q' at a few t."""
    spec, G, phi = sys_.spec, sys_.pots[gname], sys_.pots[pname]
    g, p = sys_.values(G), sys_.values(phi)
    ops = []
    for t0 in rate_tilts:
        alpha, rate = O.legendre_point(sys_.adjacency, g, p, t0)
        ops.append(Op(f"rate_scalar[{label},a=q'({t0:g})]", "ldp.rate_scalar",
                      lambda a=alpha: ldplab.rate_scalar(spec, G, phi, a), _rate_check(rate)))
    for t in q_tilts:
        ops.append(Op(f"q_value[{label},t={t:g}]", "ldp.q_value",
                      lambda t=t: ldplab.q_value(spec, G, phi, t),
                      _q_check(_ref_q(sys_.adjacency, g, p, t))))
        ops.append(Op(f"q_derivative[{label},t={t:g}]", "ldp.q_derivative",
                      lambda t=t: ldplab.q_derivative(spec, G, phi, t),
                      _q_check(O.tilted_mean(sys_.adjacency, g, p, t))))
    return ops


def _cli_op(command: str, args: list, scratch: str, row_check, label: str = "golden") -> Op:
    out = os.path.join(scratch, f"{command}-{label}.jsonl")
    argv = [command] + args + ["--out", out]

    def call():
        if os.path.exists(out):
            os.remove(out)
        code = ldcli.run(argv)
        with open(out, encoding="utf-8") as fh:
            return code, fh.read()

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        header, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        if header.get("command") != command or not rows:
            return "malformed output"
        return first(*(row_check(r) for r in rows))

    return Op(f"cli.run[{command},{label}]", f"cli.run.{command}", call, check)


# ---------------------------------------------------------------------------
# chain-ladder: few solves on large recoded chains

#: (target recoded states, systems, (m, memory) choices); every system lands
#: within 5% of its band's target.
LADDER = ((50, 8, ((8, 2), (4, 3))),
          (100, 6, ((16, 2), (8, 3))),
          (200, 4, ((16, 2), (8, 3))),
          (400, 2, ((16, 3), (8, 3))))


def chain_ladder(rng: np.random.Generator, tracer: Tracer, scratch: str) -> Workload:
    validate = tracer.wrap("sft.validate_spec", ldplab.validate_spec)
    systems, ops, probes = [], [], []
    for target, count, shapes in LADDER:
        for j in range(count):
            m, k = shapes[j % len(shapes)]
            sys_ = S.draw_random(rng, f"n{target}-{j}", m, k, S.density_for(m, k, target),
                                 int(target * 0.95), int(math.ceil(target * 1.05)), validate,
                                 S.normal_tables(0.5))
            systems.append(sys_)
            ops += _ladder_ops(sys_)
            probes.append(Probe(sys_, sys_.pots["G"]))
    return Workload("chain-ladder", 2, systems, shuffled(ops), probes)


def _ladder_ops(sys_: S.System) -> list[Op]:
    spec, G, phi = sys_.spec, sys_.pots["G"], sys_.pots["phi"]
    adj, g, p = sys_.adjacency, sys_.values(G), sys_.values(phi)
    ref: dict = {}

    def log_rho():  # eigvals-based pressure, computed once at the first check
        if "P" not in ref:
            ref["P"] = O.log_spectral_radius(O.weighted(adj, g))
        return ref["P"]

    def measure_check(mu):
        P, pi = mu.transition, mu.stationary
        if np.any(P[adj == 0] != 0):
            return "mass on forbidden transitions"
        gap = log_rho() - float(pi @ g) - O.entropy_rate(P, pi)
        return first(close(float(np.abs(P.sum(axis=1) - 1).max()), 0.0, abs_=1e-12),
                     close(float(np.abs(pi @ P - pi).max()), 0.0, abs_=1e-12),
                     close(gap, 0.0, abs_=1e-9))

    amin, amax = O.ergodic_range(adj, p)
    name = f"{sys_.name},{len(sys_.states)} states"
    ops = [
        Op(f"pressure[{name}]", "thermo.pressure", lambda: ldplab.pressure(spec, G),
           lambda v: close(v, log_rho(), rel=1e-10)),
        Op(f"equilibrium_measure[{name}]", "thermo.equilibrium_measure",
           lambda: ldplab.equilibrium_measure(spec, G), measure_check),
        Op(f"ergodic_range[{name}]", "ldp.ergodic_range", lambda: ldplab.ergodic_range(spec, phi),
           lambda r: first(close(r[0], amin), close(r[1], amax))),
    ]
    for t0 in (-0.5, 0.5):
        alpha, rate = O.legendre_point(adj, g, p, t0)
        ops.append(Op(f"rate_scalar[{name},a=q'({t0:g})]", "ldp.rate_scalar",
                      lambda a=alpha: ldplab.rate_scalar(spec, G, phi, a), _rate_check(rate)))
    return ops


# ---------------------------------------------------------------------------
# leaf-mass: leaf measures, deviation masses (DP, enumeration, MC), sampling


def leaf_mass(rng: np.random.Generator, tracer: Tracer, scratch: str) -> Workload:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    (fs, fp), (gm, gp) = load_specs(root, tracer)
    validate = tracer.wrap("sft.validate_spec", ldplab.validate_spec)
    ctx = Context()
    ops: list[Op] = []

    # A ~30-state system with an integer-valued observable (labels 0..3).
    def tables(rng, words):
        return {"G": {w: float(0.5 * rng.standard_normal()) for w in words},
                "z": {w: float(rng.integers(0, 4)) for w in words}}
    rnd = S.draw_random(rng, "rand30", 4, 3, S.density_for(4, 3, 31), 28, 34, validate, tables)
    fs_sys, gm_sys = S.from_spec("fs2", fs, fp, 1), S.from_spec("golden", gm, gp, 1)

    leaves = {"fs2": (fs_sys, fp["zero"], fp["ind1"], (0,)),
              "golden": (gm_sys, gp["zero"], gp["ind1"], (0,)),
              "rand30": (rnd, rnd.pots["G"], rnd.pots["z"], rnd.states[0])}
    ref = {}
    for label, (sys_, G, obs, past) in leaves.items():
        P, pi, log_lam = O.gibbs_chain(O.weighted(sys_.adjacency, sys_.values(G)))
        ref[label] = (P, log_lam, sys_.index(past[-sys_.block:]))

        def leaf_check(mu, label=label):
            P, log_lam, start = ref[label]
            return first(close(mu.pressure, log_lam, rel=1e-10),
                         None if mu.start_index == start else "wrong start state",
                         close(float(np.abs(mu.transition - P).max()), 0.0, abs_=1e-10))
        ops.append(Op(f"leaf_measure[{label}]", "leaf.leaf_measure",
                      ctx.keep(("leaf", label), lambda s=sys_.spec, G=G, past=past:
                               ldplab.leaf_measure(s, G, past)), leaf_check))

    # Exact masses by closed form (fs2), or by the tilted reference DP.  The
    # random interval starts where the rate is 0.05, so its log masses stay
    # near -0.05 n, far inside the double range for every seed (the underflow
    # defect is the fs2 n = 3000 op's to show); t_rand is its tilt.
    z_rand, g_rand = rnd.values(rnd.pots["z"]), rnd.values(rnd.pots["G"])
    t_rand = O.tilt_for_rate(rnd.adjacency, g_rand, z_rand, 0.05)
    iv_rand = Interval(O.tilted_mean(rnd.adjacency, g_rand, z_rand, t_rand), float(z_rand.max()))

    def fs2_exact(iv, n):
        return O.log_binomial_mass(n, O.counts_in(iv, n, lambda k: k / n))

    lattice_cache: dict = {}

    def lattice_exact(label, iv, n, lengths, theta):
        """Reference log mass at n; one DP sweep serves every n in lengths."""
        key = (label, iv, tuple(lengths))
        if key not in lattice_cache:
            P, _, start = ref[label]
            sys_ = leaves[label][0]
            z = sys_.values(leaves[label][2]).astype(np.int64)
            lattice_cache[key] = O.lattice_log_masses(P, start, sys_.block, z - z.min(),
                                                      Fraction(int(z.min())), Fraction(1), iv,
                                                      lengths, theta)
        return lattice_cache[key][n]

    def dp_op(label, obs, iv, n, exact, defect=None):
        sys_ = leaves[label][0]
        z = sys_.values(obs)
        cells = len(sys_.states) * (n * int(z.max() - z.min()) + 1)
        return Op(f"deviation_mass_exact[dp,{label},{iv.lo:.4g}:{iv.hi:.4g},n={n}]",
                  "ldp.deviation_mass_exact.dp",
                  ctx.keep(("dp", label, iv, n), lambda: ldplab.deviation_mass_exact(
                      ctx[("leaf", label)], obs, iv, n, mode="dp")),
                  lambda pt: close(pt.log_mass, exact(), rel=1e-9, abs_=1e-9),
                  counts={"ldp.dp_cells": cells}, defect=defect)

    # Lattice DP series.
    iv7, iv9, iv_gm = Interval(0.7, 1.0), Interval(0.9, 1.0), Interval(0.4, 0.5)
    fs2_series = list(range(75, 3001, 75))
    for n in fs2_series:
        ops.append(dp_op("fs2", fp["ind1"], iv7, n, lambda n=n: fs2_exact(iv7, n)))
    for n in (250, 500, 750, 1000, 1250, 1500, 1750, 3000):
        ops.append(dp_op("fs2", fp["ind1"], iv9, n, lambda n=n: fs2_exact(iv9, n),
                         defect=ITEM5 if n == 3000 else None))
    gm_series = list(range(250, 3001, 250))
    for n in gm_series:
        ops.append(dp_op("golden", gp["ind1"], iv_gm, n,
                         lambda n=n: lattice_exact("golden", iv_gm, n, gm_series, O.golden_tilt(0.4))))
    rand_series = list(range(250, 2001, 250))
    for n in rand_series:
        ops.append(dp_op("rand30", rnd.pots["z"], iv_rand, n,
                         lambda n=n: lattice_exact("rand30", iv_rand, n, rand_series, t_rand)))

    # Binned DP on the off-lattice bern03 observable; the bracket must hold the exact mass.
    b0, b1 = fp["bern03"].table[(0,)], fp["bern03"].table[(1,)]
    iv_b = Interval(-0.6, -0.3)
    for n in (100, 200, 300):
        exact = O.log_binomial_mass(n, O.counts_in(iv_b, n, lambda k, n=n: b0 + (k / n) * (b1 - b0)))
        width = round(b1 / 1e-3) - round(b0 / 1e-3)

        def bracket_check(pt, exact=exact):
            lo, hi = math.log(pt.mass_low), math.log(pt.mass_high)
            if not lo - 1e-9 <= exact <= hi + 1e-9:
                return f"bracket [{lo!r}, {hi!r}] misses exact {exact!r}"
            return None
        ops.append(Op(f"deviation_mass_exact[binned,fs2,bern03,n={n}]", "ldp.deviation_mass_exact.dp",
                      lambda n=n: ldplab.deviation_mass_exact(ctx[("leaf", "fs2")], fp["bern03"], iv_b,
                                                              n, mode="dp"),
                      bracket_check, counts={"ldp.dp_cells": 2 * (n * width + 1)}))

    # Enumeration next to the DP at the same n; both must equal the exact mass.
    rand_words = O.walk_counts(rnd.adjacency, ref["rand30"][2], 20)
    n_rand = max(n for n in range(4, 19) if rand_words[n + rnd.block - 1] <= 400_000)
    enum_cases = [("fs2", fp["ind1"], iv7, n, lambda n=n: fs2_exact(iv7, n)) for n in (16, 18, 20)]
    enum_cases += [("golden", gp["ind1"], iv_gm, n,
                    lambda n=n: lattice_exact("golden", iv_gm, n, (18, 20, 22), O.golden_tilt(0.4)))
                   for n in (18, 20, 22)]
    enum_cases += [("rand30", rnd.pots["z"], iv_rand, n,
                    lambda n=n: lattice_exact("rand30", iv_rand, n, (n_rand - 1, n_rand), t_rand))
                   for n in (n_rand - 1, n_rand)]
    for label, obs, iv, n, exact in enum_cases:
        ops.append(dp_op(label, obs, iv, n, exact))
        sys_ = leaves[label][0]
        words = O.walk_counts(sys_.adjacency, ref[label][2], n + sys_.block - 1)[-1]

        def enum_check(pt, label=label, iv=iv, n=n, exact=exact):
            dp = ctx.get(("dp", label, iv, n))
            return first(close(pt.log_mass, exact(), rel=1e-9, abs_=1e-9),
                         None if dp is None else close(pt.mass, dp.mass, rel=1e-9))
        ops.append(Op(f"deviation_mass_exact[enumerate,{label},n={n}]",
                      "ldp.deviation_mass_exact.enumerate",
                      lambda label=label, obs=obs, iv=iv, n=n: ldplab.deviation_mass_exact(
                          ctx[("leaf", label)], obs, iv, n, mode="enumerate"),
                      enum_check, counts={"ldp.enum_words": words}))

    # Exhaustive ball-mass audit.
    for label, n_max, want in (("fs2", 16, (1.0, 1.0)), ("golden", 18, (2 / (1 + math.sqrt(5)), 1.0)),
                               ("rand30", 10, None)):
        sys_ = leaves[label][0]
        depth = n_max + max(1, sys_.block - 1) - 1
        visited = sum(O.walk_counts(sys_.adjacency, ref[label][2], depth))

        def audit_check(rep, want=want):
            if not 0 < rep.k_min <= rep.k_max < math.inf:
                return f"bad pinching constants {rep.k_min!r}, {rep.k_max!r}"
            return None if want is None else first(close(rep.k_min, want[0], rel=1e-9),
                                                   close(rep.k_max, want[1], rel=1e-9))
        ops.append(Op(f"gibbs_ratio_audit[{label},n_max={n_max},r=1]", "leaf.gibbs_ratio_audit",
                      lambda label=label, n_max=n_max: ldplab.gibbs_ratio_audit(
                          ctx[("leaf", label)], n_max, 1),
                      audit_check, counts={"leaf.audit_words": visited}))

    # Tilts whose mean sits at the interval end.
    for label, spec, G, obs, iv, want in (
            ("fs2", fs, fp["zero"], fp["ind1"], iv7, O.fs2_tilt(0.7)),
            ("golden", gm, gp["zero"], gp["ind1"], iv_gm, O.golden_tilt(0.4)),
            ("rand30", rnd.spec, rnd.pots["G"], rnd.pots["z"], iv_rand, t_rand)):
        ops.append(Op(f"recommended_tilt[{label}]", "ldp.recommended_tilt",
                      lambda spec=spec, G=G, obs=obs, iv=iv: ldplab.recommended_tilt(spec, G, obs, iv),
                      lambda t, want=want: close(t, want, rel=1e-7, abs_=1e-9)))

    # Tilted Monte Carlo: within 6 standard errors of the exact mass.
    mc_cases = (("fs2", fp["ind1"], iv7, 20, 1_000_000, O.fs2_tilt(0.7), lambda: fs2_exact(iv7, 20)),
                ("fs2", fp["ind1"], iv7, 600, 65_536, O.fs2_tilt(0.7), lambda: fs2_exact(iv7, 600)),
                ("golden", gp["ind1"], iv_gm, 20, 1 << 19, O.golden_tilt(0.4),
                 lambda: lattice_exact("golden", iv_gm, 20, (20,), O.golden_tilt(0.4))),
                ("rand30", rnd.pots["z"], iv_rand, 12, 1 << 17, t_rand,
                 lambda: lattice_exact("rand30", iv_rand, 12, (12,), t_rand)))
    for label, obs, iv, n, samples, tilt, exact in mc_cases:
        seed = int(rng.integers(2 ** 63))

        def mc_check(pt, exact=exact):
            want = math.exp(exact())
            if not pt.stderr > 0 or abs(pt.mass - want) > 6 * pt.stderr:
                return f"estimate {pt.mass!r} +- {pt.stderr!r}, exact {want!r}"
            return None
        steps = samples * (n + leaves[label][0].block - 1)
        ops.append(Op(f"deviation_mass_mc[{label},n={n},samples={samples}]", "ldp.deviation_mass_mc",
                      lambda label=label, obs=obs, iv=iv, n=n, samples=samples, tilt=tilt, seed=seed:
                      ldplab.deviation_mass_mc(ctx[("leaf", label)], obs, iv, n, samples,
                                               tilt=tilt, seed=seed),
                      mc_check, counts={"ldp.mc_path_steps": steps}))

    # Path sampling: admissible rows from the start symbol, stationary frequency of 1s.
    for label, n, count, mean in (("golden", 200, 20_000, O.golden_q_prime(0.0)), ("fs2", 100, 20_000, 0.5)):
        spec = leaves[label][0].spec
        seed = int(rng.integers(2 ** 63))

        def paths_check(w, spec=spec, n=n, count=count, mean=mean):
            if w.shape != (count, n) or np.any(w[:, 0] != 0):
                return f"bad shape or start symbol: {w.shape}"
            if not np.asarray(spec.transitions)[w[:, :-1], w[:, 1:]].all():
                return "inadmissible path"
            return close(float((w[:, n // 2:] == 1).mean()), mean, rel=0.0, abs_=5e-3)
        ops.append(Op(f"sample_paths[{label},n={n},count={count}]", "leaf.sample_paths",
                      lambda label=label, n=n, count=count, seed=seed: ldplab.sample_paths(
                          ctx[("leaf", label)], n, count, seed=seed),
                      paths_check, counts={"leaf.sample_steps": count * (n - 1)}))

    # Asymptotic rate fits on the DP series.
    for label, iv, ns, want in (("fs2", iv7, fs2_series, O.fs2_rate(0.7)),
                                ("golden", iv_gm, gm_series, O.golden_rate(0.4))):
        ops.append(Op(f"rate_fit[{label},{len(ns)} points]", "ldp.rate_fit",
                      lambda label=label, iv=iv, ns=ns: ldplab.rate_fit(
                          [ctx[("dp", label, iv, n)] for n in ns]),
                      lambda f, want=want: close(f.estimate, want, rel=0.0, abs_=1e-3)))

    probes = [Probe(sys_, G) for sys_, G, _, _ in leaves.values()]
    # Leaf measures first and rate fits last: the other ops read their results.
    head, fits = ops[:len(leaves)], [op for op in ops if op.span == "ldp.rate_fit"]
    middle = [op for op in ops[len(leaves):] if op.span != "ldp.rate_fit"]
    return Workload("leaf-mass", 2, [rnd], head + shuffled(middle) + fits, probes)


WORKLOADS = {"tilt-small": tilt_small, "chain-ladder": chain_ladder, "leaf-mass": leaf_mass}
