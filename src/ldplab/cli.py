"""Command-line front end.

Loads a system description file, dispatches to the library and emits
machine-readable results (JSON lines or CSV).  Every run is prefixed by a
reproducibility header carrying the file hash, the argv, the seed and
budget (null where the subcommand takes none) and the artifact version, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .errors import IncompleteTable, LdplabError, ParseError, ValidationError
from .ldp import (
    Interval,
    deviation_mass_exact,
    deviation_mass_mc,
    rate_curve,
    rate_fit,
    recommended_tilt,
    DeviationPoint,
)
from .leaf import gibbs_ratio_audit, leaf_measure
from .sft import Potential, SubshiftSpec, Word, axioms_check, validate_spec
from .thermo import (TiltFamily, entropy, equilibrium_measure, gibbs_measure, pressure,
                     recoded_transfer_matrix, rpf_solve)
from .ldp import growth_estimate


# ---------------------------------------------------------------------------
# Spec files


def load_spec(path: str) -> tuple[SubshiftSpec, dict[str, Potential]]:
    """Load and validate a system description file.

    Format (JSON, UTF-8)::

        {"alphabet": ["0", "1"],
         "transitions": [[1, 1], [1, 0]],
         "potentials": {"name": {"memory": k, "table": {"word": value}}}}

    Word strings concatenate symbol names, '.'-separated when any symbol
    name has more than one character.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None

    try:
        names = [str(s) for s in raw["alphabet"]]
        matrix = raw["transitions"]
    except (KeyError, TypeError) as e:
        raise ValidationError(f"{path}: missing or malformed field: {e}") from None
    spec = validate_spec(matrix, symbols=names)
    if len(set(names)) != len(names):
        raise ValidationError("duplicate symbol names in alphabet")

    potentials: dict[str, Potential] = {}
    for name, body in raw.get("potentials", {}).items():
        try:
            memory = int(body["memory"])
            table = {parse_word(spec, w): float(v) for w, v in body["table"].items()}
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"potential {name!r}: malformed entry: {e}") from None
        pot = Potential(memory, table)
        try:
            pot.validate(spec)
        except (IncompleteTable, ValidationError) as e:
            raise type(e)(f"potential {name!r}: {e}") from None
        potentials[name] = pot
    return spec, potentials


def format_word(spec: SubshiftSpec, word: Sequence[int]) -> str:
    names = [spec.symbols[a] for a in word]
    return ".".join(names) if any(len(s) != 1 for s in spec.symbols) else "".join(names)


def parse_word(spec: SubshiftSpec, text: str) -> Word:
    dotted = any(len(s) != 1 for s in spec.symbols)
    parts = text.split(".") if dotted else list(text)
    by_name = {s: i for i, s in enumerate(spec.symbols)}
    try:
        return tuple(by_name[p] for p in parts)
    except KeyError as e:
        raise ValidationError(f"unknown symbol {e.args[0]!r} in word {text!r}") from None


# ---------------------------------------------------------------------------
# Serialization: 17 significant digits, fixed key order, one JSON object per line


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def to_json(obj: Any) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v)).strip('"')
    return str(v)


class _Output:
    """Collects the header and result rows, then renders JSON lines or CSV."""

    def __init__(self, fmt: str, header: dict[str, Any]):
        self.fmt = fmt
        self.header = header
        self.rows: list[dict[str, Any]] = []

    def add(self, row: dict[str, Any]) -> None:
        self.rows.append(row)

    def render(self) -> str:
        lines = []
        if self.fmt == "json":
            lines.append(to_json(self.header))
            lines.extend(to_json(r) for r in self.rows)
        else:
            lines.append("# " + to_json(self.header))
            if self.rows:
                cols = list(self.rows[0].keys())
                lines.append(",".join(cols))
                for r in self.rows:
                    lines.append(",".join(_csv_cell(r.get(c)) for c in cols))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument helpers


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like 'lo:hi:count', got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_n_range(text: str) -> list[int]:
    parts = [int(p) for p in text.split(":")]
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] < 1:
        raise ValueError(f"length range must look like 'start:stop[:step]', got {text!r}")
    return list(range(parts[0], parts[1] + 1, parts[2]))


def _lengths(args) -> list[int]:
    if args.n is not None:
        return [args.n]
    if args.n_range is not None:
        return _parse_n_range(args.n_range)
    raise ValidationError("one of --n or --n-range is required")


def _get_potential(pots: dict[str, Potential], name: str) -> Potential:
    if name not in pots:
        raise ValidationError(f"spec file defines no potential named {name!r}; "
                              f"available: {sorted(pots)}")
    return pots[name]


def _interval(args) -> Interval:
    iv = Interval.parse(args.interval)
    return Interval(iv.lo, iv.hi, not args.open_lo, not args.open_hi)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_pressure(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    pot = _get_potential(pots, args.potential)
    out.add({"pressure": pressure(spec, pot, block=args.block)})


def _cmd_entropy(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    mu = equilibrium_measure(spec, _get_potential(pots, args.potential), block=args.block)
    out.add({"entropy": entropy(mu)})


def _cmd_gibbs(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    pot = _get_potential(pots, args.potential)
    M = recoded_transfer_matrix(spec, pot, block=args.block)
    rpf = rpf_solve(M)
    mu = gibbs_measure(rpf, M)
    if out.fmt == "json":
        out.add({
            "states": [format_word(spec, w) for w in mu.chain.states],
            "pressure": math.log(rpf.eigenvalue),
            "transition": [list(row) for row in mu.transition],
            "stationary": list(mu.stationary),
        })
    else:
        for i, w in enumerate(mu.chain.states):
            for j in np.flatnonzero(mu.chain.adjacency[i]):
                out.add({
                    "from_state": format_word(spec, w),
                    "to_state": format_word(spec, mu.chain.states[j]),
                    "probability": float(mu.transition[i, j]),
                    "stationary_from": float(mu.stationary[i]),
                })


def _cmd_qcurve(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    fam = TiltFamily.of(spec, _get_potential(pots, args.G), _get_potential(pots, args.phi))
    for t in _parse_grid(args.t):
        out.add({"t": t, "q": fam.q(t), "q_prime": fam.q_prime(t)})


def _cmd_rate(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    curve = rate_curve(spec, _get_potential(pots, args.G), _get_potential(pots, args.phi),
                       [args.alpha])
    row: dict[str, Any] = {"alpha": curve.alphas[0], "rate": curve.values[0],
                           "tilt": curve.tilts[0]}
    if curve.boundary[0] or out.fmt == "csv":
        row["boundary"] = curve.boundary[0]
    out.add(row)


def _cmd_ratecurve(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    curve = rate_curve(spec, _get_potential(pots, args.G), _get_potential(pots, args.phi),
                       _parse_grid(args.alphas))
    for a, v, t, b in zip(curve.alphas, curve.values, curve.tilts, curve.boundary):
        out.add({"alpha": a, "rate": v, "tilt": t, "boundary": b})


def _cmd_leaf_audit(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    mu = leaf_measure(spec, _get_potential(pots, args.G), parse_word(spec, args.past),
                      block=args.block)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    rep = gibbs_ratio_audit(mu, n_max=args.n_max, r=args.r, **kwargs)
    out.add({
        "r": rep.epsilon_exponent,
        "n_max": rep.n_max,
        "k_min": rep.k_min,
        "k_max": rep.k_max,
        "k_min_half": rep.k_min_half,
        "k_max_half": rep.k_max_half,
        "drift": rep.drift,
        "k_min_witness": format_word(spec, rep.k_min_witness),
        "k_min_witness_n": rep.k_min_witness_n,
        "k_max_witness": format_word(spec, rep.k_max_witness),
        "k_max_witness_n": rep.k_max_witness_n,
    })


def _cmd_growth(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    _, phi, mu = _leaf_for(args, spec, pots, block=args.block or 1)
    for n in _lengths(args):
        out.add({"n": n, "estimate": growth_estimate(mu, phi, n)})


def _leaf_for(args, spec, pots, block: int = 1):
    G = _get_potential(pots, args.G)
    phi = _get_potential(pots, args.phi)
    block = max(G.memory, phi.memory, block)
    return G, phi, leaf_measure(spec, G, parse_word(spec, args.past), block=block)


def _dev_row(p: DeviationPoint) -> dict[str, Any]:
    row: dict[str, Any] = {"n": p.n, "log_mass": p.log_mass, "mass": p.mass,
                           "stderr": p.stderr, "method": p.method}
    if p.mass_low is not None and p.mass_low != p.mass_high:
        row["mass_low"] = p.mass_low
        row["mass_high"] = p.mass_high
    if p.tilt is not None:
        row["tilt"] = p.tilt
    if p.samples is not None:
        row["samples"] = p.samples
    return row


def _cmd_deviation_exact(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    G, phi, mu = _leaf_for(args, spec, pots)
    iv = _interval(args)
    for n in _lengths(args):
        p = deviation_mass_exact(mu, phi, iv, n, budget=args.budget,
                                 mode=args.mode, bin_width=args.bin_width)
        out.add(_dev_row(p))


def _cmd_deviation_mc(args, out: _Output) -> None:
    spec, pots = load_spec(args.spec)
    G, phi, mu = _leaf_for(args, spec, pots)
    iv = _interval(args)
    if args.tilt == "auto":
        tilt: float | None = recommended_tilt(spec, G, phi, iv)
    elif args.tilt is None:
        tilt = None
    else:
        tilt = float(args.tilt)
    for n in _lengths(args):
        p = deviation_mass_mc(mu, phi, iv, n, samples=args.samples, tilt=tilt, seed=args.seed)
        out.add(_dev_row(p))


def _cmd_fit(args, out: _Output) -> None:
    points = _read_series(args.series)
    fit = rate_fit(points)
    out.add({"estimate": fit.estimate, "b": fit.b, "c": fit.c,
             "residual": fit.residual, "monotone": fit.monotone})


def _read_series(path: str) -> list[DeviationPoint]:
    """Read (n, mass) pairs back from a deviation-exact/mc output file."""
    points: list[DeviationPoint] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    header: list[str] | None = None
    for ln in lines:
        if ln.startswith("#"):
            continue
        if ln.startswith("{"):
            try:
                row = json.loads(ln)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: bad JSON line: {e.msg}") from None
        else:
            cells = ln.split(",")
            if header is None:
                header = cells
                continue
            row = dict(zip(header, cells))
        if "n" in row and "mass" in row:
            m = float(row["mass"])
            log_m = math.log(m) if m > 0 else -math.inf
            points.append(DeviationPoint(int(row["n"]), m, log_m, str(row.get("method", ""))))
    if not points:
        raise ParseError(f"{path}: no (n, mass) rows found")
    return points


def _cmd_axioms(args, out: _Output) -> None:
    spec, _ = load_spec(args.spec)
    rep = axioms_check(spec, sample_count=args.samples, seed=args.seed)
    row: dict[str, Any] = {
        "samples": rep.sample_count,
        "violations": len(rep.violations),
        "max_stable_ratio": rep.max_stable_ratio,
        "max_unstable_ratio": rep.max_unstable_ratio,
    }
    if out.fmt == "json":
        row["checks"] = dict(rep.checks)
    else:
        for key, count in rep.checks.items():
            row[f"checks_{key}"] = count
    out.add(row)


# ---------------------------------------------------------------------------
# Driver


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ldplab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="system description JSON file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit stream seed")

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=float, default=None,
                       help="enumeration budget override (also: LDPLAB_BUDGET)")

    p = sub.add_parser("pressure", help="log Perron eigenvalue of the weighted transfer matrix")
    common(p)
    p.add_argument("--potential", required=True)
    p.add_argument("--block", type=int, default=None)
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("gibbs", help="equilibrium Markov measure of a potential")
    common(p)
    p.add_argument("--potential", required=True)
    p.add_argument("--block", type=int, default=None)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("entropy", help="entropy rate of the equilibrium measure")
    common(p)
    p.add_argument("--potential", required=True)
    p.add_argument("--block", type=int, default=None)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("qcurve", help="scaled cumulant q(t) and its derivative on a grid")
    common(p)
    p.add_argument("--G", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--t", required=True, help="grid lo:hi:count")
    p.set_defaults(func=_cmd_qcurve)

    p = sub.add_parser("rate", help="scalar rate function at one target average")
    common(p)
    p.add_argument("--G", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("ratecurve", help="scalar rate function on a grid")
    common(p)
    p.add_argument("--G", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alphas", required=True, help="grid lo:hi:count")
    p.set_defaults(func=_cmd_ratecurve)

    p = sub.add_parser("leaf-audit", help="audit the leaf measure's dynamic-ball pinching")
    common(p)
    p.add_argument("--G", required=True)
    p.add_argument("--past", required=True, help="admissible past word, e.g. 0 or 10")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--block", type=int, default=None)
    budget(p)
    p.set_defaults(func=_cmd_leaf_audit)

    p = sub.add_parser("growth", help="finite-n growth of the tilted leaf integral")
    common(p)
    p.add_argument("--G", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--past", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", default=None, help="start:stop[:step]")
    p.add_argument("--block", type=int, default=None)
    p.set_defaults(func=_cmd_growth)

    def deviation(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--G", required=True)
        p.add_argument("--phi", required=True)
        p.add_argument("--past", required=True)
        p.add_argument("--interval", required=True, help="lo:hi (closed by default)")
        p.add_argument("--open-lo", action="store_true")
        p.add_argument("--open-hi", action="store_true")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--n-range", default=None)
        p.set_defaults(func=func)
        return p

    p = deviation("deviation-exact", "exact deviation-set masses", _cmd_deviation_exact)
    p.add_argument("--mode", choices=("auto", "enumerate", "dp"), default="auto")
    p.add_argument("--bin-width", type=float, default=1e-3)
    budget(p)

    p = deviation("deviation-mc", "Monte Carlo deviation-set masses", _cmd_deviation_mc)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tilt", default=None, help="tilt value, or 'auto'")
    seed(p)

    p = sub.add_parser("fit", help="asymptotic rate fit of a deviation series file")
    common(p, spec=False)
    p.add_argument("--series", required=True, help="output file of deviation-exact/mc")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("axioms", help="randomized bracket/contraction axiom checks")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    seed(p)
    p.set_defaults(func=_cmd_axioms)

    return top


def _spec_hash(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns 0, or 1 on domain error, 2 on usage error."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    env_budget = os.environ.get("LDPLAB_BUDGET")
    if "budget" in args and args.budget is None and env_budget:
        args.budget = float(env_budget)

    header = {
        "command": args.command,
        "argv": argv,
        "spec": getattr(args, "spec", None),
        "spec_sha256": _spec_hash(getattr(args, "spec", None)),
        "seed": getattr(args, "seed", None),
        "budget": getattr(args, "budget", None),
        "version": __version__,
    }
    out = _Output(args.format, header)
    try:
        args.func(args, out)
    except LdplabError as e:
        record = to_json({"error": type(e).__name__, "message": str(e)})
        print(record, file=sys.stderr)
        return 1
    except ValueError as e:
        record = to_json({"error": "ValueError", "message": str(e)})
        print(record, file=sys.stderr)
        return 1

    text = out.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())
