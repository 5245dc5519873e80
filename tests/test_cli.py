import json
import math
import os
import warnings
from pathlib import Path

import pytest

from ldplab import (IncompleteTable, Interval, NotPrimitive, ParseError, ValidationError,
                    axioms_check, deviation_mass_exact, deviation_mass_mc, equilibrium_measure,
                    leaf_measure, thermo)
from ldplab.cli import _build_parser, load_spec, run, to_json

from conftest import GOLDEN_RATIO, golden_rate

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

GOLDEN_COMMANDS = {
    "pressure_fs2.jsonl": ["pressure", "--spec", "specs/fs2.json", "--potential", "zero"],
    "rate_fs2.jsonl": ["rate", "--spec", "specs/fs2.json", "--G", "zero",
                       "--phi", "ind1", "--alpha", "0.75"],
    "entropy_gm.jsonl": ["entropy", "--spec", "specs/golden.json", "--potential", "zero"],
    "gibbs_gm.jsonl": ["gibbs", "--spec", "specs/golden.json", "--potential", "zero"],
    "qcurve_gm.csv": ["qcurve", "--spec", "specs/golden.json", "--G", "zero",
                      "--phi", "ind1", "--t=-1:1:5", "--format", "csv"],
    "ratecurve_gm.csv": ["ratecurve", "--spec", "specs/golden.json", "--G", "zero",
                         "--phi", "ind1", "--alphas", "0.1:0.4:4", "--format", "csv"],
    "audit_fs2.jsonl": ["leaf-audit", "--spec", "specs/fs2.json", "--G", "bern03",
                        "--past", "0", "--n-max", "6", "--r", "1"],
    "growth_fs2.csv": ["growth", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
                       "--past", "1", "--n-range", "5:20:5", "--format", "csv"],
    "deviation_fs2.jsonl": ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero",
                            "--phi", "ind1", "--past", "0", "--interval", "0.7:1",
                            "--n-range", "10:20:5"],
    "mc_fs2.jsonl": ["deviation-mc", "--spec", "specs/fs2.json", "--G", "zero",
                     "--phi", "ind1", "--past", "0", "--interval", "0.7:1",
                     "--n", "15", "--samples", "5000", "--tilt", "auto", "--seed", "7"],
    "fit_fs2.jsonl": ["fit", "--series", "tests/golden/deviation_series_input.jsonl"],
    "axioms_gm.jsonl": ["axioms", "--spec", "specs/golden.json",
                        "--samples", "100", "--seed", "1"],
}


@pytest.fixture(autouse=True)
def repo_root_cwd(monkeypatch):
    monkeypatch.chdir(ROOT)


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Spec loading


def test_load_spec_round_trip():
    spec, pots = load_spec("specs/fs2.json")
    assert spec.alphabet_size == 2
    assert set(pots) == {"zero", "ind1", "bern03", "pair01"}
    assert pots["pair01"].memory == 2

    spec, pots = load_spec("specs/golden.json")
    assert spec.primitivity_power == 2


def test_load_spec_rejects_non_primitive(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "transitions": [[0, 1], [1, 0]],
                                "potentials": {}}))
    with pytest.raises(NotPrimitive):
        load_spec(str(path))


def test_load_spec_rejects_incomplete_table(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "alphabet": ["0", "1"],
        "transitions": [[1, 1], [1, 1]],
        "potentials": {"partial": {"memory": 1, "table": {"0": 0.0}}},
    }))
    with pytest.raises(IncompleteTable):
        load_spec(str(path))


def test_load_spec_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"alphabet": ["0"], ')
    with pytest.raises(ParseError, match="line"):
        load_spec(str(path))


def test_load_spec_unknown_symbol(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "alphabet": ["0", "1"],
        "transitions": [[1, 1], [1, 1]],
        "potentials": {"p": {"memory": 1, "table": {"0": 0.0, "2": 1.0}}},
    }))
    with pytest.raises(ValidationError, match="unknown symbol"):
        load_spec(str(path))


def test_load_spec_dotted_symbol_names(tmp_path):
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps({
        "alphabet": ["aa", "b"],
        "transitions": [[1, 1], [1, 1]],
        "potentials": {"p": {"memory": 2, "table": {
            "aa.aa": 0.0, "aa.b": 1.0, "b.aa": 2.0, "b.b": 3.0}}},
    }))
    spec, pots = load_spec(str(path))
    assert pots["p"].value((0, 1)) == 1.0
    assert pots["p"].value((1, 1)) == 3.0


# ---------------------------------------------------------------------------
# Golden outputs


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys):
    code, out, err = run_capture(GOLDEN_COMMANDS[name], capsys)
    assert code == 0, err
    expected = (GOLDEN / name).read_text()
    # The golden files were produced with --out appended to the same argv.
    got_header, _, got_body = out.partition("\n")
    exp_header, _, exp_body = expected.partition("\n")
    assert got_body == exp_body
    header = json.loads(got_header.lstrip("# "))
    golden_header = json.loads(exp_header.lstrip("# "))
    for key in ("command", "spec_sha256", "seed", "version"):
        assert header[key] == golden_header[key]


def _golden_fields(body):
    """(location, value) pairs of a golden body: JSON lines, or CSV rows whose
    cells are numbers where they parse as one."""
    fields = []

    def walk(loc, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{loc}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{loc}[{i}]", item)
        else:
            fields.append((loc, value))

    for row, line in enumerate(body.splitlines(), start=1):
        try:
            walk(f"line {row}", json.loads(line))
        except json.JSONDecodeError:
            for col, cell in enumerate(line.split(","), start=1):
                try:
                    cell = float(cell)
                except ValueError:
                    pass
                fields.append((f"line {row} column {col}", cell))
    return fields


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_argv_is_the_regenerate_script_command(name):
    """regenerate.sh writes each golden with ``--out`` appended to the argv
    listed here, so the two tables cannot drift apart unseen."""
    header = json.loads((GOLDEN / name).read_text().partition("\n")[0].lstrip("# "))
    assert header["argv"] == GOLDEN_COMMANDS[name] + ["--out", "tests/golden/" + name]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_within_tolerance(name, capsys):
    """Every numeric field of a golden agrees with a fresh run to 1e-12
    relative (1e-15 absolute, for rounding-level values such as the audit
    drift) and every other field is equal.  A deliberate change to the
    numerics must pass this before the goldens are regenerated."""
    code, out, err = run_capture(GOLDEN_COMMANDS[name], capsys)
    assert code == 0, err
    got = _golden_fields(out.partition("\n")[2])
    want = _golden_fields((GOLDEN / name).read_text().partition("\n")[2])
    assert [loc for loc, _ in got] == [loc for loc, _ in want]
    for (loc, g), (_, w) in zip(got, want):
        if isinstance(w, (int, float)) and not isinstance(w, bool):
            assert not isinstance(g, bool) and g == pytest.approx(w, rel=1e-12, abs=1e-15), loc
        else:
            assert g == w, loc


def test_qcurve_solves_each_tilt_once(monkeypatch, capsys):
    """q and q' at a tilt, and q(0) for the base pressure, share one solve."""
    calls = []

    def counting(M, *args):
        calls.append(M.matrix.tobytes())
        return solve(M, *args)

    solve = thermo.rpf_solve
    monkeypatch.setattr(thermo, "rpf_solve", counting)
    code, _, err = run_capture(GOLDEN_COMMANDS["qcurve_gm.csv"], capsys)
    assert code == 0, err
    assert len(calls) == 5 and len(set(calls)) == 5


def test_byte_identical_repeat_runs(capsys):
    argv = GOLDEN_COMMANDS["mc_fs2.jsonl"]
    _, out1, _ = run_capture(argv, capsys)
    _, out2, _ = run_capture(argv, capsys)
    assert out1 == out2


def test_pressure_value_in_output(capsys):
    code, out, _ = run_capture(GOLDEN_COMMANDS["pressure_fs2.jsonl"], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[1])
    assert result["pressure"] == pytest.approx(math.log(2), abs=1e-12)


def test_rate_output_keys(capsys):
    code, out, _ = run_capture(GOLDEN_COMMANDS["rate_fs2.jsonl"], capsys)
    result = json.loads(out.splitlines()[1])
    assert set(result) == {"alpha", "rate", "tilt"}
    assert result["rate"] == pytest.approx(0.13081203594113694, abs=1e-8)
    assert result["tilt"] == pytest.approx(math.log(3), abs=1e-6)


def test_rate_near_ergodic_end(capsys):
    """Golden mean at alpha = 0.499: the tilt is nearly periodic."""
    code, out, err = run_capture(["rate", "--spec", "specs/golden.json", "--G", "zero",
                                  "--phi", "ind1", "--alpha", "0.499"], capsys)
    assert code == 0, err
    result = json.loads(out.splitlines()[1])
    assert result["rate"] == pytest.approx(golden_rate(0.499), rel=1e-9)


def test_rate_at_an_ergodic_end_reports_boundary(capsys):
    """Golden mean at alpha = 1/2, the largest ergodic average of ind1: the
    rate is log(phi) and the row says it sits on the boundary.  CSV rows
    carry the column at an interior alpha too."""
    argv = ["rate", "--spec", "specs/golden.json", "--G", "zero", "--phi", "ind1"]
    code, out, err = run_capture(argv + ["--alpha", "0.5"], capsys)
    assert code == 0, err
    result = json.loads(out.splitlines()[1])
    assert result["boundary"] is True
    assert result["rate"] == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-12)
    code, out, err = run_capture(argv + ["--alpha", "0.3", "--format", "csv"], capsys)
    assert code == 0, err
    assert out.splitlines()[1] == "alpha,rate,tilt,boundary"
    assert out.splitlines()[2].endswith(",false")


def test_n_range_steps_by_one_by_default(capsys):
    code, out, err = run_capture(["growth", "--spec", "specs/fs2.json", "--G", "zero",
                                  "--phi", "ind1", "--past", "1", "--n-range", "5:10",
                                  "--format", "csv"], capsys)
    assert code == 0, err
    assert [line.split(",")[0] for line in out.splitlines()[2:]] == ["5", "6", "7", "8", "9", "10"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.jsonl"
    code, out, _ = run_capture(
        ["pressure", "--spec", "specs/fs2.json", "--potential", "zero",
         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert '"pressure"' in target.read_text()


# ---------------------------------------------------------------------------
# Exit codes and error records


def test_domain_error_gives_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "transitions": [[0, 1], [1, 0]],
                                "potentials": {}}))
    code, out, err = run_capture(["pressure", "--spec", str(path), "--potential", "zero"],
                                 capsys)
    assert code == 1
    record = json.loads(err.strip())
    assert record["error"] == "NotPrimitive"


def test_unknown_potential_gives_exit_one(capsys):
    code, _, err = run_capture(
        ["pressure", "--spec", "specs/fs2.json", "--potential", "nope"], capsys)
    assert code == 1
    assert json.loads(err.strip())["error"] == "ValidationError"


@pytest.mark.parametrize("extra, error", [
    (["--interval", "0.7:1", "--bin-width", "0"], "ValueError"),
    (["--interval", "nan:1"], "EmptyInterval"),
])
def test_bad_deviation_parameters_give_exit_one(capsys, extra, error):
    code, out, err = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--n", "10", "--mode", "dp", *extra], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == error


def test_rate_nan_alpha_gives_exit_one(capsys):
    code, out, err = run_capture(["rate", "--spec", "specs/fs2.json", "--G", "zero",
                                  "--phi", "ind1", "--alpha", "nan"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["axioms", "--spec", "specs/fs2.json", "--samples", "-5"],
    ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
     "--past", "0", "--interval", "0.7:1", "--n-range", "20:10:5"],
], ids=["negative-samples", "empty-n-range"])
def test_inputs_with_nothing_to_run_give_exit_one(argv, capsys):
    """A negative sample count and a length range with no lengths fail with a
    typed record instead of printing a report of nothing."""
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "ValueError"


def test_auto_tilt_rejects_empty_interval_before_solving(monkeypatch, capsys):
    families = []
    of = thermo.TiltFamily.of
    monkeypatch.setattr(thermo.TiltFamily, "of",
                        classmethod(lambda cls, *args: families.append(args) or of(*args)))
    code, out, err = run_capture(
        ["deviation-mc", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.8:0.2", "--n", "10", "--samples", "100",
         "--tilt", "auto"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "EmptyInterval"
    assert families == []


@pytest.mark.parametrize("argv", [
    ["qcurve", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1", "--t=0:800:3"],
    ["deviation-mc", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1", "--past", "0",
     "--interval", "0.7:1", "--n", "10", "--samples", "100", "--tilt", "800"],
], ids=["qcurve", "deviation-mc"])
def test_overflowing_tilt_gives_exit_one(argv, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "ValidationError"


@pytest.mark.parametrize("argv, error", [
    (["qcurve", "--spec", "specs/golden.json", "--G", "zero", "--phi", "ind1", "--t", "0:1"],
     "ValueError"),
    (["qcurve", "--spec", "specs/golden.json", "--G", "zero", "--phi", "ind1", "--t", "0:1:0"],
     "ValueError"),
    (["growth", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1", "--past", "1"],
     "ValidationError"),
], ids=["grid-without-count", "grid-of-zero-points", "growth-without-lengths"])
def test_malformed_grids_and_missing_lengths_give_exit_one(argv, error, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == error


@pytest.mark.parametrize("argv", [
    ["pressure", "--spec", "specs/fs2.json", "--potential", "zero", "--block", "14"],
    ["pressure", "--spec", "specs/fs2.json", "--potential", "zero", "--block", "40"],
    ["leaf-audit", "--spec", "specs/fs2.json", "--G", "zero", "--past", "0" * 14,
     "--block", "14", "--budget", "1e300"],
], ids=["block-14", "block-40", "budget-does-not-raise-the-cap"])
def test_oversized_recoding_fails_typed(argv, capsys):
    """fs2 at block 14 has 16,384 states, past the dense recoding cap; it
    fails with a typed record before any dense matrix is allocated."""
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "BudgetExceeded"


def test_leaf_audit_past_the_double_range_prints_only_its_record(capsys):
    """The leaf word count at n_max = 2000 overflows a double; the audit's
    typed record is all that reaches stderr, even with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(["leaf-audit", "--spec", "specs/fs2.json", "--G", "zero",
                                      "--past", "0", "--n-max", "2000"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip())["error"] == "EnumerationTooLarge"


def test_usage_error_gives_exit_two(capsys):
    code, _, err = run_capture(["pressure", "--spec", "specs/fs2.json"], capsys)
    assert code == 2
    assert "--potential" in err


def test_run_repeats_byte_for_byte_in_one_process(capsys):
    """The parser is built once per process; a second call writes the same
    bytes, and a usage error between two good calls still exits 2."""
    assert _build_parser() is _build_parser()
    first = run_capture(GOLDEN_COMMANDS["ratecurve_gm.csv"], capsys)
    assert first[0] == 0 and first[1]
    assert run_capture(["ratecurve", "--spec", "specs/golden.json"], capsys)[0] == 2
    assert run_capture(GOLDEN_COMMANDS["ratecurve_gm.csv"], capsys) == first


def test_unknown_command_gives_exit_two(capsys):
    code, _, _ = run_capture(["frobnicate"], capsys)
    assert code == 2


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("LDPLAB_BUDGET", "10")
    code, _, err = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.7:1", "--n", "25", "--mode", "enumerate"], capsys)
    assert code == 1
    assert json.loads(err.strip())["error"] == "BudgetExceeded"


def test_seed_and_budget_only_where_read(capsys):
    code, _, err = run_capture(GOLDEN_COMMANDS["pressure_fs2.jsonl"] + ["--seed", "1"], capsys)
    assert code == 2 and "--seed" in err
    code, _, err = run_capture(GOLDEN_COMMANDS["qcurve_gm.csv"] + ["--budget", "10"], capsys)
    assert code == 2 and "--budget" in err


def test_header_nulls_options_the_command_lacks(monkeypatch, capsys):
    monkeypatch.setenv("LDPLAB_BUDGET", "10")
    code, out, _ = run_capture(GOLDEN_COMMANDS["pressure_fs2.jsonl"], capsys)
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["seed"] is None and header["budget"] is None


def test_budget_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("LDPLAB_BUDGET", "10")
    code, out, _ = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.7:1", "--n", "10", "--budget", "1e7",
         "--mode", "enumerate"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[1])["mass"] == pytest.approx(0.171875, abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization details


def test_floats_serialized_with_17_significant_digits():
    assert to_json({"x": math.log(2)}) == '{"x":0.69314718055994529}'
    assert to_json([1.0, 0.5]) == "[1,0.5]"
    assert to_json(math.inf) == '"inf"'
    assert to_json(-math.inf) == '"-inf"'
    assert to_json({"a": None, "b": True}) == '{"a":null,"b":true}'


def test_csv_header_matches_documented_order(capsys):
    code, out, _ = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.7:1", "--n", "10", "--format", "csv"], capsys)
    lines = out.splitlines()
    assert lines[1].startswith("n,log_mass,mass,stderr")


def csv_rows(out):
    """The rows of a CSV output as dicts of strings, after its header line."""
    lines = out.splitlines()
    cols = lines[1].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[2:]]


def test_gibbs_csv_has_one_row_per_edge(capsys):
    code, out, err = run_capture(["gibbs", "--spec", "specs/golden.json", "--potential", "zero",
                                  "--format", "csv"], capsys)
    assert code == 0, err
    spec, pots = load_spec("specs/golden.json")
    mu = equilibrium_measure(spec, pots["zero"])
    want = [(str(i), str(j), float(mu.transition[i, j]), float(mu.stationary[i]))
            for i in range(2) for j in range(2) if mu.chain.adjacency[i, j]]
    got = [(r["from_state"], r["to_state"], float(r["probability"]), float(r["stationary_from"]))
           for r in csv_rows(out)]
    assert got == want


def test_axioms_csv_spreads_checks_over_columns(capsys):
    code, out, err = run_capture(["axioms", "--spec", "specs/golden.json", "--samples", "50",
                                  "--seed", "4", "--format", "csv"], capsys)
    assert code == 0, err
    spec, _ = load_spec("specs/golden.json")
    rep = axioms_check(spec, sample_count=50, seed=4)
    (row,) = csv_rows(out)
    assert {k: int(v) for k, v in row.items() if k.startswith("checks_")} == \
        {f"checks_{k}": v for k, v in rep.checks.items()}
    assert int(row["violations"]) == len(rep.violations)
    assert float(row["max_stable_ratio"]) == rep.max_stable_ratio
    assert float(row["max_unstable_ratio"]) == rep.max_unstable_ratio


@pytest.mark.parametrize("tilt", [None, 1.5])
def test_deviation_mc_row_matches_library(tilt, capsys):
    extra = [] if tilt is None else ["--tilt", str(tilt)]
    code, out, err = run_capture(
        ["deviation-mc", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.7:1", "--n", "12", "--samples", "500",
         "--seed", "3", *extra], capsys)
    assert code == 0, err
    spec, pots = load_spec("specs/fs2.json")
    mu = leaf_measure(spec, pots["zero"], (0,))
    p = deviation_mass_mc(mu, pots["ind1"], Interval(0.7, 1.0), 12, 500, tilt=tilt, seed=3)
    row = json.loads(out.splitlines()[1])
    assert (row["mass"], row["stderr"], row["samples"]) == (p.mass, p.stderr, 500)
    assert row.get("tilt") == tilt


def test_binned_deviation_row_carries_its_bracket(capsys):
    """bern03 sits on no lattice.  Words of n = 12 with six 1s average
    -0.780324, within one 1e-3 bin of the interval's end -0.7803, so that
    bin straddles the end and the row carries a bracket."""
    code, out, err = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "bern03",
         "--past", "0", "--interval=-0.7803:-0.3", "--n", "12", "--mode", "dp"], capsys)
    assert code == 0, err
    spec, pots = load_spec("specs/fs2.json")
    mu = leaf_measure(spec, pots["zero"], (0,))
    p = deviation_mass_exact(mu, pots["bern03"], Interval(-0.7803, -0.3), 12, mode="dp")
    row = json.loads(out.splitlines()[1])
    assert row["method"] == p.method == "dp-binned"
    assert (row["mass"], row["mass_low"], row["mass_high"]) == (p.mass, p.mass_low, p.mass_high)
    assert p.mass_low < p.mass_high


def test_fit_reads_csv_series(tmp_path, capsys):
    series = tmp_path / "series.csv"
    code, _, _ = run_capture(
        ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
         "--past", "0", "--interval", "0.7:1", "--n-range", "40:100:20",
         "--format", "csv", "--out", str(series)], capsys)
    assert code == 0
    code, out, _ = run_capture(["fit", "--series", str(series)], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[1])
    assert 0.05 < result["estimate"] < 0.12


def test_fit_reads_log_mass_where_the_mass_underflowed(tmp_path, capsys):
    """Rows whose mass fell below the double range print mass 0 and a finite
    log_mass; fit reads the log_mass, so they stay in the fit."""
    series = tmp_path / "series.jsonl"
    rows = [{"n": n, "log_mass": -0.25 * n, "mass": 0.0, "method": "dp-lattice"}
            for n in range(3000, 8001, 1000)]
    series.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    code, out, _ = run_capture(["fit", "--series", str(series)], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[1])["estimate"] == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# Unreadable, malformed and empty input files


FS2 = {"alphabet": ["0", "1"], "transitions": [[1, 1], [1, 1]]}


@pytest.mark.parametrize("command, body, error, message", [
    ("pressure", None, "ParseError", "cannot read"),
    ("pressure", json.dumps({"alphabet": ["0", "1"]}), "ValidationError",
     "missing or malformed field: 'transitions'"),
    ("pressure", json.dumps({"alphabet": ["a", "a"], "transitions": [[1, 1], [1, 1]]}),
     "ValidationError", "duplicate symbol names in alphabet"),
    ("pressure", json.dumps({**FS2, "potentials": {"zero": {"table": {"0": 0.0, "1": 0.0}}}}),
     "ValidationError", "potential 'zero': malformed entry: 'memory'"),
    ("fit", None, "ParseError", "cannot read"),
    ("fit", '{"n": 10, "mass": \n', "ParseError", "bad JSON line"),
    ("fit", "", "ParseError", "no (n, mass) rows found"),
], ids=["unreadable-spec", "spec-without-transitions", "duplicate-symbols",
        "potential-without-memory", "unreadable-series", "bad-series-line", "empty-series"])
def test_unreadable_malformed_and_empty_inputs_fail_typed(command, body, error, message,
                                                          tmp_path, capsys):
    path = tmp_path / "input"
    if body is not None:
        path.write_text(body, encoding="utf-8")
    argv = (["pressure", "--spec", str(path), "--potential", "zero"] if command == "pressure"
            else ["fit", "--series", str(path)])
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    record = json.loads(err.strip())
    assert record["error"] == error and message in record["message"]


def test_incomplete_high_memory_table_fails_typed_at_its_first_gap(tmp_path, capsys):
    """fs2 has 2**40 admissible 40-words; a table holding one of them fails
    with a record naming the next one, without listing the rest."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**FS2, "potentials": {
        "big": {"memory": 40, "table": {"0" * 40: 0.0}}}}), encoding="utf-8")
    code, out, err = run_capture(["pressure", "--spec", str(path), "--potential", "big"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip()) == {
        "error": "IncompleteTable",
        "message": "potential 'big': missing admissible 40-word (" + "0, " * 39 + "1)"}


def test_error_after_some_rows_prints_only_its_record(tmp_path, capsys):
    """n = 10 fits the enumeration budget and n = 20 does not: only the
    record is printed, and neither stdout nor --out gets the first row."""
    path = tmp_path / "rows.jsonl"
    argv = ["deviation-exact", "--spec", "specs/fs2.json", "--G", "zero", "--phi", "ind1",
            "--past", "0", "--interval", "0.7:1", "--n-range", "10:20:10",
            "--mode", "enumerate", "--budget", "5000"]
    for extra in ([], ["--out", str(path)]):
        code, out, err = run_capture(argv + extra, capsys)
        assert code == 1 and out == ""
        assert json.loads(err.strip())["error"] == "BudgetExceeded"
    assert not path.exists()
