import json
import math
import os
from pathlib import Path

import pytest

from ldplab import IncompleteTable, NotPrimitive, ParseError, ValidationError
from ldplab.cli import load_spec, run, to_json

from conftest import golden_rate

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


def test_usage_error_gives_exit_two(capsys):
    code, _, err = run_capture(["pressure", "--spec", "specs/fs2.json"], capsys)
    assert code == 2
    assert "--potential" in err


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
