#!/bin/sh
# Regenerate the golden CLI outputs compared by tests/test_cli.py.
# Run from anywhere; paths inside the outputs stay repository-relative.
set -e
cd "$(dirname "$0")/../.."
# Run the package in this working tree, not an installed copy.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python3 -m ldplab pressure --spec specs/fs2.json --potential zero \
    --out tests/golden/pressure_fs2.jsonl
python3 -m ldplab rate --spec specs/fs2.json --G zero --phi ind1 --alpha 0.75 \
    --out tests/golden/rate_fs2.jsonl
python3 -m ldplab entropy --spec specs/golden.json --potential zero \
    --out tests/golden/entropy_gm.jsonl
python3 -m ldplab gibbs --spec specs/golden.json --potential zero \
    --out tests/golden/gibbs_gm.jsonl
python3 -m ldplab qcurve --spec specs/golden.json --G zero --phi ind1 --t=-1:1:5 \
    --format csv --out tests/golden/qcurve_gm.csv
python3 -m ldplab ratecurve --spec specs/golden.json --G zero --phi ind1 \
    --alphas 0.1:0.4:4 --format csv --out tests/golden/ratecurve_gm.csv
python3 -m ldplab leaf-audit --spec specs/fs2.json --G bern03 --past 0 --n-max 6 --r 1 \
    --out tests/golden/audit_fs2.jsonl
python3 -m ldplab growth --spec specs/fs2.json --G zero --phi ind1 --past 1 \
    --n-range 5:20:5 --format csv --out tests/golden/growth_fs2.csv
python3 -m ldplab deviation-exact --spec specs/fs2.json --G zero --phi ind1 --past 0 \
    --interval 0.7:1 --n-range 10:20:5 --out tests/golden/deviation_fs2.jsonl
python3 -m ldplab deviation-mc --spec specs/fs2.json --G zero --phi ind1 --past 0 \
    --interval 0.7:1 --n 15 --samples 5000 --tilt auto --seed 7 \
    --out tests/golden/mc_fs2.jsonl
python3 -m ldplab fit --series tests/golden/deviation_series_input.jsonl \
    --out tests/golden/fit_fs2.jsonl
python3 -m ldplab axioms --spec specs/golden.json --samples 100 --seed 1 \
    --out tests/golden/axioms_gm.jsonl
