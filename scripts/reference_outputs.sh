#!/bin/sh
# Run the reference command set with the sources of CHECKOUT, writing
# every output file under OUTDIR (one directory per seed).  Outputs of two
# checkouts are compared byte for byte with `diff -r OUTDIR_A OUTDIR_B`.
#
#   scripts/reference_outputs.sh CHECKOUT OUTDIR
#
# Commands run from inside OUTDIR with relative paths, so the config
# files the CLI writes next to its outputs do not depend on OUTDIR.
# Warnings are errors: a command that warns exits non-zero and stops the
# script.
set -eu
if [ "$#" -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
src="$(cd "$1" && pwd)/src"
mkdir -p "$2"
out="$(cd "$2" && pwd)"

dppls() {
    PYTHONPATH="$src" python3 -W error -m dppls "$@" > /dev/null
}

for seed in 1 7; do
    mkdir -p "$out/seed$seed"
    cd "$out/seed$seed"
    dppls simulate --n 100 --m 100 --seed "$seed" --output sim
    for pipeline in "" "airpls|center"; do
        dppls sweep --input sim/combined.csv --mode both --k 3 --k-max 5 \
            --epsilons 100,10,1 --folds 10 --repeats 20 --seed "$seed" \
            --pipeline "$pipeline" --output "sweep${pipeline:+-airpls}"
    done
    for mode in cv holdout; do
        dppls sweep --input sim/combined.csv --mode "$mode" --k 3 --k-max 5 \
            --epsilons 100,10,1 --folds 10 --repeats 20 --seed "$seed" \
            --pipeline "airpls|center" --output "sweep-airpls-$mode"
    done
    # A row step, then fitted steps: sg maps every row once, msc and
    # center are fitted per split.
    dppls sweep --input sim/combined.csv --mode both --k 3 --k-max 5 \
        --epsilons 100,10,1 --folds 10 --repeats 20 --seed "$seed" \
        --pipeline "sg:5,2,1|msc|center" --output sweep-sg-msc
    # One budget repeated: the release call holds two equal budgets.
    dppls sweep --input sim/combined.csv --mode holdout --k 3 \
        --epsilons 10,10,1 --repeats 20 --seed "$seed" --output sweep-holdout-repeated
    # Two grid points per k share a budget within each fold's release call.
    dppls sweep --input sim/combined.csv --mode cv --k-max 5 \
        --epsilons 10,10,1 --folds 10 --seed "$seed" --output sweep-cv-repeated
    # Seven folds of 200 rows train on 171 or 172 rows: one release call
    # stacks paths of different n.
    dppls sweep --input sim/combined.csv --mode cv --k-max 5 --folds 7 \
        --seed "$seed" --output sweep-cv-7folds
    # Leave-one-out: each of the 200 folds holds out one row, so each
    # fold's held-out product has a single row.
    dppls sweep --input sim/combined.csv --mode cv --k-max 2 --folds 200 \
        --epsilons 10 --seed "$seed" --output sweep-cv-loo
    # One repeat per budget: stacks of one noisy model, no standard errors.
    dppls sweep --input sim/combined.csv --mode holdout --k 3 \
        --epsilons 10,1 --repeats 1 --seed "$seed" --output sweep-holdout-single
    # Each fold's path has 17 components (18 training rows), so the k=18
    # grid points fail on every fold.
    dppls simulate --n 10 --m 20 --seed "$seed" --output sim-tiny
    dppls sweep --input sim-tiny/combined.csv --mode cv --k-max 18 \
        --epsilons 10,1 --folds 10 --seed "$seed" --output sweep-cv-failing
    for k in 3 5; do
        dppls fit --input sim/combined.csv --k "$k" --epsilon 1 --seed 7 \
            --output "models/private-k$k.json"
    done
    dppls fit --input sim/combined.csv --k 3 --output models/clean-combined.json
    dppls fit --input sim/holder1.csv --k 3 --output models/clean-holder1.json
    dppls predict --model models/private-k3.json --input sim/combined.csv \
        --response-col 0 --output predictions.csv
    dppls attack --global-model models/private-k3.json --input sim/holder1.csv \
        --matrix x_loadings --output attack.json
    dppls attack --global-model models/private-k3.json --input sim/holder1.csv \
        --output attack-weights.json
    # holder 2's unique signal as the truth, so the report lists similarities.
    PYTHONPATH="$src" python3 -c 'import sys
from dppls import core, datagen
core.save_matrix(sys.argv[1], datagen.gaussian_signal(100, datagen.UNIQUE_HOLDER2)[:, None])
' truth.csv
    dppls attack --global-model models/private-k3.json --input sim/holder1.csv \
        --truth truth.csv --output attack-truth.json
    dppls preprocess --input sim/combined.csv --pipeline "sg:9,2,1|msc|center" \
        --output preprocessed.csv
    # The CSV writers with a header line (save_dataset) and without a
    # response column (save_matrix), and the readers on their output.
    dppls simulate --n 100 --m 100 --seed "$seed" --header --output sim-header
    dppls preprocess --input sim-header/combined.csv --header \
        --pipeline "sg:9,2,1|msc|center" --output preprocessed-header.csv
    dppls preprocess --input sim/combined.csv --matrix-only \
        --pipeline "sg:9,2,1|msc|center" --output preprocessed-matrix.csv
    # The matrix writer with a header line: x0, x1, ... for every column.
    dppls preprocess --input sim-header/combined.csv --header --matrix-only \
        --pipeline "" --output matrix-header.csv
    dppls fit --input preprocessed-header.csv --header --k 3 --epsilon 1 --seed 7 \
        --output models/private-header.json
    dppls predict --model models/private-header.json --input preprocessed-header.csv \
        --header --response-col 0 --output predictions-header.csv
    # Values of every layout repr gives: signed zeros, subnormals (5e-324,
    # 1e-323 and both sides of the smallest normal), both sides of each
    # switch to the exponent form, integers at 2^53, and inf and nan in
    # the channels.  An empty pipeline writes them back byte for byte, in
    # both writers.
    python3 -c 'import sys
inf, nan = float("inf"), float("nan")
rows = [[1.5, 0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308],
        [-2.0, 1e-05, 0.0001, 1e+16, 9999999999999998.0, 1e+22, 1e+23],
        [0.25, 9007199254740991.0, 9007199254740992.0, 9007199254740994.0, 123.0,
         -1.5e+300, 0.001234],
        [1e+300, inf, -inf, nan, -5e-324, 1125899906842624.2, 0.1]]
with open(sys.argv[1], "w") as fh:
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")
' edges.csv
    dppls preprocess --input edges.csv --pipeline "" --output edges-dataset.csv
    dppls preprocess --input edges.csv --matrix-only --pipeline "" \
        --output edges-matrix.csv
    cmp edges.csv edges-dataset.csv
    cmp edges.csv edges-matrix.csv
    # The finite layouts alone, the dotless forms (1e-05, 5e-324, 1e+16)
    # included, in rows of equal width: the grammar the fast reader takes.
    # They are written back byte for byte, in both writers; CRLF and quoted
    # copies, which the reader leaves to loadtxt, give the same bytes.
    python3 -c 'import sys
rows = [[1.5, 0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308],
        [-2.0, 1e-05, 0.0001, 1e+16, 9999999999999998.0, 1e+22, 1e+23],
        [0.25, 9007199254740991.0, 9007199254740992.0, 9007199254740994.0, 123.0,
         -1.5e+300, 0.001234],
        [1e+300, 1.7976931348623157e+308, -1.7976931348623157e+308, -1e-05, -5e-324,
         1125899906842624.2, 0.1],
        [1125899906842624.8, 1e-07, 0.000123, -1e+16, 1.2345678901234567e-300,
         123456789012345.67, -0.5]]
with open(sys.argv[1], "w") as fh:
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")
' edges-finite.csv
    # Sources with the fast reader check that it takes the file.
    PYTHONPATH="$src" python3 -c 'import sys
from dppls import core
read = getattr(core, "_read_fast", None)
sys.exit(read is not None and read(sys.argv[1], False) is None)
' edges-finite.csv
    sed 's/$/\r/' edges-finite.csv > edges-finite-crlf.csv
    sed 's/[^,]*/"&"/g' edges-finite.csv > edges-finite-quoted.csv
    for copy in "" -crlf -quoted; do
        dppls preprocess --input "edges-finite$copy.csv" --pipeline "" \
            --output "edges-finite$copy-dataset.csv"
        dppls preprocess --input "edges-finite$copy.csv" --matrix-only --pipeline "" \
            --output "edges-finite$copy-matrix.csv"
        cmp edges-finite.csv "edges-finite$copy-dataset.csv"
        cmp edges-finite.csv "edges-finite$copy-matrix.csv"
    done
    # Every decimal layout repr gives, in both signs: each decimal point
    # position -5..18 (both switches to the exponent form and each place
    # of the point among 17 digits), one row each, and each significant
    # digit count 1..17.  An empty pipeline writes it back byte for byte,
    # in both writers.
    python3 -c 'import math, sys
def layout(text):
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    point = len(whole) - len(digits) + len(digits.lstrip("0")) + int(exponent or 0)
    return point, len(digits.strip("0"))
with open(sys.argv[1], "w") as fh:
    for sign in (1, -1):
        for point in range(-5, 19):
            row = []
            for count in range(1, 18):
                x = float("0.%se%d" % ("12345678912345678"[:count], point))
                while layout(repr(x)) != (point, count):
                    x = math.nextafter(x, math.inf)
                row.append(repr(sign * x))
            fh.write(",".join(row) + "\n")
' layouts.csv
    dppls preprocess --input layouts.csv --pipeline "" --output layouts-dataset.csv
    dppls preprocess --input layouts.csv --matrix-only --pipeline "" \
        --output layouts-matrix.csv
    cmp layouts.csv layouts-dataset.csv
    cmp layouts.csv layouts-matrix.csv
    # airPLS at orders 1, 2 and 3 (bandwidths 1 to 3 of the banded solve),
    # and at order 2 through a protocol.
    dppls preprocess --input sim/combined.csv --pipeline "airpls|center" \
        --output preprocessed-airpls.csv
    dppls preprocess --input sim/combined.csv --pipeline "airpls:1e5,15,2|center" \
        --output preprocessed-airpls2.csv
    dppls preprocess --input sim/combined.csv --pipeline "airpls:1e3,15,3|center" \
        --output preprocessed-airpls3.csv
    dppls sweep --input sim/combined.csv --mode holdout --k 3 \
        --epsilons 100,10,1 --repeats 20 --seed "$seed" \
        --pipeline "airpls:1e5,15,2|center" --output sweep-airpls2-holdout
done
