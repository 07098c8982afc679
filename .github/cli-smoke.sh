#!/usr/bin/env bash
# Checks of the installed kepler-balance script, run from any directory:
#   bash .github/cli-smoke.sh
# main() with no argv reads sys.argv.
set -euo pipefail

# F of constant_one at t = 0.5 is (1 + 3t)/(1 - t)^3 = 20
kepler-balance kernel --profile constant_one --t 0.5 --c 4 | python -c "import sys; F = float(sys.stdin.read().splitlines()[1].split(',')[1]); assert abs(F - 20) <= 1e-12, F"
# the poincare exponent on stderr is rho(c) read from the flow: 1 at c = 3/2, 0 at c = 0
kepler-balance poincare --c 1.5 --tmin 1e-3 2>&1 > /dev/null | python -c "import json, sys; e = json.loads(sys.stdin.read().splitlines()[-1])['exponent']; assert e == 1.0, e"
kepler-balance poincare --c 0 --tmin 1e-3 2>&1 > /dev/null | python -c "import json, sys; e = json.loads(sys.stdin.read().splitlines()[-1])['exponent']; assert e == 0.0, e"
# an unknown option exits 2
code=0; kepler-balance kernel --bogus 2> /dev/null || code=$?; test "$code" -eq 2
kepler-balance --help > /dev/null
# at s = 27 + 1e-6 (L = 0.5) the Lerch boundary sum must reach its large
# k = 26 term past a run of small ones: the two paths then agree
kepler-balance lerch --t 0.6065306597126334 --s 27.000001 --n-deriv 2 | python -c "import json, sys; p = json.load(sys.stdin); assert p['diff'] <= 1e-12 * abs(p['direct']), p"
