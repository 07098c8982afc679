#!/usr/bin/env bash
# Checks of the installed kepler-balance script, run from any directory:
#   bash .github/cli-smoke.sh
# main() with no argv reads sys.argv.
set -euo pipefail

# F of constant_one at t = 0.5 is (1 + 3t)/(1 - t)^3 = 20
kepler-balance kernel --profile constant_one --t 0.5 --c 4 | python -c "import sys; F = float(sys.stdin.read().splitlines()[1].split(',')[1]); assert abs(F - 20) <= 1e-12, F"
# phi_v at v = 8.96724 is nearly singular at t = 0; its exact form gives F
# within 1e-12 of the closed form (quadrature was 1.9e-4 off)
kepler-balance kernel --profile phi_v_candidate:v=8.96724 --t 0.5 --c 4 | python -c "import sys; from kepler_balance.kernel import closed_form_F_phi_v as cf; F = float(sys.stdin.read().splitlines()[1].split(',')[1]); assert abs(F - cf(8.96724, 0.5)) <= 1e-12 * cf(8.96724, 0.5), F"
# the poincare exponent on stderr is rho(c) read from the flow: 1 at c = 3/2, 0 at c = 0
kepler-balance poincare --c 1.5 --tmin 1e-3 2>&1 > /dev/null | python -c "import json, sys; e = json.loads(sys.stdin.read().splitlines()[-1])['exponent']; assert e == 1.0, e"
kepler-balance poincare --c 0 --tmin 1e-3 2>&1 > /dev/null | python -c "import json, sys; e = json.loads(sys.stdin.read().splitlines()[-1])['exponent']; assert e == 0.0, e"
# an unknown option exits 2
code=0; kepler-balance kernel --bogus 2> /dev/null || code=$?; test "$code" -eq 2
kepler-balance --help > /dev/null
# a subcommand's own argv errors report that subcommand's usage; what it
# leaves over is reported by the top-level parser, as argparse's two passes do
code=0; err=$(kepler-balance lerch --t 0.5 2>&1 > /dev/null) || code=$?
test "$code" -eq 2
[[ "$err" == "usage: kepler-balance lerch "* ]]
code=0; err=$(kepler-balance lerch --t 0.5 --s 1 --bogus 2>&1 > /dev/null) || code=$?
test "$code" -eq 2
[[ "$err" == "usage: kepler-balance [-h]"* ]]
out=$(kepler-balance kernel -h)
[[ "$out" == "usage: kepler-balance kernel "* ]]
# at s = 27 + 1e-6 (L = 0.5) the Lerch boundary sum must reach its large
# k = 26 term past a run of small ones: the two paths then agree
kepler-balance lerch --t 0.6065306597126334 --s 27.000001 --n-deriv 2 | python -c "import json, sys; p = json.load(sys.stdin); assert p['diff'] <= 1e-12 * abs(p['direct']), p"
# a third s-derivative: the table of s = 0.5 holds columns 0..3, and the
# boundary path reads column 3
kepler-balance lerch --t 0.3 --s 0.5 --n-deriv 3 | python -c "import json, sys; p = json.load(sys.stdin); assert p['diff'] <= 1e-12 * abs(p['direct']), p"
# the exact A_m chain at v = 2: A_0 = 1, A_1 = 0 and A_m = (1 - v)/2^(m+2)
# = -1/2^(m+2) for m = 2..20, printed as exact fractions
kepler-balance asymptotics --v 2 --order 20 | python -c "import json, sys; from fractions import Fraction as F; p = json.load(sys.stdin); assert p['exact'] is True, p; A = [F(a) for a in p['A']]; assert A == [1, 0] + [F(-1, 2 ** (m + 2)) for m in range(2, 21)], A"
