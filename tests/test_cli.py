import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kepler_balance
from kepler_balance import kernel as kern
from kepler_balance.cli import build_parser, main, parse_grid, parse_profile
from kepler_balance.errors import DomainError
from kepler_balance.profiles import RadialProfile


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_profile_inline_and_json(tmp_path):
    p = parse_profile("phi_v_candidate:v=1")
    assert p.kind == "phi_v_candidate" and p.params["v"] == 1
    q = parse_profile('{"kind": "explicit_n", "params": {"n": 3}}')
    assert q.params["n"] == 3
    # sqrt_poincare is a spelling of explicit_n with n = 2, inline and as JSON
    path = tmp_path / "prof.json"
    path.write_text('{"kind": "sqrt_poincare", "params": {}}')
    for spec, scale in ((str(path), 1.0), ("sqrt_poincare", 1.0),
                        ("sqrt_poincare:scale=1.5", 1.5),
                        ('{"kind": "sqrt_poincare", "params": {"scale": 1.5}}', 1.5)):
        assert parse_profile(spec) == RadialProfile.explicit_n(2, scale), spec


def test_sign_note_on_every_request(capsys):
    # Python's default action shows a warning once per location; the CLI
    # notes a sign-changing density on each request that uses it, once, as
    # its own stderr line: no file path or source line of the package
    argv = ["kernel", "--profile", "phi_v_candidate:v=0.5", "--t", "0.5", "--c", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        outs = [run_cli(argv, capsys) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    err = outs[0][2]
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("note: ") and "phi_0.5" in lines[0]
    assert "SignedDensityWarning" not in err and ".py" not in err and "args.fn" not in err


def test_parse_grid():
    g = parse_grid("0.1:0.9:9")
    assert len(g) == 9
    assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(0.9)
    with pytest.raises(DomainError):
        parse_grid("0.5:1.5:3")
    with pytest.raises(DomainError):
        parse_grid("0.1:0.9")


def test_kernel_candidate_grid(capsys, tmp_path):
    out = tmp_path / "k.csv"
    code, _o, _e = run_cli(
        ["kernel", "--profile", "phi_v_candidate:v=1", "--n", "2", "--c", "4",
         "--grid", "0.1:0.9:9", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,F,defect"
    assert len(lines) == 10
    defects = [abs(float(row.split(",")[2])) for row in lines[1:]]
    assert max(defects) <= 1e-9


@pytest.mark.parametrize("profile, c", [
    ("constant_one", "4"),
    ("phi_v_candidate:v=1", "4"),
    ("phi_v_candidate:v=1", "auto"),
    ("sqrt_poincare", "auto"),
])
def test_kernel_rows_match_library(profile, c, capsys):
    # the CLI and the library share one loop over t: each printed F and
    # defect, t = 0 included, is the library's float after the 17-digit
    # round trip (constant_one has no boundary c: f^3 F grows like (1-t)^-3)
    code, out, _err = run_cli(["kernel", "--profile", profile, "--grid", "0:0.95:5",
                               "--c", c], capsys)
    assert code == 0
    prof = parse_profile(profile)
    dens = kern.associated_density(prof, 2)
    c_lib = "auto" if c == "auto" else float(c)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 5 and float(rows[0][0]) == 0.0
    for t, F, defect in rows:
        t = float(t)
        assert float(F) == kern.kernel_series(dens, 2, t).value, t
        assert float(defect) == kern.balanced_defect(prof, 2, c_lib, t, density=dens), t


def test_kernel_constant_one_point(capsys):
    code, out, _ = run_cli(
        ["kernel", "--profile", "constant_one", "--n", "2", "--t", "0.5", "--c", "4"],
        capsys,
    )
    assert code == 0
    F = float(out.strip().splitlines()[1].split(",")[1])
    assert F == pytest.approx(20.0, rel=1e-9)


def test_kernel_auto_c_without_boundary_value_is_config_error(capsys):
    # the default --c auto on a profile with no boundary c is the input's
    # fault (exit 1), not a numerical failure (exit 2)
    code, out, err = run_cli(["kernel", "--profile", "constant_one", "--t", "0.5"], capsys)
    assert code == 1
    assert "configuration error" in err and "no finite boundary value" in err
    assert out == ""


@pytest.mark.parametrize("c", ["4", "auto"])
def test_kernel_poincare_profile(c, capsys):
    # W_2 of the Poincare solution is 1, so F is (1 + 3t)/(1 - t)^3 and
    # --c auto is 4; below t_min_reached the profile is not computed
    code, out, _err = run_cli(["kernel", "--profile", "poincare_numeric:c=1", "--format", "json",
                               "--grid", "0.001:0.999:5", "--c", c], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 4.0
    for row in payload["rows"]:
        t = row["t"]
        assert row["F"] == pytest.approx((1 + 3 * t) / (1 - t) ** 3, rel=1e-14)
    code, out, err = run_cli(["kernel", "--profile", "poincare_numeric:c=1", "--t", "1e-5",
                              "--c", c], capsys)
    assert code == 1 and "outside range" in err and out == ""


def test_kernel_empty_grid_is_config_error(capsys):
    code, _o, err = run_cli(
        ["kernel", "--profile", "constant_one", "--grid", "0.5:0.1:0", "--c", "4"],
        capsys,
    )
    assert code == 1


def test_kernel_requires_t_or_grid(capsys):
    code, _o, err = run_cli(
        ["kernel", "--profile", "constant_one", "--c", "4"], capsys
    )
    assert code == 1


@pytest.mark.parametrize("command", ["kernel", "profile-eval"])
@pytest.mark.parametrize("flags, names", [
    (["--grid", "0.1:0.5:3", "--t", "0.2"], "not both"),
    (["--grid", "0.1:0.5:1"], "start = stop"),
], ids=["grid-and-t", "one-point-grid-two-ends"])
def test_grid_flags_are_never_dropped(command, flags, names, capsys):
    # --t beside --grid, and a one-point grid's second end, would be ignored
    code, out, err = run_cli([command, "--profile", "constant_one", *flags], capsys)
    assert code == 1
    assert "configuration error" in err and names in err
    assert out == ""


def test_one_point_grid_is_t(capsys):
    argv = ["kernel", "--profile", "constant_one", "--c", "4"]
    code, out, _err = run_cli(argv + ["--grid", "0.5:0.5:1"], capsys)
    assert code == 0
    assert (code, out) == run_cli(argv + ["--t", "0.5"], capsys)[:2]


def test_corrupted_profile_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _o, err = run_cli(
        ["kernel", "--profile", str(bad), "--t", "0.5", "--c", "4"], capsys
    )
    assert code == 1


def test_poincare_c0_summary(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code, _o, err = run_cli(
        ["poincare", "--c", "0", "--tmin", "1e-3", "--out", str(out)], capsys
    )
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["sup_error_vs_exact"] <= 1e-8
    header = out.read_text().splitlines()[0]
    assert header == "t,f,fp,fpp,psi_residual"


def test_poincare_cusp_exit_code(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code, _o, err = run_cli(
        ["poincare", "--c", "-0.1", "--tmin", "1e-3", "--out", str(out)], capsys
    )
    assert code == 3
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["t0"] is not None


def test_poincare_c1_exponent(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code, _o, err = run_cli(
        ["poincare", "--c", "1", "--tmin", "1e-4", "--out", str(out)], capsys
    )
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    from kepler_balance.poincare import rho

    assert summary["exponent"] == rho(1.0)


@pytest.mark.parametrize("c, want", [("0", 0.0), ("1.5", 1.0), ("1e-6", "rho"), ("-0.1", None)])
def test_poincare_exponent_read_from_the_flow(capsys, tmp_path, c, want):
    # the stderr exponent is rho(c) to the bit for every c >= 0, null for
    # c < 0: 0 for the bounded f = 2 - 2 sqrt(t), 1 at c = 3/2, and
    # rho(1e-6) = 0.00141, where a fit over t in [1e-3, 1e-2] read 0.0311
    from kepler_balance.poincare import rho

    code, _o, err = run_cli(
        ["poincare", "--c", c, "--tmin", "1e-3", "--out", str(tmp_path / "sol.csv")], capsys
    )
    assert code in (0, 3)
    got = json.loads(err.strip().splitlines()[-1])["exponent"]
    assert got == (rho(float(c)) if want == "rho" else want)


def test_asymptotics_json(capsys):
    code, out, _ = run_cli(["asymptotics", "--v", "9", "--order", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["A"][0] == "1" and payload["A"][1] == "0"
    assert payload["A"][2] == "-1/2"


@pytest.mark.parametrize("v", ["2", "-1"])
def test_asymptotics_exact_for_any_integer_v(v, capsys):
    # the exact chain runs for every integer v, square or not, and v < 0
    code, out, _ = run_cli(["asymptotics", "--v", v, "--order", "12"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True and payload["v"] == float(v)
    A = [Fraction(a) for a in payload["A"]]
    assert A == [1, 0] + [(1 - int(v)) / Fraction(2) ** (m + 2) for m in range(2, 13)]


def test_asymptotics_negative_order_rejected(capsys):
    code, out, err = run_cli(["asymptotics", "--v", "4", "--order", "-1"], capsys)
    assert code == 1 and out == ""
    assert err == "configuration error: --order must be >= 0, got -1\n"


def test_lerch_json(capsys):
    code, out, _ = run_cli(["lerch", "--t", "0.5", "--s", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] == pytest.approx(2 * np.log(2))
    assert payload["diff"] <= 1e-10


@pytest.mark.parametrize("t", ["0.5", "0.001"])
@pytest.mark.parametrize("s, n", [("2", "11"), ("1e300", "0")], ids=["n-past-table", "s-huge"])
def test_lerch_boundary_capability_keeps_direct(t, s, n, capsys):
    # the boundary path has no value (an integer s or n_deriv past the
    # Gamma-Laurent table, or L >= 2 pi at t = 0.001): the request keeps its
    # direct value at every t and names the reason on stderr
    from kepler_balance.asymptotics import lerch_phi

    code, out, err = run_cli(["lerch", "--t", t, "--s", s, "--n-deriv", n], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"] is None and payload["diff"] is None
    assert payload["direct"] == lerch_phi(float(t), float(s), int(n), method="direct")
    reason = "Gamma-Laurent table" if t == "0.5" else "L < 2*pi"
    assert err.startswith("boundary: ") and reason in err and err.count("\n") == 1


@pytest.mark.parametrize("t, s, n, value", [("0.5", "0.5", "171", -2.26e87),
                                            ("0.9", "-1.5", "200", 3.35e143)])
def test_lerch_derivative_order_past_float_factorial_keeps_direct(t, s, n, value, capsys):
    # n_deriv! passes float range: the boundary path has no value, and the
    # direct one stands (this ended in a bare OverflowError, exit 1)
    from kepler_balance.asymptotics import lerch_phi

    code, out, err = run_cli(["lerch", "--t", t, "--s", s, "--n-deriv", n], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"] is None and payload["diff"] is None
    assert payload["direct"] == lerch_phi(float(t), float(s), int(n), method="direct")
    assert payload["direct"] == pytest.approx(value, rel=1e-2)
    assert err == f"boundary: n_deriv={n}: the boundary expansion needs n! in float range " \
                  "(n_deriv <= 170)\n"


@pytest.mark.parametrize("t, s, n, reason", [
    ("0.5", "0.5", "155", "n_deriv=155: the Gamma derivatives at 1-s=0.5 pass float range"),
    ("0.5", "0.5", "170", "n_deriv=170: the Gamma derivatives at 1-s=0.5 pass float range"),
    ("0.5", "-0.7", "170", "zeta^(170)(s - k) L^k / k! at s=-0.7, n=170, k=0 passes float range"),
    ("0.01", "-171", "0", "singular part at s=-171, n_deriv=0, L=4.60517 overflows float64"),
    ("0.01", "-171.5", "0", "n_deriv=0: the Gamma derivatives at 1-s=172.5 pass float range"),
], ids=["s0.5-n155", "s0.5-n170", "s-0.7-n170", "t0.01-s-171", "t0.01-s-171.5"])
def test_lerch_boundary_past_float_range_keeps_direct(t, s, n, reason, capsys):
    # a coefficient or zeta term of the boundary expansion passes float range
    # below n_deriv = 171: the path stops there with one reason line, where
    # it wrote a numpy overflow warning and summed non-finite terms to its
    # 10,000-term cap for ~2 s (pytest fails on a RuntimeWarning).  At
    # s = -171 and -171.5, Gamma(1-s) itself passes float range; that exited
    # 1 and dropped the finite direct value
    from kepler_balance.asymptotics import lerch_phi

    start = time.perf_counter()
    code, out, err = run_cli(["lerch", "--t", t, "--s", s, "--n-deriv", n], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"] is None and payload["diff"] is None
    assert payload["direct"] == lerch_phi(float(t), float(s), int(n), method="direct")
    assert err == f"boundary: {reason}\n"


def test_profile_eval(capsys):
    code, out, _ = run_cli(
        ["profile-eval", "--profile", "sqrt_poincare", "--t", "0.25"], capsys
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert [float(x) for x in row] == [0.25, 1.0, -2.0, 4.0, 1.0]


def test_profile_eval_non_finite_row_is_config_error(capsys):
    # f overflows at v = 1e300: the row printed inf and NaN with exit 0
    code, out, err = run_cli(
        ["profile-eval", "--profile", "phi_v_candidate:v=1e300", "--t", "0.5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("configuration error: profile 'phi_v_candidate' at t = 0.5: ")
    assert "not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("t", ["0.5", "0.95"], ids=["direct", "kummer"])
def test_kernel_density_underflow_is_config_error(t, capsys):
    # the moments (direct path) or the A_m (Kummer split) of a density at
    # 1e-320 leave float range: this ended in ZeroDivisionError or
    # OverflowError tracebacks
    code, out, err = run_cli(["kernel", "--profile", "constant_one:scale=1e-320",
                              "--t", t, "--c", "4"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("configuration error: f[constant_one]: ") and err.count("\n") == 1


def test_verify_only_filter(capsys):
    code, _o, _e = run_cli(["verify", "--only", "monge"], capsys)
    assert code == 0
    code, _o, _e = run_cli(["verify", "--only", "nonexistent-criterion"], capsys)
    assert code == 1


def test_determinism_across_runs(capsys, tmp_path, monkeypatch):
    # the first run fills a fresh density's moments, the second reads the cache
    monkeypatch.setattr(kern, "_PHI_V_DENSITIES", {})
    args = ["kernel", "--profile", "phi_v_candidate:v=1", "--c", "4",
            "--grid", "0.1:0.5:5"]
    a = tmp_path / "a.csv"
    run_cli(args + ["--out", str(a)], capsys)
    b = tmp_path / "b.csv"
    run_cli(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["defect", "--profile", "constant_one", "--t", "0.5", "--c", "4"],
    ["profile-eval", "--profile", "sqrt_poincare", "--t", "0.25", "--format", "json"],
    ["profile-eval", "--profile", "sqrt_poincare", "--t", "0.25", "--tol", "1e-9"],
    ["poincare", "--c", "0.5", "--tol", "nan"],
    ["poincare", "--c", "0.5", "--tol", "inf"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--tol", "nan"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--c", "4", "--tol", "nan"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--c", "4", "--tol", "inf"],
], ids=["defect", "profile-eval-format", "profile-eval-tol", "poincare-tol-nan",
        "poincare-tol-inf", "kernel-tol-nan-auto-c", "kernel-tol-nan", "kernel-tol-inf"])
def test_removed_cli_surface_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _asymptotics_float_v(v, order, capsys):
    """Run ``asymptotics`` at a non-integer v and check that every A_m is the
    correctly rounded closed form: A_0 = 1, A_1 = 0, (1 - v)/2^(m+2) for m >= 2,
    with v the exact value of the float."""
    code, out, err = run_cli(["asymptotics", "--v", v, "--order", str(order)], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["exact"] is False and payload["v"] == float(v)
    exact_v = Fraction(float(v))
    want = [1.0, 0.0] + [float((1 - exact_v) / 2 ** (m + 2)) for m in range(2, order + 1)]
    assert payload["A"] == want
    assert all(type(a) is float for a in payload["A"])


@pytest.mark.parametrize("v", ["17.3", "20.5", "30.7"])
def test_asymptotics_float_v_runs_exact_chain(v, capsys):
    # these v made the float chain miss its 1e-12 product check at order 20
    # (exit 2); every v now runs the exact chain from Fraction(v)
    _asymptotics_float_v(v, 20, capsys)


@pytest.mark.parametrize("order", [10, 20])
@pytest.mark.parametrize("v", ["0.5", "2.5", "17.3", "60.1", "1234.567", "-3.7"])
def test_asymptotics_float_v_scan(v, order, capsys):
    _asymptotics_float_v(v, order, capsys)


def test_numerical_failure_exit_code(capsys):
    # n = 3 has no Kummer split: the direct series this close to 1 exceeds
    # the hard series-term cap
    code, _o, err = run_cli(
        ["kernel", "--profile", "explicit_n:n=3", "--n", "3", "--t", "0.9999999",
         "--c", "4"],
        capsys,
    )
    assert code == 2
    assert "numerical failure" in err


@pytest.mark.parametrize("argv, names", [
    (["kernel", "--profile", "explicit_n:n=3,scale=0", "--n", "3", "--t", "0.5", "--c", "4"],
     "density vanishes"),
    (["lerch", "--t", "0", "--s", "2"], "--t must lie in (0, 1), got 0.0"),
    (["asymptotics", "--v", "nan", "--order", "10"], "--v must be finite, got nan"),
    (["kernel", "--profile", "explicit_n:n=2.5", "--t", "0.5", "--c", "4"],
     "explicit_n requires integer n >= 2, got n = 2.5"),
    (["kernel", "--profile", '{"kind": "explicit_n", "params": {"n": 3.7}}', "--t", "0.5",
      "--c", "4"], "explicit_n requires integer n >= 2, got n = 3.7"),
    (["kernel", "--profile", "taylor_at_one:coeffs=1", "--t", "0.9", "--c", "4"],
     "coeffs, a nonempty list of numbers"),
    (["poincare", "--c=-1e50"], "c = -1e+50 is too negative: its cusp t0 rounds to 1"),
    (["kernel", "--profile", "phi_v_candidate:v=2,scale=0", "--t", "0.5"],
     "f(t) = 0.0 at t = 0.5"),
    (["lerch", "--t", "0.5", "--s", "inf"], "s must be finite"),
    (["lerch", "--t", "0.5", "--s", "nan"], "s must be finite"),
], ids=["kernel-zero-density", "lerch-t-0", "asymptotics-v-nan", "explicit_n-n-2.5",
        "explicit_n-json-n-3.7", "taylor_at_one-one-coeff", "poincare-past-cusp",
        "kernel-zero-profile", "lerch-s-inf", "lerch-s-nan"])
def test_bad_input_named_in_configuration_error(argv, names, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("configuration error: ") and names in err


def test_lerch_boundary_budget_exit_code(capsys):
    # at L = 6.27 the boundary sum has not met its stopping rule by the term
    # cap: the request keeps its direct value and reports no boundary value
    from kepler_balance.asymptotics import lerch_phi

    t = float(np.exp(-6.27))
    code, out, err = run_cli(["lerch", "--t", repr(t), "--s", "-1.5", "--n-deriv", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"] is None and payload["diff"] is None
    assert payload["direct"] == lerch_phi(t, -1.5, 2, method="direct")
    assert "stopping rule" in err


@pytest.mark.parametrize("t, s, oracle", [
    ("0.9999999", "2", 1.64493251953183096514),
    ("0.999999", "-30", 2.65249013435578039347e218),
], ids=["s2", "s-30"])
def test_lerch_direct_budget_keeps_boundary(t, s, oracle, capsys):
    # the direct sum would need ~10^7 terms: the request keeps its boundary
    # value and reports no direct value, as the boundary path does near 2 pi
    from kepler_balance.asymptotics import lerch_phi

    code, out, err = run_cli(["lerch", "--t", t, "--s", s], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] is None and payload["diff"] is None
    assert payload["boundary"] == lerch_phi(float(t), float(s), 0, method="boundary")
    assert payload["boundary"] == pytest.approx(oracle, rel=1e-14)  # mpmath, 30 digits
    assert err.startswith("direct: ") and "stopping rule" in err


def _perfbench_requests(name, seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [request.argv for request in workloads.build(name, seed)]


def test_lerch_asymptotics_requests_print_the_same_in_any_order(capsys, monkeypatch):
    # the (s, n) zeta tables one request leaves behind do not change what a
    # later one prints: the benchmark's requests, forward and then reversed
    # in one process, from emptied tables
    from kepler_balance import special

    monkeypatch.setattr(special, "_tables", type(special._tables)())
    argvs = _perfbench_requests("lerch-asymptotics", 1)
    forward = [run_cli(argv, capsys) for argv in argvs]
    backward = [run_cli(argv, capsys) for argv in reversed(argvs)]
    assert all(code == 0 for code, _out, _err in forward)
    assert backward[::-1] == forward


def test_kernel_json_format(capsys):
    code, out, _ = run_cli(
        ["kernel", "--profile", "constant_one", "--t", "0.25", "--c", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 4.0
    assert payload["rows"][0]["t"] == 0.25


def test_parser_shared_across_calls():
    # main() reuses one parser per process; two different subcommands run
    # back to back in one process print the bytes each prints alone
    env = dict(os.environ, PYTHONPATH=str(Path(kepler_balance.__file__).parents[1]))
    cmds = [
        ["lerch", "--t", "0.5", "--s", "1"],
        ["kernel", "--profile", "constant_one", "--t", "0.25", "--c", "4"],
    ]

    def run(*argvs):
        code = "from kepler_balance.cli import main\n" + "".join(
            f"assert main({argv!r}) == 0\n" for argv in argvs
        )
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True).stdout

    alone = [run(argv) for argv in cmds]
    assert alone[0] and alone[1]
    assert run(*cmds) == alone[0] + alone[1]


@pytest.mark.parametrize("argv", [
    ["poincare", "--c", "nan"],
    ["poincare", "--c", "inf"],
    ["poincare", "--c=-inf"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--c", "nan"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--c", "inf"],
], ids=["poincare-c-nan", "poincare-c-inf", "poincare-c-minus-inf", "kernel-c-nan",
        "kernel-c-inf"])
def test_nonfinite_inputs_are_config_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "configuration error" in err
    assert out == ""


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_kernel_n_below_2_is_config_error(n, capsys):
    # at t = 0 the series reads only its first term; n is still checked
    code, out, err = run_cli(
        ["kernel", "--profile", "constant_one", f"--n={n}", "--t", "0", "--c", "4"], capsys
    )
    assert code == 1
    assert "configuration error" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["lerch", "--t", "0.5", "--s", "-170", "--n-deriv", "0"],
    ["lerch", "--t", "0.99", "--s", "-175", "--n-deriv", "0"],
], ids=["t0.5-s-170", "t0.99-s-175"])
def test_lerch_nonfinite_value_is_config_error(argv, capsys):
    # the direct sum overflows float64 first at both points (the boundary
    # path too, at t = 0.99 in its exact Gamma(1-s)): no NaN or Infinity on
    # stdout, no traceback
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "configuration error" in err and "overflow" in err
    assert out == ""


def test_cli_runs_without_scipy():
    # a fresh interpreter: importing the CLI and running one request of each
    # numerical kind loads no scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(kepler_balance.__file__).parents[1]))
    code = "\n".join([
        "import os, sys",
        "from kepler_balance.cli import main",
        "runs = [",
        "    (['poincare', '--c', '-0.1', '--tmin', '1e-3'], 3),",
        "    (['lerch', '--t', '0.5', '--s', '2', '--n-deriv', '1'], 0),",
        "    (['asymptotics', '--v', '17.3', '--order', '10'], 0),",
        "    (['kernel', '--profile', 'phi_v_candidate:v=2.5', '--t', '0.95', '--c', '4'], 0),",
        "]",
        "for argv, want in runs:",
        "    assert main(argv + ['--out', os.devnull]) == want, argv",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # every documented command runs as written: exit 0, or 3 for the cusp run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI examples", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("kepler-balance ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        cusp = argv[0] == "poincare" and float(argv[argv.index("--c") + 1]) < 0
        assert run_cli(argv, capsys)[0] == (3 if cusp else 0), argv


def test_candidate_defect_is_rounding(capsys):
    # F is truncated at the accuracy of its moments, so the balanced
    # candidate's defect is rounding (an absolute 1e-10 target left -4e-11)
    code, out, _err = run_cli(["kernel", "--profile", "phi_v_candidate:v=2",
                               "--grid", "0.1:0.5:3", "--c", "4"], capsys)
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 3
    for t, F, defect in rows:
        assert abs(defect) <= 1e-13 * F, t


def test_constant_one_in_three_dimensions(capsys):
    # F = sum_k N_3(k) (k + 2) t^k = sum_k (k+1)^2 (k+2) 2^-k = 64 at t = 1/2
    code, out, _err = run_cli(["kernel", "--profile", "constant_one", "--n", "3",
                               "--t", "0.5", "--c", "4"], capsys)
    assert code == 0
    F = float(out.splitlines()[1].split(",")[1])
    assert abs(F - 64.0) <= 1e-14 * 64.0


@pytest.mark.parametrize("argv", [
    ["profile-eval", "--profile", "phi_v_candidate:v=1", "--t", "1"],
    ["profile-eval", "--profile", "explicit_n:n=3", "--n", "3", "--t", "1.0000000000000004"],
], ids=["candidate-at-1", "explicit-past-1"])
def test_t_outside_unit_interval_is_config_error(argv, capsys):
    # at t = 1 W was NaN, and past it f was negative, both with exit 0
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "--t must lie in [0, 1)" in err
    assert out == ""


@pytest.mark.parametrize("spec, key", [
    ("poincare_numeric:c=1,tol=1e-12", "tol"),
    ("explicit_n:n=2,m=3", "m"),
    ('{"kind": "explicit_n", "params": {"n": 2, "m": 3}}', "m"),
], ids=["poincare-tol", "explicit-m", "json-explicit-m"])
def test_unknown_profile_key_is_config_error(spec, key, capsys):
    code, out, err = run_cli(["profile-eval", "--profile", spec, "--t", "0.5"], capsys)
    assert code == 1
    assert f"takes no parameter {key!r}" in err
    assert out == ""


def test_inline_profile_not_shadowed_by_a_file(capsys, tmp_path, monkeypatch):
    # a spec whose kind is known is inline, whatever files share its name
    argvs = [["kernel", "--profile", spec, "--n", n, "--t", "0.5", "--c", "4"]
             for spec, n in (("sqrt_poincare", "2"), ("explicit_n:n=3", "3"))]
    clean = tmp_path / "clean"
    clean.mkdir()
    monkeypatch.chdir(clean)
    want = [run_cli(argv, capsys) for argv in argvs]
    assert all(code == 0 for code, _o, _e in want)
    for name in ("sqrt_poincare", "explicit_n:n=3"):
        (tmp_path / name).write_text("not a profile")
    monkeypatch.chdir(tmp_path)
    assert [run_cli(argv, capsys) for argv in argvs] == want
    # a file path and an unknown kind behave as before
    (tmp_path / "prof.json").write_text('{"kind": "sqrt_poincare", "params": {}}')
    assert run_cli(["kernel", "--profile", "prof.json", "--t", "0.5", "--c", "4"],
                   capsys) == want[0]
    code, _o, err = run_cli(["kernel", "--profile", "nosuch:n=3", "--t", "0.5"], capsys)
    assert code == 1 and err == "configuration error: unknown profile kind 'nosuch'\n"


@pytest.mark.parametrize("n", ["102", "200"])
def test_kernel_past_float_range_is_numerical_failure(n, capsys):
    code, out, err = run_cli(["kernel", "--profile", "constant_one", "--n", n, "--t", "0.5",
                              "--c", "4"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"numerical failure: kernel series at n={n}, t=0.5")


def _top_level_alone(argv, capsys):
    """Exit code, stdout and stderr of the top-level parser parsing argv."""
    parser, _commands = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["-h"],
    ["--bogus", "kernel"],
    ["kernel", "-h"],
    ["kernel", "--t", "0.5"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--format", "xml"],
    ["kernel", "--profile", "constant_one", "--t", "0.5", "--bogus"],
    ["kernel", "--profile", "constant_one", "--bogus", "1", "extra"],
    ["poincare", "--c", "0", "--bogus"],
    ["asymptotics", "--v", "1", "--bogus"],
    ["lerch", "--t", "0.5", "--s", "1", "--bogus"],
    ["profile-eval", "--profile", "constant_one", "--t", "0.5", "--bogus"],
    ["verify", "--bogus"],
], ids=["empty", "unknown-subcommand", "help", "option-first", "kernel-help",
        "missing-profile", "format-xml", "kernel-unknown", "kernel-unknown-positionals",
        "poincare-unknown", "asymptotics-unknown", "lerch-unknown", "profile-eval-unknown",
        "verify-unknown"])
def test_argv_errors_as_the_top_level_parser_reports_them(argv, capsys):
    # main hands a subcommand's argv to that subcommand's parser alone; what it
    # prints and its exit code are those of the top-level parser's two passes
    want = _top_level_alone(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == want
    assert want[0] in (0, 2)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the installed kepler-balance script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["kepler-balance", "kernel", "--profile", "constant_one",
                                      "--t", "0.5", "--c", "4"])
    code, out, err = run_cli(None, capsys)
    assert code == 0 and err == ""
    assert abs(float(out.splitlines()[1].split(",")[1]) - 20.0) <= 1e-12
    monkeypatch.setattr(sys, "argv", ["kepler-balance", "kernel", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
