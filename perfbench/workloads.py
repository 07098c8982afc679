"""Seeded request lists for the four benchmark workloads.

Each workload turns ``random.Random(seed)`` into a fixed list of CLI argv
lists.  The program sees only those argv lists; everything the checker needs
to compute a reference travels alongside in ``Request.ref``.

Inputs are drawn by systematic sampling: ``count`` evenly spaced points of a
range, shifted together by one uniform random offset, in shuffled order.
Every value is still uniform on the range, but the sum of request costs
varies far less between seeds than with independent draws, because the cost
of these computations jumps or grows steeply across the range (Poincare
solve time jumps with c, Lerch boundary sums grow without bound as
L -> 2 pi, kernel sums grow like 1/(1 - t)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Request:
    argv: list
    kind: str  # "kernel", "poincare", "lerch" or "asymptotics"
    ref: dict = field(default_factory=dict)
    density: str | None = None  # identity of the kernel density, for reuse accounting


def _spread(rng, lo, hi, count):
    """``count`` points of [lo, hi] spaced (hi - lo)/count apart from a random offset, shuffled."""
    width, offset = (hi - lo) / max(count, 1), rng.random()
    values = [lo + (i + offset) * width for i in range(count)]
    rng.shuffle(values)
    return values


def _mirrored(rng, lo, hi, count):
    """``count`` (even) points of [lo, hi] in increasing order, two per stratum.

    [lo, hi] is cut into count/2 strata of width 2w, w = (hi - lo)/count; stratum
    j holds lo + (2j + u) w and lo + (2j + 2 - u) w for one uniform random u.
    Each point is still uniform on the range, and for a cost that varies
    smoothly across a stratum the two points' costs sum to nearly the same
    total whatever u is.
    """
    width, offset = (hi - lo) / count, rng.random()
    return [lo + (2 * j + x) * width for j in range(count // 2) for x in (offset, 2 - offset)]


def _num(x, digits=12):
    """Argv text for a float; the reference parses the same text back."""
    return format(x, f".{digits}g")


# Upper end of the non-square v draws.  For v in (7.6, 9) the density phi_v
# behaves like t^p0 with p0 = -(1 + sqrt(v))/4 close to -1, and Density's node
# floor (its margin is clamped at 0.064) drops mass near t = 0: F then misses
# the closed form by up to 4e-5 relative, far outside the 1e-9 check.  That
# band is a known defect of the program, left out of the workloads so that
# every request can pass its reference; see README.md, "Known defects".
V_MAX = 7.5


def _non_square(rng, lo, hi):
    while True:
        v = float(_num(rng.uniform(lo, hi), 6))
        if math.isqrt(int(v)) ** 2 != v:
            return v


# ---------------------------------------------------------------------------
# kernel-interior: a fresh density on every request
# ---------------------------------------------------------------------------

INTERIOR_REQUESTS = 600


def kernel_interior(rng):
    """Single-point ``kernel --t`` requests, t in [0.05, 0.9], --c 4.

    Kinds rotate through phi_v_candidate (non-square v), sqrt_poincare,
    constant_one and explicit_n (n = 2..6 with matching --n); every request
    carries a new v or a new scale, so no density repeats in the run.
    """
    ts = _spread(rng, 0.05, 0.9, INTERIOR_REQUESTS)
    seen = set()
    out = []
    for i, t in enumerate(ts):
        kind = ("phi_v_candidate", "sqrt_poincare", "constant_one", "explicit_n")[i % 4]
        n = 2
        while True:
            if kind == "phi_v_candidate":
                v = _non_square(rng, 0.2, V_MAX)
                spec, params = f"phi_v_candidate:v={_num(v, 6)}", {"v": v, "scale": 1.0}
            else:
                scale = float(_num(rng.uniform(0.5, 2.0), 6))
                if kind == "explicit_n":
                    n = rng.randint(2, 6)
                    spec = f"explicit_n:n={n},scale={_num(scale, 6)}"
                    params = {"n": n, "scale": scale}
                else:
                    spec, params = f"{kind}:scale={_num(scale, 6)}", {"scale": scale}
            if spec not in seen:
                break
        seen.add(spec)
        t_txt = _num(t)
        out.append(Request(
            argv=["kernel", "--profile", spec, "--n", str(n), "--t", t_txt, "--c", "4"],
            kind="kernel",
            ref={"profile": kind, "n": n, "c": 4.0, "ts": [float(t_txt)], **params},
            density=spec,
        ))
    return out


# ---------------------------------------------------------------------------
# kernel-boundary: grids toward t = 1 on a few reused densities
# ---------------------------------------------------------------------------

# (profile spec, requests per run); v = 1 carries most of the reuse.
BOUNDARY_PLAN = (
    ("phi_v_candidate:v=1", 5),
    ("phi_v_candidate:v=4", 2),
    ("phi_v_candidate:v=9", 1),
    ("phi_v_candidate:v=<non-square>", 2),
    ("sqrt_poincare", 1),
)
BOUNDARY_AUTO_C = 3  # requests per run that pass --c auto, all on phi_v densities
B_MAX = 0.999


def kernel_boundary(rng):
    """``kernel --grid a:b:m --format json`` requests ending at b in [0.99, 0.999].

    One grid per density ends at b = 0.999.  The moment cost of a density is
    set by its largest b, and grows in steps (moments are filled in blocks
    of powers of two), so leaving that b to chance would swing the run time
    by 2x between seeds.  The other ends are spread evenly in log(1 - b)
    over [1e-3, 1e-2]; a in [0.3, 0.7], m in 4..8.
    """
    v_odd = _non_square(rng, 1.5, V_MAX)
    jobs = []
    for spec, count in BOUNDARY_PLAN:
        spec = spec.replace("<non-square>", _num(v_odd, 6))
        gaps = _spread(rng, math.log(1e-3), math.log(1e-2), count - 1)
        jobs.append((spec, B_MAX, False))
        jobs += [(spec, 1.0 - math.exp(g), spec.startswith("phi_v")) for g in gaps]
    auto = set(rng.sample([i for i, job in enumerate(jobs) if job[2]], BOUNDARY_AUTO_C))
    jobs = [(spec, b, i in auto) for i, (spec, b, _) in enumerate(jobs)]
    rng.shuffle(jobs)
    # The program rebuilds W[sqrt_poincare] on every request.  Run that one
    # last, when the cached phi_v moment tables are full, so its transient
    # table always adds to peak_rss_mb instead of only on some shuffles.
    jobs.sort(key=lambda job: not job[0].startswith("phi_v"))
    out = []
    for spec, b, auto_c in jobs:
        a, b, m = _num(rng.uniform(0.3, 0.7), 6), _num(b, 6), rng.randint(4, 8)
        c = "auto" if auto_c else "4"
        kind, _, rest = spec.partition(":")
        params = {"v": float(rest.split("=")[1])} if rest else {}
        ref = {"profile": kind, "n": 2, "scale": 1.0, "c": None if auto_c else 4.0,
               "grid": [float(a), float(b), m], **params}
        out.append(Request(
            argv=["kernel", "--profile", spec, "--grid", f"{a}:{b}:{m}",
                  "--format", "json", "--c", c],
            kind="kernel", ref=ref, density=spec,
        ))
    return out


# ---------------------------------------------------------------------------
# poincare-sweep: cusp and complete regimes
# ---------------------------------------------------------------------------

POINCARE_PER_TMIN = 8


def poincare_sweep(rng):
    """``poincare --c C --tmin T`` for T in {1e-3, 1e-4}, plus one c = 0 request
    that anchors the exact-solution check.

    The C values of both T form one evenly spaced grid over [-0.3, 2], taken
    alternately by the two T: solve time jumps at the same c for both, so
    this halves the spacing at which the grid meets each jump.  A solve
    costs 4 to 8 s for c in [1.0, 1.5) and under 2.5 s elsewhere, and the
    cost rises and then drops in steps across c, so how many grid points
    land in each step moves the pass time.  With 6 values per T the pass
    took 24 to 35 s across five seeds; with 8 it took 42 to 47 s.
    """
    tmins = ("1e-3", "1e-4") if rng.random() < 0.5 else ("1e-4", "1e-3")
    cs = sorted(_spread(rng, -0.3, 2.0, 2 * POINCARE_PER_TMIN))
    # Fixed-point text: argparse reads "-1e-05" as an option, not a value.
    jobs = [("0", "1e-3")] + [(format(c, ".6f"), tmins[i % 2]) for i, c in enumerate(cs)]
    rng.shuffle(jobs)
    return [
        Request(argv=["poincare", "--c", c, "--tmin", tmin], kind="poincare",
                ref={"c": float(c), "tmin": float(tmin)})
        for c, tmin in jobs
    ]


# ---------------------------------------------------------------------------
# lerch-asymptotics: Lerch transcendent paths and exact A_m chains
# ---------------------------------------------------------------------------

LERCH_REQUESTS = 72
ASYMPTOTICS_REQUESTS = 12
LERCH_S = ("1", "2", "0.5", "-1.5")
SQUARE_V = (0, 1, 4, 9, 16, 25)
# Upper end of the non-square V draws.  From V ~ 17 at order 20, float
# roundoff trips the absolute 1e-12 product check in reciprocal_moments,
# which raises a bare AssertionError out of the CLI: a known defect of the
# program, left out of the workloads; see README.md, "Known defects".
ASYMPTOTICS_V_MAX = 12.0


def lerch_asymptotics(rng):
    """``lerch --t e^-L --s S --n-deriv N`` with L spread over (0.05, 6.2),
    mixed with ``asymptotics --v V --order K`` (K in 10..20), half of them
    with square V (the exact path).

    The L values come in mirrored pairs (``_mirrored``), and both values of a
    pair get the same (S, N).  The pairs take the 12 (S, N) combinations in
    turn, the turn shifted by one for each run of 12 pairs, so every
    combination is used equally often across the range.  The boundary sum
    costs more the closer L is to 2 pi, steeply so near 6.2: with independent
    draws or one shared offset, where the last few L values fell swung the
    run time by 10% or more between seeds.
    """
    pairs = [(s, n) for s in LERCH_S for n in range(3)]
    out = []
    for i, L in enumerate(_mirrored(rng, 0.05, 6.2, LERCH_REQUESTS)):
        j = i // 2
        s, n = pairs[(j + j // len(pairs)) % len(pairs)]
        t = _num(math.exp(-L), 17)
        out.append(Request(argv=["lerch", "--t", t, "--s", s, "--n-deriv", str(n)],
                           kind="lerch", ref={"t": float(t), "s": float(s), "n": n}))
    for i in range(ASYMPTOTICS_REQUESTS):
        exact = i % 2 == 0
        v = rng.choice(SQUARE_V) if exact else _non_square(rng, 0.5, ASYMPTOTICS_V_MAX)
        order = rng.randint(10, 20)
        out.append(Request(argv=["asymptotics", "--v", _num(v, 6), "--order", str(order)],
                           kind="asymptotics", ref={"v": float(v), "order": order, "exact": exact}))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "kernel-interior": kernel_interior,
    "kernel-boundary": kernel_boundary,
    "poincare-sweep": poincare_sweep,
    "lerch-asymptotics": lerch_asymptotics,
}


def build(name, seed):
    return WORKLOADS[name](random.Random(seed))


def reuse_share(requests):
    """Share of kernel requests whose density already appeared earlier in the list."""
    seen, reused, total = set(), 0, 0
    for req in requests:
        if req.density is None:
            continue
        total += 1
        reused += req.density in seen
        seen.add(req.density)
    return reused / total if total else None
