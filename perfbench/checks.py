"""Independent references for every benchmarked CLI call.

`check(call, rc, stdout, stderr, bad=None)` returns a list of problems,
empty when the output is right. Output that is not strict RFC 8259 JSON
(NaN and Infinity included), that is empty or not an object, or an
unexpected exit code is a problem too; none of them raises.

Every comparison with a reference asks `bad(label)` first, and uses a
deliberately wrong reference when it answers True. References(label)
answers True for that one label and records every label asked, so the
self-test can corrupt each comparison a call makes on its own and show
that each one can fail (LABELS lists them all).

References are closed forms or separate computations, never the code path
the CLI ran: line closed forms, Euclidean ball magnitudes as upper bounds,
numpy solves of the explicit matrices, support enumeration against
Frank-Wolfe and back, the K_{3,2} closed form, exact rational formulas for
l1-convex pixel sets, and cell counts of pixelated simplices.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from magnitude import diversity, euclid, lines
from magnitude.spaces import SpaceSpec, generate_space

LINE_RTOL = 1e-10
MATRIX_RTOL = 1e-9
DIVERSITY_ATOL = 1e-7
DIVERSITY_CEILING_ATOL = 1e-8
# The K_{3,2} solve loses accuracy like 1/|det| near its pole.
K32_RTOL = 1e-9


def _strict(text):
    def bad(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=bad)


# one label per comparison with a reference
LABELS = frozenset({
    "exit_code",
    "ball.status", "ball.band", "ball.numpy_solve", "approx.counts",
    "approx.nested", "check.verdict", "check.pd",
    "line.magnitude", "line.weighting", "k32.closed_form", "k32.eigvalsh",
    "planted.error", "planted.violates", "planted.k", "rejected.error",
    "diversity.reference", "diversity.ceiling", "diversity.band",
    "diversity.line", "dim.band",
    "pixel.magnitude", "pixel.convex_flag", "pixel.verdict",
    "pixel.witness_cells", "pixel.staircase", "pixel.box",
    "bounds.box_magnitude", "bounds.box_cells", "bounds.box_alpha",
    "bounds.simplex_cells", "bounds.order", "bounds.simplex_alpha",
})


class References:
    """Which reference to corrupt (None: none), and which ones were asked."""

    def __init__(self, corrupt=None):
        self.corrupt = corrupt
        self.seen = set()

    def __call__(self, label):
        if label not in LABELS:
            raise ValueError(f"unknown reference label {label!r}")
        self.seen.add(label)
        return label == self.corrupt


def check(call, rc, stdout, stderr, bad=None):
    bad = bad or References()
    kind = call["check"]
    expected_rc = 2 if kind in ("planted", "rejected") else 0
    if bad("exit_code"):
        expected_rc += 1
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}: {stderr.strip()[-200:]}"]
    try:
        text = stdout if stdout.strip() else stderr.strip().splitlines()[-1]
        report = _strict(text)
        if not isinstance(report, dict):
            raise TypeError(f"a JSON {type(report).__name__}, not an object")
    except (IndexError, ValueError, TypeError) as exc:
        return [f"output is not a strict JSON object: {type(exc).__name__}: {exc}"]
    results = report.get("results", report)
    try:
        return CHECKS[kind](results, call["ref"], bad)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed output for {kind}: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# dense engine on samples of the Euclidean ball and on line subsets


def _in_ball_band(m, t, ref, bad, status):
    probs = []
    want = "Undefined" if bad("ball.status") else "UniquePD"
    if status != want:
        probs.append(f"t={t}: status {status}, expected {want}")
    # a finite subset of a positive definite space has magnitude at most
    # that of the whole ball
    ceiling = 1.0 if bad("ball.band") else euclid.ball_magnitude(ref["dim"], t * ref["R"])
    if not 1.0 - 1e-9 <= m <= ceiling * (1 + 1e-9):
        probs.append(f"t={t}: magnitude {m} outside [1, ball magnitude {ceiling}]")
    return probs


@lru_cache(maxsize=8)
def _matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _ball_mag(res, ref, bad):
    t, m = res["t"], res["magnitude"]
    probs = _in_ball_band(m, t, ref, bad, res["status"])
    if "matrix" in ref:
        z = np.exp(-t * _matrix(ref["matrix"]))
        want = float(np.linalg.solve(z, np.ones(len(z))).sum())
        if bad("ball.numpy_solve"):
            want *= 1 + 1e-6
        if abs(m - want) > MATRIX_RTOL * abs(want):
            probs.append(f"magnitude {m} != numpy solve {want}")
    return probs


def _ball_sweep(res, ref, bad):
    return [p for s in res["samples"]
            for p in _in_ball_band(s["magnitude"], s["t"], ref, bad, s["status"])]


def _ball_approx(res, ref, bad):
    samples = res["samples"]
    probs = [p for s in samples
             for p in _in_ball_band(s["magnitude"], res["t"], ref, bad, s["status"])]
    extra = 1 if bad("approx.counts") else 0
    if any(s["n_points"] != s["level"] + extra for s in samples):
        probs.append("n_points differs from the requested count")
    mags = [s["magnitude"] for s in samples]
    if bad("approx.nested"):
        mags.reverse()
    if any(b < a - 1e-9 for a, b in zip(mags, mags[1:])):
        probs.append("nested samples lost magnitude")
    return probs


def _ball_check(res, ref, bad):
    want = "CertifiedNot" if bad("check.verdict") else "CertifiedNegativeType"
    probs = []
    if res["negative_type_verdict"] != want:
        probs.append(f"verdict {res['negative_type_verdict']}, expected {want}")
    want_pd = not bad("check.pd")
    if res["is_positive_definite"] is not want_pd:
        probs.append(f"is_positive_definite {res['is_positive_definite']} "
                     "for a Euclidean sample")
    return probs


def _rel_close(got, want, rtol, what):
    if got is None or abs(got - want) > rtol * abs(want):
        return [f"{what}: {got} != closed form {want}"]
    return []


def _line_ref(points, t, bad):
    return lines.line_magnitude(points, t) * (1 + 1e-6 if bad("line.magnitude") else 1)


def _line_sweep(res, ref, bad):
    return [p for s in res["samples"] for p in _rel_close(
        s["magnitude"], _line_ref(ref["points"], s["t"], bad), LINE_RTOL,
        f"t={s['t']}")]


def _line_mag(res, ref, bad):
    return _rel_close(res["magnitude"], _line_ref(ref["points"], res["t"], bad),
                      LINE_RTOL, "magnitude")


def _line_weights(res, ref, bad):
    _, w = lines.line_weighting(ref["points"], res["t"])
    if bad("line.weighting"):
        w = w * (1 + 1e-6)
    got = np.asarray(res["weighting"], dtype=float)
    err = float(np.abs(got - w).max())
    if err > LINE_RTOL * float(np.abs(w).max()):
        return [f"weighting differs from the closed form by {err:.3e}"]
    return []


def _k32_closed_form(t):
    """Magnitude of K_{3,2} by its symmetry: weight a on the three-vertex
    side, b on the two-vertex side, Z w = 1 reduced to a 2x2 system."""
    q = math.exp(-t)
    det = (1 + 2 * q * q) * (1 + q * q) - 6 * q * q
    a = ((1 + q * q) - 2 * q) / det
    b = ((1 + 2 * q * q) - 3 * q) / det
    return 3 * a + 2 * b, det


def _k32_sweep(res, ref, bad):
    d = generate_space(SpaceSpec("graph_shortest_path", {"name": "k32"})).distances
    probs = []
    for s in res["samples"]:
        t = s["t"]
        want, det = _k32_closed_form(t)
        if s["magnitude"] is None:
            # no label: no sampled scale lands on the pole itself
            if abs(det) > 1e-6:
                probs.append(f"t={t}: undefined away from the pole (det {det:.2e})")
            continue
        if bad("k32.closed_form"):
            want *= 1.001
        probs += _rel_close(s["magnitude"], want, K32_RTOL / abs(det), f"t={t}")
        pd = bool(np.linalg.eigvalsh(np.exp(-t * d)).min() > 0)
        if bad("k32.eigvalsh"):
            pd = not pd
        if s["positive_definite"] != pd:
            probs.append(f"t={t}: positive_definite {s['positive_definite']}, "
                         f"eigenvalues say {pd}")
    return probs


# ---------------------------------------------------------------------------
# rejected explicit matrices


_WITNESS = re.compile(r"d\[(\d+),(\d+)\] > d\[\d+,(\d+)\]")


def _planted(res, ref, bad):
    want = "NotSymmetric" if bad("planted.error") else "TriangleViolation"
    if res.get("error") != want:
        return [f"error {res.get('error')}, expected {want}"]
    m = _WITNESS.search(res["detail"])
    if m is None:
        return [f"no witness triple in {res['detail']!r}"]
    i, j, k = (int(x) for x in m.groups())
    d = _matrix(ref["matrix"])
    probs = []
    violates = bool(d[i, j] > d[i, k] + d[k, j])
    if bad("planted.violates"):
        violates = not violates
    if not violates:
        probs.append(f"witness ({i},{j},{k}) does not violate")
    planted = ref["k"] + (1 if bad("planted.k") else 0)
    if k != planted:
        probs.append(f"witness middle point {k}, planted {planted}")
    return probs


def _rejected(res, ref, bad):
    want = "TriangleViolation" if bad("rejected.error") else ref["error"]
    if res.get("error") != want:
        return [f"error {res.get('error')}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# maximum diversity and dimension


def _space(ref):
    spec = ref["space"]
    return generate_space(SpaceSpec(spec["kind"], spec["params"], spec.get("seed")))


def _ceiling(space, t):
    """Magnitude when Z is positive definite (it bounds diversity), else None."""
    z = np.exp(-t * space.distances)
    try:
        np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return None
    return float(np.linalg.solve(z, np.ones(len(z))).sum())


def _diversity_against(res, space, want, bad):
    if res.get("converged") is False:
        return [f"Frank-Wolfe did not converge (gap {res['kkt_gap']})"]
    v, t = res["value"], res["t"]
    if bad("diversity.reference"):
        want += 1e-3
    probs = []
    if abs(v - want) > DIVERSITY_ATOL:
        probs.append(f"diversity {v} != reference {want}")
    mag = _ceiling(space, t)
    if mag is not None:
        if bad("diversity.ceiling"):
            mag -= 1.0
        if v > mag + DIVERSITY_CEILING_ATOL:
            probs.append(f"diversity {v} exceeds magnitude {mag}")
    return probs


def _fw_vs_exact(res, ref, bad):
    space = _space(ref)
    want = diversity.max_diversity_exact(space, res["t"]).value
    return _diversity_against(res, space, want, bad)


def _exact_vs_fw(res, ref, bad):
    space = _space(ref)
    want = diversity.max_diversity(space, res["t"], 1e-10, 200_000).value
    return _diversity_against(res, space, want, bad)


def _fw_bounded(res, ref, bad):
    if res.get("converged") is False:
        return [f"Frank-Wolfe did not converge (gap {res['kkt_gap']})"]
    mag = 1.0 if bad("diversity.band") else _ceiling(_space(ref), res["t"])
    if not 1.0 <= res["value"] <= mag + DIVERSITY_CEILING_ATOL:
        return [f"diversity {res['value']} outside [1, magnitude {mag}]"]
    return []


def _div_line(res, ref, bad):
    # on the line the weighting is positive, so diversity equals magnitude
    want = lines.line_magnitude(ref["points"], res["t"])
    if bad("diversity.line"):
        want += 1e-3
    if res.get("converged") is False or abs(res["value"] - want) > DIVERSITY_ATOL:
        return [f"diversity {res.get('value')} != line magnitude {want}"]
    return []


def _slope(res, ref, bad):
    lo, hi = (ref["hi"], ref["hi"] + 1) if bad("dim.band") else (ref["lo"], ref["hi"])
    if not lo <= res["slope"] <= hi:
        return [f"slope {res['slope']} outside [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------------------
# exact pixel geometry


def _convex_polyomino_magnitude(rows):
    """An l1-convex union of unit cells in the plane has magnitude
    1 + (width + height)/2 + area/4 at t = 1: its l1 perimeter is that of
    its bounding box."""
    width, height = len(rows[0]), len(rows)
    area = sum(r.count("#") for r in rows)
    return 1 + Fraction(width + height, 2) + Fraction(area, 4)


def _pixel_convex(res, ref, bad):
    want = _convex_polyomino_magnitude(ref["rows"])
    if bad("pixel.magnitude"):
        want += Fraction(1, 4)
    got = Fraction(res["total_mass"] if "total_mass" in res else res["magnitude"])
    probs = [] if got == want else [f"magnitude {got} != {want}"]
    convex = not bad("pixel.convex_flag")
    if res.get("l1_convex", True) is not convex:
        probs.append(f"l1_convex {res.get('l1_convex', True)}, expected {convex}")
    return probs


def _monotone_path(cells, a, b):
    """Dynamic programme over the box between a and b: can b be reached
    from a by unit steps toward b inside cells?"""
    step = [1 if b[i] >= a[i] else -1 for i in range(2)]
    span = [abs(b[i] - a[i]) for i in range(2)]
    ok = [[False] * (span[1] + 1) for _ in range(span[0] + 1)]
    for x in range(span[0] + 1):
        for y in range(span[1] + 1):
            c = (a[0] + step[0] * x, a[1] + step[1] * y)
            if c not in cells:
                continue
            ok[x][y] = (x, y) == (0, 0) or (x > 0 and ok[x - 1][y]) \
                or (y > 0 and ok[x][y - 1])
    return ok[span[0]][span[1]]


def _cells(rows):
    # parse_ascii puts row 0 at the top: cell (x, y) with y counted upward
    h = len(rows)
    return {(x, h - 1 - r) for r, row in enumerate(rows)
            for x, ch in enumerate(row) if ch == "#"}


def _pixel_witness(res, ref, bad):
    if res["l1_convex"] is not bad("pixel.verdict"):
        return [f"l1_convex {res['l1_convex']} for a set that is not"]
    cells = _cells(ref["rows"])
    a, b = (tuple(c) for c in res["witness"])
    if bad("pixel.witness_cells"):
        cells = cells - {a}
    if a not in cells or b not in cells:
        return [f"witness {a}, {b} not in the set"]
    joined = _monotone_path(cells, a, b)
    if bad("pixel.staircase"):
        joined = not joined
    if joined:
        return [f"witness {a}, {b} is joined by a staircase"]
    return []


def _box_magnitude(lengths, t=1.0):
    return math.prod(1 + t * x / 2 for x in lengths)


def _pixel_box(res, ref, bad):
    want = Fraction(math.prod(2 + x for x in ref["lengths"]), 8)
    if bad("pixel.box"):
        want += Fraction(1, 8)
    got = Fraction(res["magnitude"])
    return [] if got == want else [f"box magnitude {got} != {want}"]


def _box_bounds(res, ref, bad):
    want = _box_magnitude(ref["lengths"], res["t"])
    if bad("bounds.box_magnitude"):
        want *= 1.01
    probs = []
    for side in ("lower", "upper"):
        probs += _rel_close(res[side], want, 1e-12, side)
    cells = math.prod(x * ref["k"] for x in ref["lengths"])
    if bad("bounds.box_cells"):
        cells += 1
    if res["pixelation_cells"] != cells:
        probs.append(f"pixelation {res['pixelation_cells']} cells; the box is "
                     f"exactly {cells} cells")
    alpha = "1/2" if bad("bounds.box_alpha") else "1"
    if res["alpha"] != alpha:
        probs.append(f"alpha {res['alpha']}, expected {alpha} for an exact pixelation")
    return probs


def _simplex_bounds(res, ref, bad):
    # cells of side 1/k whose interior meets the unit corner simplex:
    # nonnegative index vectors with sum at most k - 1
    dim, k = ref["dim"], ref["k"]
    cells = math.comb(k - 1 + dim, dim) + (1 if bad("bounds.simplex_cells") else 0)
    probs = []
    if res["pixelation_cells"] != cells:
        probs.append(f"pixelation {res['pixelation_cells']} cells, expected {cells}")
    lo, hi = res["lower"], res["upper"]
    if bad("bounds.order"):
        lo, hi = hi, lo
    if not 1.0 <= lo <= hi:
        probs.append(f"bounds out of order: {lo}, {hi}")
    a_lo, a_hi = (1, 2) if bad("bounds.simplex_alpha") else (0, 1)
    if not a_lo < Fraction(res["alpha"]) <= a_hi:
        probs.append(f"alpha {res['alpha']} outside ({a_lo}, {a_hi}]")
    return probs


CHECKS = {
    "ball_mag": _ball_mag,
    "ball_sweep": _ball_sweep,
    "ball_approx": _ball_approx,
    "ball_check": _ball_check,
    "line_sweep": _line_sweep,
    "line_mag": _line_mag,
    "line_weights": _line_weights,
    "k32_sweep": _k32_sweep,
    "planted": _planted,
    "rejected": _rejected,
    "fw_vs_exact": _fw_vs_exact,
    "exact_vs_fw": _exact_vs_fw,
    "fw_bounded": _fw_bounded,
    "div_line": _div_line,
    "slope": _slope,
    "pixel_convex": _pixel_convex,
    "pixel_witness": _pixel_witness,
    "pixel_box": _pixel_box,
    "box_bounds": _box_bounds,
    "simplex_bounds": _simplex_bounds,
}
