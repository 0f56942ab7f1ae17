"""Seeded workloads: each one is a fixed list of `magnitude` CLI calls.

A workload joins two families of calls (FAMILIES), each aimed at one
layer: engine-sweep (dense solves) with validate-input (the triangle
scan), and diversity-growth (Frank-Wolfe) with pixel-exact (rational
pixel geometry). Two families to a workload make each run long enough
to average out the drift of a shared machine.

`build(workload, seed, out_dir, tiny)` writes the input files a workload
needs (CSV matrices, a pixel file) into out_dir and returns its calls. A
call is a plain dict, so the set-up process can hand it to the driver as
JSON:

    {"argv": [...], "stdin": path or None, "check": kind, "ref": {...},
     "family": name}

`argv` follows `magnitude`; `check` and `ref` name the independent
reference the output is compared with (see checks.py). Every generated
number comes from `seed`, through one random stream per family; sizes
are fixed so that the cost of a call does not depend on the seed.

Run as a script it is the benchmark's set-up step: a fresh interpreter
imports magnitude.cli (timed), builds the inputs and prints one JSON line
with the calls and the import time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# set-up times the CLI's import in a fresh interpreter, so it comes first
_t0 = time.perf_counter()
import magnitude.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402


def _seeds(rng, k):
    return [int(x) for x in rng.integers(1, 2**31 - 1, size=k)]


def _call(argv, check, stdin=None, **ref):
    return {"argv": [str(a) for a in argv], "stdin": stdin,
            "check": check, "ref": ref}


def _engine_sweep(rng, out_dir, tiny):
    big, mid, small = (60, 50, 40) if tiny else (1600, 1000, 800)
    b = _seeds(rng, 6)
    h = float(rng.uniform(0.01, 0.02))
    grid_n = 40 if tiny else 600
    pts = sorted(float(x) for x in rng.choice(
        20_000, size=30 if tiny else 200, replace=False) / 2000.0)
    few = sorted(float(x) for x in rng.choice(
        2000, size=12 if tiny else 60, replace=False) / 200.0)
    t_mag, t_chk = float(rng.uniform(2.0, 4.0)), float(rng.uniform(1.5, 3.0))
    k_lo = float(rng.uniform(0.30, 0.32))
    ball = lambda n: f"3,1,{n}"
    return [
        _call(["magfn", "--ball", ball(small), "--seed", b[0], "--tmin", 1,
               "--tmax", 6, "--steps", 8], "ball_sweep", dim=3, R=1.0),
        _call(["magfn", "--ball", ball(mid), "--seed", b[1], "--tmin", 1,
               "--tmax", 10, "--steps", 8, "--log"], "ball_sweep", dim=3, R=1.0),
        _call(["check", "--ball", ball(big), "--seed", b[2], "--t", t_chk],
              "ball_check"),
        _call(["approx", "--ball", "3,1", "--ball-counts",
               f"{small // 4},{small // 2},{small}", "--seed", b[3], "--t",
               t_mag], "ball_approx", dim=3, R=1.0),
        _call(["magfn", "--grid", grid_n, "--spacing", repr(h), "--tmin", 1,
               "--tmax", 20, "--steps", 8], "line_sweep",
              points=[i * h for i in range(grid_n)]),
        _call(["mag", "--points-1d", ",".join(map(repr, pts)), "--t", 1.5],
              "line_mag", points=pts),
        _call(["weights", "--points-1d", ",".join(map(repr, few)), "--t", 0.7],
              "line_weights", points=few),
        _call(["magfn", "--points-1d", ",".join(map(repr, few)), "--tmin", 0.5,
               "--tmax", 5, "--steps", 8, "--log"], "line_sweep", points=few),
        _call(["mag", "--ball", ball(small // 2), "--seed", b[4], "--t", t_mag],
              "ball_mag", dim=3, R=1.0),
        _call(["check", "--ball", ball(small // 2), "--seed", b[5], "--t", t_chk],
              "ball_check"),
        # K_{3,2} is not of negative type: its magnitude has a pole at
        # t = log(2)/2 and is negative just past it
        _call(["magfn", "--graph", "k32", "--tmin", repr(k_lo), "--tmax",
               repr(k_lo + 0.08), "--steps", 9], "k32_sweep"),
    ]


def _ball_points(rng, count):
    pts = []
    while len(pts) < count:
        c = rng.uniform(-1.0, 1.0, size=(1024, 3))
        pts.extend(c[(c * c).sum(axis=1) <= 1.0])
    return np.asarray(pts[:count])


def _distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _plant_violation(rng, d, late):
    """Raise one distance so that exactly one triple violates the triangle
    inequality, then relabel so its middle point sits at index `late`.

    For the chosen pair (i, j) the new d(i,j) lies halfway between the two
    smallest d(i,k) + d(k,j); only the smallest k violates. Raising d(i,j)
    cannot break a triangle with (i,j) as a short side.
    """
    n = d.shape[0]
    while True:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        via = d[i] + d[:, j]
        via[[i, j]] = np.inf
        order = np.argsort(via)
        k, s1, s2 = int(order[0]), via[order[0]], via[order[1]]
        if s2 - s1 > 1e-3:
            break
    d = d.copy()
    d[i, j] = d[j, i] = (s1 + s2) / 2.0
    rest = [x for x in rng.permutation(n).tolist() if x != k]
    perm = rest[:late] + [k] + rest[late:]  # new index -> old index
    return d[np.ix_(perm, perm)], late


def _matrix_file(out_dir, name, d):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in d.tolist())
    return path


def _validate_input(rng, out_dir, tiny):
    tiny_n, small, mid, big = (10, 20, 25, 30) if tiny else (150, 300, 450, 500)
    ts = [float(x) for x in rng.uniform(1.0, 3.0, size=5)]
    valid = {n: _matrix_file(out_dir, f"ball{n}.csv", _distances(_ball_points(rng, n)))
             for n in (tiny_n, small, mid, big, tiny_n + 50)}
    # violations planted late in the k-major scan order, so the scan
    # exits early but still does most of its work
    planted = []
    for n, frac in ((mid, 0.85), (small + 50, 0.7), (tiny_n + 50, 0.9)):
        d, k = _plant_violation(rng, _distances(_ball_points(rng, n)), int(frac * n))
        planted.append({"matrix": _matrix_file(out_dir, f"planted{n}.csv", d), "k": k})
    asym = []
    for n in (small, tiny_n):
        d = _distances(_ball_points(rng, n))
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[i, j] += 1e-3
        asym.append(_matrix_file(out_dir, f"asym{n}.csv", d))
    ball = dict(dim=3, R=1.0)
    return [
        _call(["mag", "--matrix", valid[small], "--t", ts[0]], "ball_mag",
              matrix=valid[small], **ball),
        _call(["check", "--stdin-matrix", "--t", ts[1]], "ball_check",
              stdin=valid[mid]),
        _call(["mag", "--matrix", valid[big], "--t", ts[2]], "ball_mag",
              matrix=valid[big], **ball),
        _call(["mag", "--matrix", valid[tiny_n], "--t", ts[3]], "ball_mag",
              matrix=valid[tiny_n], **ball),
        _call(["check", "--stdin-matrix", "--t", ts[4]], "ball_check",
              stdin=valid[tiny_n + 50]),
        _call(["mag", "--matrix", valid[tiny_n + 50], "--t", ts[4]], "ball_mag",
              matrix=valid[tiny_n + 50], **ball),
        _call(["mag", "--matrix", planted[0]["matrix"], "--t", 1.0], "planted",
              **planted[0]),
        _call(["check", "--stdin-matrix", "--t", 1.0], "planted",
              stdin=planted[1]["matrix"], **planted[1]),
        _call(["mag", "--matrix", planted[2]["matrix"], "--t", 1.0], "planted",
              **planted[2]),
        _call(["mag", "--matrix", asym[0], "--t", 1.0], "rejected",
              error="NotSymmetric"),
        _call(["check", "--stdin-matrix", "--t", 1.0], "rejected",
              stdin=asym[1], error="NotSymmetric"),
    ]


def _diversity_growth(rng, out_dir, tiny):
    length = float(rng.uniform(1.0, 2.0))
    b = _seeds(rng, 4)
    t_k32 = [float(x) for x in rng.uniform(0.3, 2.0, size=2)]
    line = sorted(float(x) for x in rng.choice(
        4000, size=40, replace=False) / 1000.0)
    # the slope bands hold only once the window resolves the set, so the
    # tiny size keeps depth 6 and a 401-point grid
    depth = 6 if tiny else 7
    grid_n, grid_win = (401, (50.0, 400.0)) if tiny else (1001, (50.0, 1000.0))
    win = lambda lo, hi: ["--tmin", repr(lo / length), "--tmax", repr(hi / length)]
    return [
        _call(["dim", "--cantor-depth", depth, "--length", repr(length),
               *win(10.0, 1000.0)], "slope", lo=0.58, hi=0.68),
        _call(["dim", "--grid", grid_n, "--spacing", repr(length / (grid_n - 1)),
               *win(*grid_win)], "slope", lo=0.95, hi=1.05),
        _call(["diversity", "--graph", "k32", "--t", t_k32[0]], "fw_vs_exact",
              space={"kind": "graph_shortest_path", "params": {"name": "k32"}}),
        _call(["diversity", "--graph", "c5", "--t", t_k32[1]], "fw_vs_exact",
              space={"kind": "graph_shortest_path", "params": {"name": "c5"}}),
        _call(["diversity", "--graph", "k32", "--exact", "--t", t_k32[1]],
              "exact_vs_fw",
              space={"kind": "graph_shortest_path", "params": {"name": "k32"}}),
        _call(["diversity", "--ball", "3,1,10", "--seed", b[0], "--t", 1.0],
              "fw_vs_exact", space=_ball_spec(3, 10, b[0])),
        _call(["diversity", "--ball", "3,1,12", "--seed", b[3], "--t", 0.5],
              "fw_vs_exact", space=_ball_spec(3, 12, b[3])),
        _call(["diversity", "--ball", "2,1,12", "--seed", b[1], "--t", 2.0,
               "--exact"], "exact_vs_fw", space=_ball_spec(2, 12, b[1])),
        _call(["diversity", "--ball", f"3,1,{30 if tiny else 300}", "--seed",
               b[2], "--t", 4.0], "fw_bounded",
              space=_ball_spec(3, 30 if tiny else 300, b[2])),
        _call(["diversity", "--points-1d", ",".join(map(repr, line)),
               "--t", 1.0], "div_line", points=line),
        _call(["diversity", "--points-1d", ",".join(map(repr, line[::4])),
               "--t", 2.0, "--exact"], "div_line", points=line[::4]),
    ]


def _ball_spec(dim, count, seed):
    return {"kind": "ball_sample", "seed": seed,
            "params": {"n": dim, "radius": 1.0, "count": count, "p": 2}}


def _art(rows):
    return "\\n".join(rows)


def _young(rng, width, height):
    """Rows of a staircase (Young diagram): row lengths never increase."""
    lens = sorted(int(x) for x in rng.integers(1, width + 1, size=height - 1))
    lens = [width] + lens[::-1]
    return ["#" * w + "." * (width - w) for w in lens]


def _flip(rng, rows):
    if rng.integers(2):
        rows = [r[::-1] for r in rows]
    if rng.integers(2):
        rows = rows[::-1]
    return rows


def _pixel_exact(rng, out_dir, tiny):
    side = 6 if tiny else 20
    a = int(rng.integers(side - 1, side + 2))
    big = ["#" * a] * (2 * side - a)
    w, h = (int(x) for x in rng.integers(5, 9, size=2))
    stair = _flip(rng, _young(rng, w, h))
    stair2 = _flip(rng, _young(rng, h + 2, w))
    lw, lh = (int(x) for x in rng.integers(4, 8, size=2))
    cw, ch = int(rng.integers(1, lw)), int(rng.integers(1, lh))
    ell = _flip(rng, ["#" * (lw - cw) + "." * cw] * ch + ["#" * lw] * (lh - ch))
    rect = ["#" * int(rng.integers(3, 9))] * int(rng.integers(3, 9))
    uw, uh = int(rng.integers(4, 7)), int(rng.integers(3, 6))
    u = _flip(rng, ["#" + "." * (uw - 2) + "#"] * (uh - 1) + ["#" * uw])
    box = [int(x) for x in rng.permutation([1, 1, 2])]
    box_k = 2 if tiny else 4
    tri_k, tet_k = (8, 3) if tiny else (40, 8)
    off = [int(x) for x in rng.integers(-3, 4, size=3)]
    tri = [(off[0], off[1]), (off[0] + 1, off[1]), (off[0], off[1] + 1)]
    tet = [(off[0], off[1], off[2]), (off[0] + 1, off[1], off[2]),
           (off[0], off[1] + 1, off[2]), (off[0], off[1], off[2] + 1)]
    tri = [tri[i] for i in rng.permutation(3)]
    tet = [tet[i] for i in rng.permutation(4)]
    verts = lambda vs: ";".join(",".join(str(c) for c in v) for v in vs)
    bw, bh, bd = (int(x) for x in rng.permutation([2, 3, 4]))
    box_file = os.path.join(out_dir, "box3d.pix")
    with open(box_file, "w", encoding="utf-8") as fh:
        fh.write("dim 3 scale 1/1\n")
        for x in range(bw):
            for y in range(bh):
                for z in range(bd):
                    fh.write(f"{x} {y} {z}\n")
    convex = lambda rows, mode: _call(["pixel", "--ascii", _art(rows), mode],
                                      "pixel_convex", rows=rows)
    return [
        convex(big, "--intrinsic"),
        convex(rect, "--weights"),
        convex(stair, "--intrinsic"),
        convex(stair2, "--weights"),
        convex(ell, "--intrinsic"),
        convex(["##", "#."], "--weights"),
        _call(["pixel", "--ascii", _art(u), "--convexity"], "pixel_witness",
              rows=u),
        _call(["pixel", "--pixel-file", box_file, "--intrinsic"],
              "pixel_box", lengths=[bw, bh, bd]),
        _call(["pixel", "--body-box", ",".join(map(str, box)), "--scale",
               f"1/{box_k}", "--bounds"], "box_bounds", lengths=box, k=box_k),
        # "=" keeps argparse from reading a leading minus as a flag
        _call(["pixel", f"--body-simplex={verts(tri)}", "--scale",
               f"1/{tri_k}", "--bounds"], "simplex_bounds", dim=2, k=tri_k),
        _call(["pixel", f"--body-simplex={verts(tet)}", "--scale",
               f"1/{tet_k}", "--bounds"], "simplex_bounds", dim=3, k=tet_k),
    ]


FAMILIES = {
    "engine-sweep": _engine_sweep,
    "validate-input": _validate_input,
    "diversity-growth": _diversity_growth,
    "pixel-exact": _pixel_exact,
}

WORKLOADS = {
    "engine-validate": ("engine-sweep", "validate-input"),
    "diversity-pixel": ("diversity-growth", "pixel-exact"),
}


def build(workload, seed, out_dir, tiny=False):
    os.makedirs(out_dir, exist_ok=True)
    calls = []
    for family in WORKLOADS[workload]:
        rng = np.random.default_rng([seed, list(FAMILIES).index(family)])
        for call in FAMILIES[family](rng, out_dir, tiny):
            call["family"] = family
            calls.append(call)
    return calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    calls = build(args.workload, args.seed, args.out, args.tiny)
    print(json.dumps({"import_s": IMPORT_S, "calls": calls,
                      "module": os.path.abspath(magnitude.cli.__file__)}))


if __name__ == "__main__":
    sys.exit(main())
