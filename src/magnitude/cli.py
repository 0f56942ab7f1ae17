"""Command-line front end.

Subcommands: mag, magfn, weights, check, diversity, dim, pixel (modes
--intrinsic, --weights, --convexity, --bounds), oracle (closed forms:
line sets, balls, spheres, asymptotics), approx (magnitude along a
refinement family approaching a compact space). Every run prints a
report envelope holding the echoed command, a digest of the parsed
inputs, the results, the package version, and the elapsed time; with
--format json the envelope is one JSON object whose keys are sorted, so
two runs on the same inputs differ only in the timing field. --format
csv prints the results alone as comma-separated rows. Exact rationals
are rendered as strings like "15/4".

Each command takes exactly one source (one mutually exclusive group), and
pixel at most one mode: --bounds for a body, the others for art or a file;
--dim goes with art alone and --scale not with a file, whose header sets
both. Float flags and number lists accept finite values only; count flags
(--steps, --samples, --max-iters) must be at least 1, and a sweep takes
at most SCALE_LIMIT scales. A space source with its --p, --spacing,
--length and --seed, and each level of an approx family, is a SpaceSpec
that specs.KINDS checks as it checks a --spec: a flag its kind does not
take is bad input. --tol, which must be positive, is the
Frank-Wolfe gap target of diversity and dim; the other commands refuse
it, since the dense solve refines to its own rounding floor (see
engine), and diversity --exact, which runs no Frank-Wolfe, refuses it and
--max-iters. Results never hold NaN or Infinity, which are not JSON; a
diagnostic with no finite value, such as the condition estimate of a
singular matrix, is written as null.

Exit codes: 0 success (also --help and --version), 1 output closed by
its reader (a broken pipe; the run ends quietly), 2 bad input (any parse
or validation failure, the package's own input errors and unreadable or
missing files only; a generated space or closed-form value beyond the
double range counts as bad input), 3 undefined magnitude (the mag
command only), 4 internal failure, including a refinement sweep that
should be monotone but is not. Errors print one JSON object
{"error": <type>, "detail": <text>} on stderr and nothing on stdout, a
parse failure as a BadSpec; check instead reports an invalid metric in
its envelope, with exit 2.

Each command imports only the modules it computes with: the package
modules that need numpy (spaces, engine, diversity) are imported inside
the handlers and branches that use them, so pixel and oracle run without
numpy, and only pixel and oracle load fractions. oracle --points prints
the line rung's weights (tridiagonal), the bits weights --points-1d
prints. A space of a line kind (points_1d, lp_grid with a one-entry
shape, cantor_endpoints), named by its flag or by a --spec, runs without
numpy too in mag, weights, magfn, diversity (with --exact as well: the
magnitude, on every point), dim --method diversity_growth and approx
--grid-sizes/--cantor-depths: the line rung (tridiagonal) solves it in
O(n) from the coordinates that the spec layer (specs) gives, and the
scales are those of sweeps, which the numpy routes share. diversity on a
graph of at most supports.SEARCH_LIMIT vertices (EXACT_LIMIT with
--exact), named or a --spec, runs without numpy as well: the support
search takes the rows of its metric from specs.graph_rows. check, dim
--method covering_growth and every other space load numpy. No command
loads scipy, numpy.random or OpenSSL: the dense solves run on numpy
alone (see engine), ball samples draw from the standard library's
random.Random, and digests use CPython's builtin SHA-256, not hashlib's
OpenSSL one.

Two entries: run() is the process entry (python -m magnitude and the
magnitude console script). It flushes the output and ends the process
with os._exit, so a finished call skips interpreter teardown. main(argv)
runs one command in-process and returns its exit code (tests, library
callers).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    BadSpec,
    EuclidError,
    LineError,
    MatrixParseError,
    MetricError,
    NonpositiveScale,
    PixelError,
    ResultOverflow,
    TooLarge,
    WindowTooNarrow,
    finite,
    integral,
    positive_scale,
)

# CPython's own SHA-256: hashlib would map OpenSSL's libcrypto into every
# call for it
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

# the package's own input errors (an unreadable file is a BadSpec); any
# other exception is an internal failure (exit 4)
INPUT_ERRORS = (
    MetricError, BadSpec, MatrixParseError, NonpositiveScale, ResultOverflow,
    PixelError, LineError, EuclidError, TooLarge, WindowTooNarrow,
)

def _rat(x) -> str:
    """An exact rational as "p/q"; only pixel and oracle print one, and
    they have loaded fractions already, so the other commands never do."""
    from fractions import Fraction

    return str(Fraction(x))


def _flag_type(rule, parse=float, *bound):
    """The argparse type that reads a flag with parse and checks it by rule."""
    def flag_type(text: str):
        try:
            return rule(parse(text), "value", *bound)
        except ValueError as exc:  # BadSpec is one, as is float("x")
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


_finite_float = _flag_type(finite)  # every float flag
_positive_float = _flag_type(finite, float, 0)  # --tol
_count = _flag_type(integral, int, 1)  # --max-iters
# most scales of one sweep (magfn --steps, dim --samples), 32 times magfn's
# default: each scale is a solve or a diversity fit, so a sweep's time
# grows with the count, and --steps 1e9 once asked linspace for 7.45 GiB
SCALE_LIMIT = 2**10
_scales = _flag_type(integral, int, 1, SCALE_LIMIT)


def _given(args, *dests):
    """The dest of the flag given from one exclusive group, or None; every
    grouped flag defaults to None (values) or False (switches)."""
    for dest in dests:
        val = getattr(args, dest)
        if val is not None and val is not False:
            return dest
    return None


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _parse_floats(text: str) -> list[float]:
    try:
        return [_finite_float(tok) for tok in text.replace(";", ",").split(",")
                if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise BadSpec(f"cannot parse number list {text!r}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    """A nonempty integer list: a refinement family has at least one level."""
    try:
        out = [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise BadSpec(f"cannot parse integer list {text!r}: {exc}") from None
    if not out:
        raise BadSpec(f"empty integer list {text!r}")
    return out


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise BadSpec(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:  # missing, a directory, no permission
        raise BadSpec(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_grid(text: str) -> list[int]:
    try:
        return [int(s) for s in text.lower().split("x")]
    except ValueError:
        raise BadSpec(f"cannot parse grid shape {text!r}") from None


# space source flag: (the kind it builds, its value as that kind's params)
_SOURCES = {
    "points_1d": ("points_1d", lambda text: {"coordinates": _parse_floats(text)}),
    "graph": ("graph_shortest_path", lambda text: {"name": text}),
    "grid": ("lp_grid", lambda text: {"shape": _parse_grid(text)}),
    "cantor_depth": ("cantor_endpoints", lambda depth: {"depth": depth}),
    "ball": ("ball_sample", lambda text: dict(zip(
        ("n", "radius", "count"), _parse_numbers(text, "--ball", "n,R,count")))),
}


def _space_inputs(args, line: bool = False, graph_limit: int = 0):
    """Build the metric space selected by the input flags; also return a
    plain dict describing the inputs for the digest: a generated space's
    kind and effective parameters, one digest however it was named. With
    line, a space of a line kind (specs.line_coordinates) comes back as
    its coordinates, a list of floats for the line rung; a graph of at
    most graph_limit vertices comes back as its distance rows
    (specs.graph_rows), a tuple of lists of ints for the support search.
    Neither imports numpy."""
    from .specs import SpaceSpec, graph_edges, graph_rows, line_coordinates

    src = _given(args, *_SOURCES, "stdin_matrix", "matrix", "spec")
    flags = {k: getattr(args, k) for k in ("p", "spacing", "length", "seed")
             if getattr(args, k) is not None}
    if src in _SOURCES:
        kind, params = _SOURCES[src]
        seed = flags.pop("seed", None)
        spec = SpaceSpec(kind, {**params(getattr(args, src)), **flags}, seed)
    elif flags:
        raise BadSpec(f"--{src.replace('_', '-')} takes no --{next(iter(flags))}")
    elif src == "spec":
        text = args.spec
        spec = SpaceSpec.from_json(
            text if text.strip().startswith("{") else _read_text(text))
    else:
        from .spaces import load_distance_csv, validate_metric

        text = sys.stdin.read() if src == "stdin_matrix" else _read_text(args.matrix)
        # digested first, so that the encoded copy of the text is gone
        # before the matrix exists; the reader's array is new and nobody
        # else's, so it is validated without a copy
        inputs = {"kind": "explicit_matrix",
                  "sha256": sha256(text.encode()).hexdigest()}
        return validate_metric(load_distance_csv(text), copy=False), inputs
    params = spec.effective()
    inputs = {"kind": spec.kind, "params": params}
    coordinates = line_coordinates(spec.kind, params) if line else None
    if coordinates is not None:
        return coordinates, inputs
    if spec.kind == "graph_shortest_path":
        edges, n = graph_edges(**params)
        if n <= graph_limit:
            return tuple(graph_rows(edges, n)), inputs
    from .spaces import generate_space

    return generate_space(spec), inputs


def _n_points(space) -> int:
    return len(space) if isinstance(space, list) else space.n_points


def _solve(space, t: float):
    """The weighting of a space at scale t: the line rung's for the
    coordinates of a line kind, else the dense solve's."""
    if isinstance(space, list):
        from . import tridiagonal

        return tridiagonal.solve(space, t)
    from . import engine

    return engine.solve_weighting(space, t)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return sha256(blob.encode()).hexdigest()


def _emit(args, command, inputs, results, t0) -> None:
    if args.format == "csv":
        _emit_csv(results)
        return
    report = {
        "command": command,
        "inputs_digest": _digest(inputs),
        "results": results,
        "timing_seconds": round(time.perf_counter() - t0, 6),
        "version": __version__,
    }
    print(json.dumps(report, sort_keys=True, allow_nan=False))


def _emit_csv(results) -> None:
    if isinstance(results, dict) and isinstance(results.get("samples"), list):
        rows = results["samples"]
        keys = list(rows[0].keys())
        print(",".join(keys))
        for r in rows:
            print(",".join("" if r[k] is None else str(r[k]) for k in keys))
        return
    if isinstance(results, dict):
        flat = {}

        def put(prefix, val):
            if isinstance(val, dict):
                for kk, vv in val.items():
                    put(f"{prefix}.{kk}" if prefix else str(kk), vv)
            elif isinstance(val, list):
                flat[prefix] = ";".join(str(x) for x in val)
            else:
                flat[prefix] = val

        put("", results)
        for k, v in flat.items():
            print(f"{k},{'' if v is None else v}")
        return
    print(results)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_mag(args, command, t0) -> int:
    space, inputs = _space_inputs(args, line=True)
    res = _solve(space, args.t)
    results = {
        "t": args.t,
        "magnitude": res.magnitude,
        "status": res.status,
        "condition_estimate": _finite_or_none(res.condition_estimate),
        "residual": res.residual,
        "n_points": _n_points(space),
    }
    _emit(args, command, {"space": inputs, "t": args.t}, results, t0)
    return 0 if res.defined else 3


def _cmd_magfn(args, command, t0) -> int:
    from .sweeps import STATUS_PD, scales

    space, inputs = _space_inputs(args, line=True)
    if not (0 < args.tmin < args.tmax):
        raise BadSpec("need 0 < --tmin < --tmax")
    samples = []
    for t in scales(args.tmin, args.tmax, args.steps, args.log):
        res = _solve(space, t)
        samples.append({"t": t, "magnitude": res.magnitude,
                        "positive_definite": res.status == STATUS_PD,
                        "status": res.status})
    # a sweep reports failed scales inside the data, never via exit code
    results = {"samples": samples, "n_points": _n_points(space)}
    _emit(args, command,
          {"space": inputs, "tmin": args.tmin, "tmax": args.tmax,
           "steps": args.steps, "log": args.log},
          results, t0)
    return 0


def _cmd_weights(args, command, t0) -> int:
    space, inputs = _space_inputs(args, line=True)
    res = _solve(space, args.t)
    w = None if res.weighting is None else [float(x) for x in res.weighting]
    results = {
        "t": args.t,
        "status": res.status,
        "magnitude": res.magnitude,
        "condition_estimate": _finite_or_none(res.condition_estimate),
        "residual": res.residual,
        # Z is symmetric, so the coweighting (row solve) is the weighting
        "weighting": w,
        "coweighting": w,
    }
    _emit(args, command, {"space": inputs, "t": args.t}, results, t0)
    return 0


def _cmd_check(args, command, t0) -> int:
    from . import engine

    try:
        space, inputs = _space_inputs(args)
    except MetricError as exc:
        results = {"valid": False, "error": type(exc).__name__, "detail": str(exc)}
        _emit(args, command, {"error": True}, results, t0)
        return 2
    rep = engine.definiteness_report(space, args.t)
    results = {
        "valid": True, "n_points": space.n_points, "t": args.t,
        **rep._asdict(),
        "cnd_max_eigenvalue": _finite_or_none(rep.cnd_max_eigenvalue),
    }
    _emit(args, command, {"space": inputs, "t": args.t}, results, t0)
    return 0


def _cmd_diversity(args, command, t0) -> int:
    from .supports import EXACT_LIMIT, SEARCH_LIMIT

    unread = _given(args, "tol", "max_iters") if args.exact else None
    if unread:
        raise BadSpec(f"--exact takes no --{unread.replace('_', '-')}")
    space, inputs = _space_inputs(
        args, line=True,
        graph_limit=EXACT_LIMIT if args.exact else SEARCH_LIMIT)
    if isinstance(space, list):
        from . import tridiagonal

        # every weight is positive: the magnitude, on every point
        res = tridiagonal.max_diversity(space, args.t)
    elif isinstance(space, tuple):
        from . import supports

        res = supports.max_diversity(space, args.t)
    else:
        from . import diversity as dv

        if args.exact:
            res = dv.max_diversity_exact(space, args.t)
        else:
            try:
                res = dv.max_diversity(
                    space, args.t, 1e-9 if args.tol is None else args.tol,
                    100_000 if args.max_iters is None else args.max_iters)
            except dv.NonConvergence as exc:
                results = {"t": args.t, "method": "frank_wolfe",
                           "converged": False, "kkt_gap": exc.gap,
                           "iterations": exc.iterations}
                _emit(args, command, {"space": inputs, "t": args.t}, results,
                      t0)
                return 0
    if args.exact:
        results = {
            "t": args.t, "method": res.method,
            "value": res.value, "support": list(res.support),
            "kkt_gap": res.kkt_gap, "supports_checked": res.iterations,
            "certificate": res.certificate,
        }
    else:
        results = {
            "t": args.t, "method": res.method, "converged": True,
            "value": res.value, "support": list(res.support),
            "kkt_gap": res.kkt_gap, "iterations": res.iterations,
            "certificate": res.certificate,
        }
    _emit(args, command, {"space": inputs, "t": args.t, "exact": args.exact},
          results, t0)
    return 0


def _cmd_dim(args, command, t0) -> int:
    space, inputs = _space_inputs(args, line=args.method == "diversity_growth")
    if isinstance(space, list):
        from . import tridiagonal
        from .sweeps import diversity_growth, growth_scales

        ts = growth_scales(args.tmin, args.tmax, args.samples)
        est = diversity_growth(
            ts, [tridiagonal.max_diversity(space, t) for t in ts])
        xs = sorted(space)
        finest = min((b - a for a, b in zip(xs, xs[1:])), default=math.inf)
    else:
        from . import diversity as dv

        est = dv.dimension_estimate(space, args.tmin, args.tmax, args.method,
                                    args.samples, args.tol, args.max_iters)
        finest = space.min_distance
    results = {**est._asdict(), "window": list(est.window),
               "samples": args.samples}
    if args.tmax * finest > 1.0:
        msg = (f"window may overresolve the space: tmax * smallest gap = "
               f"{args.tmax * finest:.3g} > 1")
        results["window_warning"] = msg
    _emit(args, command,
          {"space": inputs, "tmin": args.tmin, "tmax": args.tmax,
           "method": args.method, "samples": args.samples},
          results, t0)
    return 0


def _cmd_pixel(args, command, t0) -> int:
    from . import pixels

    # every mode refuses t <= 0, also those that never evaluate at t
    positive_scale(args.t)
    src = _given(args, "ascii", "pixel_file", "body_box", "body_simplex",
                 "body_vertices")
    is_body = src.startswith("body")
    mode = _given(args, "intrinsic", "weights", "convexity", "bounds") \
        or ("bounds" if is_body else "intrinsic")
    if (mode == "bounds") != is_body:
        raise BadSpec(f"--{mode} needs " + (
            "a --body-* option" if mode == "bounds" else "--ascii or --pixel-file"))
    # a source that fixes the scale or dimension itself refuses the flag
    if src == "pixel_file" and (args.scale, args.dim) != (None, None):
        raise BadSpec("--pixel-file sets dim and scale in its header; "
                      "it takes no --scale or --dim")
    if is_body and args.dim is not None:
        raise BadSpec("a --body-* option takes its dimension from the "
                      "vertices; it takes no --dim")
    scale = "1" if args.scale is None else args.scale
    if is_body:
        raw = getattr(args, src)
        if src == "body_box":
            lengths = tuple(raw.split(","))
            spec = pixels.ConvexBodySpec(len(lengths), "box", lengths=lengths)
        else:
            kind = "simplex_vertices" if src == "body_simplex" else "polytope_vertices"
            verts = tuple(tuple(tok for tok in part.split(","))
                          for part in raw.split(";") if part.strip())
            if not verts:
                raise BadSpec("the body needs at least one vertex")
            spec = pixels.ConvexBodySpec(len(verts[0]), kind, vertices=verts)
        body = pixels.build_body(spec)
        bounds = pixels.body_magnitude_bounds(body, scale, args.t)
        results = {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "alpha": _rat(bounds.alpha),
            "pixelation_cells": bounds.pixelation.n_cells,
            "V": [_rat(v) for v in bounds.steiner.coefficients],
            "t": args.t,
        }
        _emit(args, command,
              {"body": spec.kind,
               "raw": [args.body_box, args.body_simplex, args.body_vertices],
               "scale": scale, "t": args.t}, results, t0)
        return 0

    if src == "ascii":
        p = pixels.parse_ascii(args.ascii.replace("\\n", "\n"), scale,
                               dim=args.dim or 2)
    else:
        p = pixels.parse_pixel_file(_read_text(args.pixel_file))
    inputs = {"dim": p.dim, "scale": _rat(p.scale), "cells": sorted(p.cells)}
    if mode == "weights":
        fm = pixels.weight_measure(p)
        results = {
            "total_mass": _rat(fm.total_mass_exact()),
            "mass_by_dimension": {
                str(k): _rat(v) for k, v in sorted(fm.mass_by_dimension().items())
            },
            "faces": len(fm.coefficients),
            "l1_convex": pixels.is_l1_convex(p),
        }
    elif mode == "convexity":
        ok, pair = pixels.is_l1_convex(p, witness=True)
        results = {
            "l1_convex": ok,
            "witness": None if pair is None else [list(pair[0]), list(pair[1])],
        }
    else:
        sp = pixels.steiner_polynomial(p)
        results = {
            "V": [_rat(v) for v in sp.coefficients],
            "magnitude": _rat(sp.magnitude_exact()),
        }
        if not pixels.is_l1_convex(p):
            results["l1_convex"] = False
            results["note"] = ("set is not l1-convex; magnitude is exact only for "
                               "l1-convex sets and is no bound here")
        if args.t != 1.0:
            results["magnitude_at_t"] = sp.magnitude_at(args.t)
    _emit(args, command, inputs, results, t0)
    return 0


def _parse_numbers(text: str, flag: str, form: str) -> list[float]:
    """The numbers of a flag of a fixed form such as 'n,R'."""
    nums = _parse_floats(text)
    if len(nums) != form.count(",") + 1:
        raise BadSpec(f"{flag} needs '{form}'")
    return nums


def _parse_nr(text: str, flag: str) -> tuple[int, float]:
    n, r = _parse_numbers(text, flag, "n,R")
    return integral(n, "n"), r


def _cmd_oracle(args, command, t0) -> int:
    src = _given(args, "points", "interval", "compact", "cantor", "ball",
                 "sphere", "residual", "conjecture", "leading")
    if args.length is not None and src != "cantor":
        raise BadSpec(f"--{src} takes no --length")
    from . import euclid, lines

    if src == "points":
        pts = _parse_floats(args.points)
        t = positive_scale(args.t)  # a bad scale is named before bad points
        xs = lines.sorted_points(pts)
        res = _solve(xs, t)
        results = {"magnitude": res.magnitude,
                   "weighting": list(res.weighting), "points": xs}
        inputs = {"points": pts, "t": args.t}
    elif src == "interval":
        a, b = _parse_numbers(args.interval, "--interval", "a,b")
        m = lines.interval_magnitude(a, b, args.t)
        results = {"magnitude": m,
                   "measure": lines.interval_weight_measure(a, b, args.t)}
        inputs = {"interval": [a, b], "t": args.t}
    elif src == "compact":
        comps = []
        for part in filter(None, map(str.strip, args.compact.split(";"))):
            nums = _parse_floats(part)
            if len(nums) != 2:
                raise BadSpec(f"expected 'a,b' pairs, got {part!r}")
            comps.append((nums[0], nums[1]))
        results = {"magnitude": lines.compact_magnitude(comps, args.t)}
        inputs = {"compact": comps, "t": args.t}
    elif src == "cantor":
        length = 1.0 if args.length is None else args.length
        results = {"magnitude": lines.cantor_magnitude(args.t, length),
                   "length": length}
        inputs = {"cantor": True, "length": length, "t": args.t}
    elif src == "ball":
        n, r = _parse_nr(args.ball, "--ball")
        results = {"magnitude": euclid.ball_magnitude(n, r), "n": n, "R": r}
        if float(r).is_integer():
            results["magnitude_exact"] = _rat(
                euclid.ball_magnitude_exact(n, int(r)))
        inputs = {"ball": [n, r]}
    elif src == "sphere":
        n, r = _parse_nr(args.sphere, "--sphere")
        results = {
            "magnitude": euclid.sphere_magnitude(n, r),
            "polynomial_part": euclid.sphere_polynomial_part(n, r),
            "residual": euclid.sphere_residual(n, r),
            "n": n, "R": r,
        }
        inputs = {"sphere": [n, r]}
    elif src == "residual":
        n, r = _parse_nr(args.residual, "--residual")
        results = {"residual": euclid.sphere_residual(n, r), "n": n, "R": r}
        inputs = {"residual": [n, r]}
    elif src == "conjecture":
        n, r = _parse_nr(args.conjecture, "--conjecture")
        exact, conj, diff = euclid.conjecture_compare(n, r)
        results = {"exact": exact, "conjectured": conj, "difference": diff,
                   "n": n, "R": r}
        inputs = {"conjecture": [n, r]}
    else:
        n, p = _parse_numbers(args.leading, "--leading", "n,p")
        n, p = integral(n, "n"), integral(p, "p")
        results = {"coefficient": euclid.magnitude_leading_coefficient(n, p),
                   "n": n, "p": p}
        inputs = {"leading": [n, p]}
    _emit(args, command, inputs, results, t0)
    return 0


def _cmd_approx(args, command, t0) -> int:
    from .specs import SpaceSpec, line_coordinates
    from .sweeps import refine

    src = _given(args, "grid_sizes", "cantor_depths", "ball_counts")
    levels = _parse_ints(getattr(args, src))
    # specs.KINDS refuses a flag that the family's kind does not take
    flags = {k: getattr(args, k) for k in ("p", "length")
             if getattr(args, k) is not None}
    if args.ball is not None:
        flags["n"], flags["radius"] = _parse_numbers(args.ball, "--ball", "n,R")
    # endpoints survive further subdivision, and one seed is one sample
    # stream, so larger counts extend smaller ones
    nested = all(b > a for a, b in zip(levels, levels[1:]))
    if src == "grid_sizes":
        levels = [integral(n, "grid size", 2) for n in levels]
        length = finite(flags.pop("length", 1.0), "length", 0)
        kind = "lp_grid"
        params = [{"shape": [n], "spacing": length / (n - 1)} for n in levels]
        # a finer uniform grid contains a coarser one iff the coarse
        # steps land on fine points
        nested = all((b - 1) % (a - 1) == 0 for a, b in zip(levels, levels[1:]))
    elif src == "cantor_depths":
        kind, params = "cantor_endpoints", [{"depth": d} for d in levels]
    else:
        kind, params = "ball_sample", [{"count": c} for c in levels]
    effective = [SpaceSpec(kind, {**p, **flags}, args.seed).effective()
                 for p in params]
    inputs = {"kind": kind, "spaces": effective, "t": args.t}

    def row(params):
        space = line_coordinates(kind, params)
        if space is None:  # a ball sample
            from .spaces import BUILDERS

            space = BUILDERS[kind](**params)
        res = _solve(space, args.t)
        return _n_points(space), res.magnitude, res.status

    rows = refine(effective, row, levels, nested)
    results = {"samples": [s._asdict() for s in rows], "nested": nested,
               "t": args.t}
    _emit(args, command, inputs, results, t0)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Every parse failure is a BadSpec, reported like any other bad
    input; --help and --version still exit 0."""

    def error(self, message):
        raise BadSpec(message)


def _add_space_inputs(sub) -> None:
    g = sub.add_argument_group(
        "space input (choose one)").add_mutually_exclusive_group(required=True)
    g.add_argument("--points-1d", help="comma-separated 1-d coordinates")
    g.add_argument("--graph", help="named graph: k32 (= K_{3,2}), k5, c6, p4, k3,4")
    g.add_argument("--grid", help="lattice grid, e.g. 4x5 or 3x3x2")
    g.add_argument("--cantor-depth", type=int, help="middle-thirds endpoints")
    g.add_argument("--ball", help="'n,R,count' seeded lp-ball sample")
    g.add_argument("--matrix", help="CSV distance matrix file")
    g.add_argument("--stdin-matrix", action="store_true",
                   help="read CSV distance matrix from stdin")
    g.add_argument("--spec", help="space spec as JSON text or a file path")
    # the specs.KINDS table checks these and holds their defaults
    sub.add_argument("--p", type=int, help="lp exponent of --grid or --ball")
    sub.add_argument("--spacing", type=_finite_float, help="--grid step")
    sub.add_argument("--length", type=_finite_float,
                     help="--cantor-depth interval length")
    sub.add_argument("--seed", type=int, help="--ball sample seed")


def _common(sub) -> None:
    """--t and --format, which every command takes."""
    sub.add_argument("--t", type=_finite_float, default=1.0,
                     help="scale factor")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="magnitude",
        description="Magnitude, weightings, diversity, and exact oracles "
                    "for finite metric spaces.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    subs = ap.add_subparsers(dest="cmd", required=True)

    for name, helptext in [
        ("mag", "magnitude at one scale"),
        ("magfn", "magnitude function over a scale sweep"),
        ("weights", "weighting and coweighting vectors"),
        ("check", "validate a metric and report definiteness"),
        ("diversity", "maximum diversity at one scale"),
        ("dim", "growth-based dimension estimate"),
    ]:
        sub = subs.add_parser(name, help=helptext)
        _add_space_inputs(sub)
        _common(sub)
        if name == "magfn":
            sub.add_argument("--tmin", type=_finite_float, required=True)
            sub.add_argument("--tmax", type=_finite_float, required=True)
            sub.add_argument("--steps", type=_scales, default=32)
            sub.add_argument("--log", action="store_true",
                             help="log-spaced scales (default linear)")
        if name == "diversity":
            sub.add_argument("--exact", action="store_true",
                             help="support search also above 10 points, "
                                  "up to 15")
            # --tol and --max-iters default to None, so that --exact,
            # which never reads them, can refuse them
            sub.add_argument("--max-iters", type=_count,
                             help="default 100000; not with --exact")
        if name == "dim":
            sub.add_argument("--tmin", type=_finite_float, required=True)
            sub.add_argument("--tmax", type=_finite_float, required=True)
            sub.add_argument("--samples", type=_scales, default=12)
            sub.add_argument("--method", default="diversity_growth",
                             choices=("diversity_growth", "covering_growth"))
            sub.add_argument("--max-iters", type=_count, default=300_000)
        if name in ("diversity", "dim"):
            # growth fits need a laxer optimizer gap than single solves
            sub.add_argument("--tol", type=_positive_float,
                             default=None if name == "diversity" else 1e-6,
                             help="Frank-Wolfe duality gap target "
                                  "(spaces of more than 10 points)" + (
                                      "; default 1e-9, not with --exact"
                                      if name == "diversity" else ""))

    sub = subs.add_parser("pixel", help="exact pixel-set and convex-body machinery")
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--ascii", help=r"art rows, e.g. '##\n#.'")
    g.add_argument("--pixel-file", help="file with 'dim <n> scale <p>/<q>' header")
    g.add_argument("--body-box", help="box side lengths 'L1,L2[,L3]'")
    g.add_argument("--body-simplex", help="simplex vertices 'x,y;x,y;x,y'")
    g.add_argument("--body-vertices", help="polytope vertices 'x,y;...'")
    sub.add_argument("--scale", help="cell size as a rational (default 1; "
                                     "not with --pixel-file)")
    sub.add_argument("--dim", type=int, choices=(1, 2),
                     help="art dimension (default 2; --ascii only)")
    g = sub.add_mutually_exclusive_group()
    g.add_argument("--intrinsic", action="store_true",
                   help="expansion-polynomial coefficients and magnitude "
                        "(default for --ascii and --pixel-file)")
    g.add_argument("--weights", action="store_true",
                   help="weight-measure masses instead")
    g.add_argument("--convexity", action="store_true",
                   help="l1-convexity verdict with a witness pair on failure")
    g.add_argument("--bounds", action="store_true",
                   help="pixelation bounds for a convex body (default for "
                        "--body-*, the only mode they take)")
    _common(sub)

    sub = subs.add_parser("oracle", help="closed forms: line sets, balls, "
                                         "spheres, asymptotics")
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", help="finite subset of R")
    g.add_argument("--interval", help="'a,b'")
    g.add_argument("--compact", help="disjoint closed intervals 'a,b;c,d'")
    g.add_argument("--cantor", action="store_true",
                   help="middle-thirds limit set")
    g.add_argument("--ball", help="'n,R' Euclidean ball, n odd <= 15")
    g.add_argument("--sphere", help="'n,R' Euclidean sphere, n even")
    g.add_argument("--residual", help="'n,R' sphere minus polynomial part")
    g.add_argument("--conjecture", help="'n,R' intrinsic-volume comparison")
    g.add_argument("--leading", help="'n,p' large-scale coefficient")
    sub.add_argument("--length", type=_finite_float,
                     help="--cantor interval length, default 1")
    _common(sub)

    sub = subs.add_parser("approx",
                          help="magnitude along a refinement family of "
                               "finite approximations to a compact space")
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--grid-sizes", help="uniform grids on [0, length], "
                                        "e.g. '11,101,1001'")
    g.add_argument("--cantor-depths", help="endpoint sets, e.g. '1,2,3'")
    g.add_argument("--ball-counts", help="sample sizes, needs --ball and --seed")
    sub.add_argument("--ball", help="'n,R' for --ball-counts")
    sub.add_argument("--length", type=_finite_float, help="interval length")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--p", type=int)
    _common(sub)

    return ap


_HANDLERS = {
    "mag": _cmd_mag,
    "magfn": _cmd_magfn,
    "weights": _cmd_weights,
    "check": _cmd_check,
    "diversity": _cmd_diversity,
    "dim": _cmd_dim,
    "pixel": _cmd_pixel,
    "oracle": _cmd_oracle,
    "approx": _cmd_approx,
}


def main(argv=None) -> int:
    """Run one command in-process and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        code = _HANDLERS[args.cmd](args, argv, time.perf_counter())
        # a closed reader shows up here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as the signal module's notes on SIGPIPE advise: point stdout at
        # devnull so the flush at shutdown cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except INPUT_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 4


def run() -> None:
    """The process entry (python -m magnitude, the console script): run
    main, flush what it wrote, and end the process with its code, skipping
    interpreter teardown (module and GC cleanup, freeing every array,
    stopping the BLAS threads), which a finished call never needs. A flush
    that meets a closed reader exits 1, quietly, as main does. --help and
    --version leave through argparse's SystemExit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
