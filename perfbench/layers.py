"""In-process replay of CLI calls, with optional spans around each layer.

`replay(call, tracer)` repeats one CLI call by calling `cli.main(argv)`
in this process, with the call's stdin and with its output captured, so
it makes exactly the public calls the command makes: `dim`, for one,
becomes spaces.generate_space and then diversity.dimension_estimate,
which calls diversity.max_diversity at each sampled scale.

With a Tracer installed (`instrumented(tracer)`), every public function
named in LAYERS is wrapped wherever the package binds it, cli's own
`from .spaces import ...` names included, so nested calls
(engine.magnitude_function -> engine.solve_weighting ->
engine.similarity_matrix) become child spans. A span is
(id, parent, call id, name, start, end); spans stay in memory until the
run writes them out. Hooks record counts at the same boundaries: work
done (triples scanned, Frank-Wolfe iterations, convexity pairs) and
outcomes (solver status, non-convergence). Nothing in the package is
edited; the wrappers are removed when the block exits.
"""

from __future__ import annotations

import io
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

import numpy as np

from magnitude import cli, diversity, engine, pixels, spaces

MODULES = {"spaces": spaces, "engine": engine, "diversity": diversity,
           "pixels": pixels}

LAYERS = [
    "spaces.generate_space", "spaces.load_distance_csv", "spaces.validate_metric",
    "engine.similarity_matrix", "engine.solve_weighting",
    "engine.magnitude_function", "engine.approximate_compact_magnitude",
    "engine.definiteness_report",
    "diversity.max_diversity", "diversity.max_diversity_exact",
    "diversity.dimension_estimate",
    "pixels.is_l1_convex", "pixels.steiner_polynomial", "pixels.weight_measure",
    "pixels.outer_pixelation", "pixels.body_magnitude_bounds",
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._stack = []
        self.call_id = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.call_id, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries: hook(tracer, args, result, exc)


def _validate_hook(tr, args, res, exc):
    n = np.shape(args[0])[0]
    if exc is None:
        tr.counts["spaces.validate_metric.triples"] += n ** 3
    elif isinstance(exc, spaces.TriangleViolation):
        tr.counts["spaces.validate_metric.triples"] += (exc.witness[2] + 1) * n * n


def _solve_hook(tr, args, res, exc):
    if res is not None:
        tr.counts[f"engine.status.{res.status}"] += 1


def _fw_hook(tr, args, res, exc):
    if isinstance(exc, diversity.NonConvergence):
        tr.counts["diversity.nonconverged"] += 1
        tr.counts["diversity.fw_iterations"] += exc.iterations
    elif res is not None:
        tr.counts["diversity.fw_iterations"] += res.iterations
        tr.maxima["diversity.kkt_gap_max"] = max(
            tr.maxima["diversity.kkt_gap_max"], res.kkt_gap)


def _exact_hook(tr, args, res, exc):
    if res is not None:
        tr.counts["diversity.supports_checked"] += res.iterations


def _convex_hook(tr, args, res, exc):
    if res is None:
        return
    p = args[0]
    verdict, pair = res if isinstance(res, tuple) else (res, None)
    if verdict:
        tr.counts["pixels.is_l1_convex.pairs"] += math.comb(p.n_cells, 2)
    elif pair is not None:
        # pairs tried up to and including the witness, in sorted order
        order = sorted(p.cells)
        tr.counts["pixels.is_l1_convex.pairs"] += 1 + next(
            n for n, ab in enumerate(combinations(order, 2)) if ab == pair)


def _pixelation_hook(tr, args, res, exc):
    if res is None:
        return
    body, lam = args[0], Fraction(args[1])
    tested = 1
    for i in range(body.dim):
        lo = min(v[i] for v in body.vertices) / lam
        hi = max(v[i] for v in body.vertices) / lam
        tested *= math.ceil(hi) - math.floor(lo) + 2
    tr.counts["pixels.outer_pixelation.kept"] += res.n_cells
    tr.counts["pixels.outer_pixelation.tested"] += tested


HOOKS = {
    "spaces.validate_metric": _validate_hook,
    "engine.solve_weighting": _solve_hook,
    "diversity.max_diversity": _fw_hook,
    "diversity.max_diversity_exact": _exact_hook,
    "pixels.is_l1_convex": _convex_hook,
    "pixels.outer_pixelation": _pixelation_hook,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if hook:
                    hook(tracer, args, None, exc)
                raise
        if hook:
            hook(tracer, args, res, None)
        return res
    return wrapper


@contextmanager
def instrumented(tracer):
    """Wrap every LAYERS function in every package module that binds it,
    cli included."""
    undo = []
    try:
        for name in LAYERS:
            mod, attr = name.split(".")
            orig = getattr(MODULES[mod], attr)
            wrapped = _wrap(tracer, name, orig)
            for m in (cli, *MODULES.values()):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, key, val))
                        setattr(m, key, wrapped)
        yield tracer
    finally:
        for m, key, val in reversed(undo):
            setattr(m, key, val)


# ---------------------------------------------------------------------------
# replay: the CLI's own entry point, in-process


@contextmanager
def _stdio(stdin_path):
    """The process's stdin from stdin_path (or empty); stdout and stderr
    captured and discarded."""
    sink = io.StringIO()
    saved = sys.stdin
    with open(stdin_path or os.devnull, encoding="utf-8") as inp, \
            redirect_stdout(sink), redirect_stderr(sink):
        sys.stdin = inp
        try:
            yield
        finally:
            sys.stdin = saved


def replay(call, tracer=None, call_id=None):
    """Repeat one CLI call in-process through cli.main, so it makes
    exactly the public calls the command makes; with a tracer, under a
    root span `cli.<command>`. Returns the exit code."""
    if tracer is not None:
        tracer.call_id = call_id
    with _stdio(call["stdin"]):
        with tracer.span(f"cli.{call['argv'][0]}") if tracer else nullcontext():
            return cli.main(call["argv"])


# ---------------------------------------------------------------------------
# per-layer numbers from the span tree


def layer_metrics(tracer):
    """Busy time and call count per layer, self time per module.

    A span's self time is its duration minus the time its children
    cover; a module's self time sums over its functions' spans, with the
    root `cli.*` spans standing for the CLI's own work (argument parsing,
    input digests, JSON output).
    """
    spans = tracer.spans
    child = defaultdict(float)
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    busy, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
    total = 0.0
    for sid, parent, _, name, t0, t1 in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        self_s[name.split(".")[0]] += (t1 - t0) - child[sid]
        if parent is None:
            total += t1 - t0
    out = {}
    for name in LAYERS:
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
    for mod in ("cli", *MODULES):
        out[f"{mod}.self_s"] = self_s[mod]
        out[f"{mod}.self_frac"] = self_s[mod] / total if total else 0.0
    c = tracer.counts
    out.update({k: c[k] for k in (
        "spaces.validate_metric.triples", "engine.status.UniquePD",
        "engine.status.UniqueInvertible", "engine.status.Undefined",
        "diversity.fw_iterations", "diversity.nonconverged",
        "diversity.supports_checked", "pixels.is_l1_convex.pairs")})
    iters = c["diversity.fw_iterations"]
    out["diversity.fw_us_per_iteration"] = (
        1e6 * busy["diversity.max_diversity"] / iters if iters else 0.0)
    out["diversity.kkt_gap_max"] = tracer.maxima["diversity.kkt_gap_max"]
    tested = c["pixels.outer_pixelation.tested"]
    out["pixels.outer_pixelation.kept_ratio"] = (
        c["pixels.outer_pixelation.kept"] / tested if tested else 0.0)
    out["bench.replay_s"] = total
    return out
