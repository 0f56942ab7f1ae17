"""Magnitude of finite metric spaces, with exact line and pixel oracles.

The core pipeline: build or validate a metric space (spaces, from the
specs its kinds are checked by), form the similarity matrix and solve
for the weighting (engine); a finite subset of the line is solved in
O(n) without numpy by the line rung (tridiagonal), with the scale sweeps
and result records both routes share (sweeps). Around it sit exact
closed forms for subsets of the real line (lines), exact rational
machinery for unions of grid cells and convex bodies in the taxicab plane
(pixels), a maximum-diversity optimizer with growth-based dimension
estimates (diversity), and Euclidean ball and sphere formulas (euclid).
"""

__version__ = "0.1.0"

# Every re-export resolves on first use (PEP 562), so `import magnitude`
# loads neither numpy nor the modules that compute.
_EXPORTS = {
    "backend_name": "diversity",
    **dict.fromkeys((
        "DefinitenessReport", "MagnitudeFunctionSample", "UndefinedMagnitude",
        "approximate_compact_magnitude",
        "definiteness_report", "magnitude", "magnitude_function",
        "similarity_matrix", "solve_weighting",
    ), "engine"),
    **dict.fromkeys((
        "FiniteMetricSpace", "MetricError", "TriangleViolation",
        "cantor_endpoints", "generate_space", "graph_metric", "lp_grid",
        "points_on_line", "validate_metric",
    ), "spaces"),
    "SpaceSpec": "specs",
    **dict.fromkeys(("MonotonicityViolation", "RefinementSample",
                     "WeightingResult"), "sweeps"),
}


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = ["__version__", *_EXPORTS]
