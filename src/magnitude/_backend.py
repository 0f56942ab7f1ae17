"""The Frank-Wolfe kernel of the maximum-diversity solver, in numpy.

``fw_away_qp``: Frank-Wolfe with away steps minimizing x'Zx over the
probability simplex. The triangle scan of metric validation lives with
the other metric checks in spaces.
"""

from __future__ import annotations

import numpy as np

# status codes returned by the FW kernel
FW_CONVERGED = 0
FW_MAX_ITERS = 1


def _fw_away_qp_py(Z, tol, max_iters):
    # one O(N) pass per iteration
    n = Z.shape[0]
    mu = np.full(n, 1.0 / n)
    q = Z @ mu                     # running Z @ mu
    f = float(mu @ q)              # running objective mu' Z mu
    nonconvex = False
    gap = 0.0
    it = 0
    while it < max_iters:
        g = 2.0 * q
        s = int(np.argmin(g))      # lowest index wins ties by argmin contract
        gmu = float(g @ mu)
        gap = gmu - g[s]
        if gap <= tol:
            return mu, f, gap, it, nonconvex, FW_CONVERGED
        on_support = mu > 0.0
        masked = np.where(on_support, g, -np.inf)
        a = int(np.argmax(masked))
        if gap >= g[a] - gmu:
            # toward step: d = e_s - mu
            d_zmu = q[s] - f
            d_zd = Z[s, s] - 2.0 * q[s] + f
            hmax = 1.0
            if d_zd <= 0.0:
                if d_zd < -1e-12:
                    nonconvex = True
                h = hmax
            else:
                h = min(hmax, -d_zmu / d_zd)
                h = max(h, 0.0)
            f = f + 2.0 * h * d_zmu + h * h * d_zd
            mu *= 1.0 - h
            mu[s] += h
            q = (1.0 - h) * q + h * Z[:, s]
        else:
            # away step: d = mu - e_a, feasible up to alpha/(1-alpha)
            alpha = mu[a]
            drop = False
            hmax = alpha / (1.0 - alpha) if alpha < 1.0 else 0.0
            d_zmu = f - q[a]
            d_zd = f - 2.0 * q[a] + Z[a, a]
            if d_zd <= 0.0:
                if d_zd < -1e-12:
                    nonconvex = True
                h = hmax
                drop = True
            else:
                h = -d_zmu / d_zd
                if h >= hmax:
                    h = hmax
                    drop = True
                h = max(h, 0.0)
            f = f + 2.0 * h * d_zmu + h * h * d_zd
            mu *= 1.0 + h
            mu[a] -= h
            if drop:
                mu[a] = 0.0
            q = (1.0 + h) * q - h * Z[:, a]
        it += 1
    return mu, f, gap, it, nonconvex, FW_MAX_ITERS


def backend_name() -> str:
    """Kernel implementation that runs: always 'numpy'."""
    return "numpy"


def fw_away_qp(Z: np.ndarray, tol: float, max_iters: int):
    """Minimize x'Zx over the probability simplex.

    Frank-Wolfe with away steps and exact line search. Deterministic:
    uniform start, lowest-index tie break in the linear minimization oracle.

    Returns (x, objective, duality_gap, iterations, nonconvex_flag, status)
    where status is FW_CONVERGED or FW_MAX_ITERS. The nonconvex flag is set
    when a direction of negative curvature (d'Zd < -1e-12) is encountered.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    return _fw_away_qp_py(Z, float(tol), int(max_iters))
