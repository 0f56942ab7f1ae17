"""The Frank-Wolfe kernel."""

import numpy as np
import pytest

from magnitude import backend_name
from magnitude._backend import (
    FW_CONVERGED,
    FW_MAX_ITERS,
    _fw_away_qp_py,
    fw_away_qp,
)


def _random_similarity(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return np.exp(-d)


def test_backend_name_is_numpy():
    assert backend_name() == "numpy"


# ---------------------------------------------------------------------------
# QP kernel


def test_fw_active_backend_matches_reference():
    rng = np.random.default_rng(11)
    for n in (8, 24, 60):
        Z = _random_similarity(rng, n)
        mu1, f1, *_, st1 = _fw_away_qp_py(Z, 1e-9, 200000)
        mu2, f2, *_, st2 = fw_away_qp(Z, 1e-9, 200000)
        assert st1 == st2
        assert abs(f1 - f2) <= 1e-12
        assert np.max(np.abs(mu1 - mu2)) <= 1e-9


def test_fw_simplex_invariants():
    rng = np.random.default_rng(3)
    Z = _random_similarity(rng, 17)
    mu, f, gap, it, nc, st = fw_away_qp(Z, 1e-10, 100000)
    assert st == FW_CONVERGED
    assert np.all(mu >= 0.0)
    assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)
    assert f == pytest.approx(float(mu @ Z @ mu), abs=1e-12)


def test_fw_flags_negative_curvature():
    # indefinite 2x2: the first toward step has d'Zd < 0, lands on a vertex
    Z = np.array([[1.0, 2.0], [2.0, 1.5]])
    for fn in (_fw_away_qp_py, fw_away_qp):
        mu, f, gap, it, nc, st = fn(Z.copy(), 1e-12, 100)
        assert st == FW_CONVERGED
        assert nc
        assert mu[0] == pytest.approx(1.0, abs=1e-15)
        assert f == pytest.approx(1.0, abs=1e-15)


def test_fw_max_iters_status():
    rng = np.random.default_rng(5)
    Z = _random_similarity(rng, 20)
    mu, f, gap, it, nc, st = fw_away_qp(Z, 1e-14, 3)
    assert st == FW_MAX_ITERS
    assert it == 3
