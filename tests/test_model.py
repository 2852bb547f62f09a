import math

import numpy as np
import pytest

from tipbeam.errors import (
    GridMismatch,
    NegativeDamping,
    NonPositiveParameter,
    UnsupportedSpeedRatio,
)
from tipbeam.model import (
    GridState,
    cumulative_integral,
    regime_info,
    require_unit_speed,
    solve_static,
    validate_params,
)

from reference import apply_operator, derivative, grid_inner_product, simpson_weights


def test_validate_params_accepts_and_freezes():
    p = validate_params(1, 2, 1, 2, 3, 2)
    assert p.b == 2.0 and p.k4 == 2.0
    assert not p.is_conservative
    assert validate_params(1, 2, 1, 0, 3, 0).is_conservative


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a=0.0, b=2, k1=1, k2=2, k3=3, k4=2),
        dict(a=1, b=-2, k1=1, k2=2, k3=3, k4=2),
        dict(a=1, b=2, k1=0, k2=2, k3=3, k4=2),
        dict(a=1, b=2, k1=1, k2=2, k3=0.0, k4=2),
        dict(a=1, b=float("nan"), k1=1, k2=2, k3=3, k4=2),
    ],
)
def test_validate_params_sign_constraints(kwargs):
    with pytest.raises(NonPositiveParameter):
        validate_params(**kwargs)


def test_validate_params_negative_damping():
    with pytest.raises(NegativeDamping):
        validate_params(a=1, b=2, k1=1, k2=-0.5, k3=3, k4=2)


def test_require_unit_speed(params_generic):
    require_unit_speed(params_generic)
    with pytest.raises(UnsupportedSpeedRatio):
        require_unit_speed(validate_params(a=2, b=2, k1=1, k2=2, k3=3, k4=2))


def test_regime_dispatch(params_generic, params_degenerate, params_case2, params_case3):
    assert regime_info(params_generic).regime == "generic"

    info = regime_info(params_degenerate)
    assert info.regime == "case1" and info.degenerate_p == 1

    b = 4.0 * math.pi**2
    assert regime_info(params_case2).regime == "case2"
    assert regime_info(params_case3).regime == "case3"
    # p = 2 lattice point
    info4 = regime_info(validate_params(1, 16.0 * math.pi**2, 2, 1, 2, 5))
    assert info4.degenerate_p == 2

    # close to the lattice but not on it: generic
    near = validate_params(1, b * (1 + 1e-9), 2, 1, 2, 5)
    info_near = regime_info(near)
    assert info_near.regime == "generic" and info_near.degenerate_p is None


def test_simpson_exact_on_cubic():
    N = 10
    x = np.linspace(0, 1, N + 1)
    w = simpson_weights(N, 1.0 / N)
    assert np.sum(w * x**3) == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(GridMismatch):
        simpson_weights(9, 1.0 / 9)


def test_derivative_exact_on_quartic():
    N = 12
    x = np.linspace(0, 1, N + 1)
    d = derivative(x**4, 1.0 / N)
    assert np.max(np.abs(d - 4 * x**3)) < 1e-12


def test_derivative_fourth_order():
    errs = []
    for N in (40, 80):
        x = np.linspace(0, 1, N + 1)
        d = derivative(np.sin(3 * x), 1.0 / N)
        errs.append(np.max(np.abs(d - 3 * np.cos(3 * x))))
    assert errs[0] / errs[1] > 12.0


def test_cumulative_integral_exact_on_cubic():
    N = 9
    x = np.linspace(0, 1, N + 1)
    out = cumulative_integral(x**3 - 2 * x, 1.0 / N)
    assert np.max(np.abs(out - (x**4 / 4 - x**2))) < 1e-14


def test_cumulative_integral_refuses_three_nodes():
    # the cubic through four nodes needs four of them
    with pytest.raises(GridMismatch, match="need at least 4 nodes"):
        cumulative_integral(np.ones(3), 0.5)


def test_cumulative_integral_fourth_order():
    errs = []
    for N in (40, 80):
        x = np.linspace(0, 1, N + 1)
        out = cumulative_integral(np.cos(4 * x), 1.0 / N)
        errs.append(np.max(np.abs(out - np.sin(4 * x) / 4)))
    assert errs[0] / errs[1] > 12.0


def _smooth_state(N: int, p) -> GridState:
    """A smooth state satisfying the clamped-end and tip-trace relations."""
    x = np.linspace(0, 1, N + 1)
    u = np.sin(1.3 * x) + 0.2j * x**2
    v = x * np.cos(x) - 0.5j * np.sin(2.1 * x)
    y = np.sin(0.7 * x) * (1 + 0.3j)
    z = np.sin(1.9 * x) - 0.25j * x
    eta = v[-1]
    gamma = math.sqrt(p.a / p.b) * z[-1]
    return GridState(N, u, v, y, z, eta, gamma)


def test_inner_product_exact_value(params_generic):
    p = params_generic
    N = 16
    x = np.linspace(0, 1, N + 1)
    s = GridState(N, x.astype(complex), np.zeros(N + 1, complex),
                  np.zeros(N + 1, complex), np.zeros(N + 1, complex),
                  2.0 + 1.0j, 3.0j)
    # u_x + y = 1, so the integral term is exactly 1
    expected = 1.0 + abs(2 + 1j) ** 2 / p.k1 + 9.0 / p.k3
    assert grid_inner_product(s, s, p) == pytest.approx(expected, rel=1e-13)


def test_inner_product_hermitian(params_generic):
    p = params_generic
    s1 = _smooth_state(64, p)
    s2 = _smooth_state(64, p)
    s2.u, s2.v = s2.v, s2.u
    ip12 = grid_inner_product(s1, s2, p)
    ip21 = grid_inner_product(s2, s1, p)
    assert ip12 == pytest.approx(np.conj(ip21), rel=1e-13)
    with pytest.raises(GridMismatch):
        grid_inner_product(s1, _smooth_state(32, p), p)


def _static_data(N: int, p) -> GridState:
    x = np.linspace(0, 1, N + 1)
    f1 = np.sin(1.1 * x) + 0.4j * np.sin(2.0 * x)
    f2 = np.cos(1.7 * x) - 0.2j * x
    f3 = x * np.exp(-x) * (0.8 - 0.1j)
    f4 = np.sin(2.3 * x) + 0.6
    return GridState(N, f1, f2, f3, f4, 0.7 - 0.2j, -0.4 + 0.9j)


def _static_residual(N: int, p) -> float:
    f = _static_data(N, p)
    sol = solve_static(f, p)
    r = apply_operator(sol, p)
    err = max(
        np.max(np.abs(r.u - f.u)),
        np.max(np.abs(r.v - f.v)),
        np.max(np.abs(r.y - f.y)),
        np.max(np.abs(r.z - f.z)),
        abs(r.eta - f.eta),
        abs(r.gamma - f.gamma),
    )
    return float(err)


def test_solve_static_inverts_generator(params_generic):
    p = params_generic
    f = _static_data(160, p)
    sol = solve_static(f, p)
    assert sol.u[0] == 0 and sol.y[0] == 0
    assert sol.eta == sol.v[-1]
    assert sol.gamma == pytest.approx(math.sqrt(p.a / p.b) * sol.z[-1], rel=1e-14)
    assert _static_residual(160, p) < 1e-5


def test_solve_static_zero_maps_to_zero(params_generic):
    zero = np.zeros(33, dtype=complex)
    sol = solve_static(GridState(32, zero, zero, zero, zero, 0j, 0j), params_generic)
    assert np.all(sol.u == 0) and np.all(sol.y == 0)
    assert sol.eta == 0 and sol.gamma == 0


def test_solve_static_residual_converges():
    # differentiating the quadrature output costs one order: the compound
    # residual is O(h^3), ratio 8 per grid doubling
    p = validate_params(1, 2, 1, 2, 3, 2)
    r1 = _static_residual(80, p)
    r2 = _static_residual(160, p)
    assert r1 / r2 > 6.0


def test_solve_static_nonunit_speed_ratio():
    p = validate_params(a=2.5, b=3.0, k1=1.2, k2=0.3, k3=0.8, k4=1.1)
    assert _static_residual(160, p) < 1e-5


def test_dissipation_identity(params_generic, params_conservative):
    for p in (params_generic, params_conservative):
        s = _smooth_state(256, p)
        au = apply_operator(s, p)
        lhs = (grid_inner_product(au, s, p)).real
        rhs = -(p.k2 / p.k1) * abs(s.eta) ** 2 - (p.k4 / p.k3) * abs(s.gamma) ** 2
        norm = grid_inner_product(s, s, p).real
        assert abs(lhs - rhs) < 1e-7 * norm
