import math

import pytest

from tipbeam.model import validate_params


@pytest.fixture(scope="session")
def params_generic():
    """Damped set with k1 != k3; both eigenvalue families are separated."""
    return validate_params(a=1.0, b=2.0, k1=1.0, k2=2.0, k3=3.0, k4=2.0)


@pytest.fixture(scope="session")
def params_degenerate():
    """k1 = k3 and sqrt(b) = 2*pi: the families collide at leading order."""
    return validate_params(a=1.0, b=4.0 * math.pi**2, k1=2.0, k2=1.0, k3=2.0, k4=5.0)


@pytest.fixture(scope="session")
def params_conservative():
    return validate_params(a=1.0, b=2.0, k1=1.0, k2=0.0, k3=3.0, k4=0.0)


@pytest.fixture(scope="session")
def params_case2():
    """params_degenerate with equal gains: the families part at order 1/k^3."""
    return validate_params(a=1.0, b=4.0 * math.pi**2, k1=2.0, k2=1.0, k3=2.0, k4=1.0)


@pytest.fixture(scope="session")
def params_case3():
    """params_degenerate without damping: a conservative collision."""
    return validate_params(a=1.0, b=4.0 * math.pi**2, k1=2.0, k2=0.0, k3=2.0, k4=0.0)


@pytest.fixture(scope="session")
def params_near_lattice():
    """sqrt(b) a relative 5e-9 off the p = 2 lattice point with k1 = k3:
    generic, but the two alpha_j differ by only 1.3e-7."""
    return validate_params(a=1.0, b=(4.0 * math.pi) ** 2 * (1.0 + 1e-8),
                           k1=1.0, k2=1.0, k3=1.0, k4=2.0)
