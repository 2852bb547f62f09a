"""Closed-form characteristic function of the beam eigenvalue problem.

Separating variables turns the eigenproblem into a 4x4 homogeneous linear
system for the coefficients of the exponential interior solutions e^{t_i x}.
Eigenvalues are the zeros of f(lambda) = -det M(lambda) / (16 b), where M
collects the clamped-end and tip-feedback conditions.

One kernel gives f, F and F'.  Row 0 of M (the clamped end) is all ones, so
subtracting column 0 from columns 1..3 leaves a 3x3 matrix R of rows 1..3
with det M = det R.  R's nine signed cofactors C (its 2x2 minors) then give
det M = sum_j R_0j C_0j, the expansion along the shear row.  The column
differences come first on purpose: at the ten table roots of the degenerate
set (k = 200 .. 1000), where det M cancels to about 1e-16, this errs by at
most 5.2e-19 against a 60-digit determinant of the same double entries, as
an LU determinant of M does.  A Laplace expansion of the 4x4 itself by pairs
of rows (rows 0-1 against rows 2-3) sums six products of 2x2 minors that
cancel far more, and errs by 2.8e-14 there; it is not used.

A lane's value depends neither on the other lanes nor on the batch size.
numpy's complex product is not commutative in the last bit, and from
256 KiB on numpy reuses a temporary right operand of `*` for the result,
swapping the operands; so such a product is written np.multiply(left, right).
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroLambda
from .model import BeamParams, require_unit_speed


def _check_nonzero(lam: np.ndarray) -> None:
    if (lam == 0).any():
        raise ZeroLambda("branch roots are defined for lambda != 0")


def _roots(lam: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """t1, t3 with principal square roots composed factor by factor."""
    sb = np.sqrt(b)
    t1 = np.sqrt(lam) * np.sqrt(1j * sb + lam)
    t3 = np.sqrt(lam) * np.sqrt(-1j * sb + lam)
    return t1, t3


def _shifted_roots(lam: np.ndarray, b: float):
    """t1, t3 and the shifts t1 - lambda, t3 - lambda = +- i lambda sqrt(b)/(t + lambda).

    Computing e^{t_i} directly loses |Im t_i| * eps of phase to the rounding
    of t_i, which at |lambda| ~ 10^3 already drowns the O(1/lambda^4) tail of
    f; e^{t_i} = e^{lambda} e^{t_i - lambda} stays accurate to a few ulp
    because the evaluation point lambda itself is exact.
    """
    sb = np.sqrt(b)
    t1, t3 = _roots(lam, b)
    return t1, t3, 1j * lam * sb / (t1 + lam), -1j * lam * sb / (t3 + lam)


def _exponents(lam: np.ndarray, b: float):
    """(t1, -t1, t3, -t3) and the stabilized e^{t_i}, column axis first.

    A function of its own so that its (n,) temporaries are freed before
    _columns builds the (4, n) row symbols.
    """
    t1, t3, dl1, dl3 = _shifted_roots(lam, b)
    ez = np.exp(lam)
    e1 = np.multiply(ez, np.exp(dl1))
    e3 = np.multiply(ez, np.exp(dl3))
    return np.array([t1, -t1, t3, -t3]), np.array([e1, 1.0 / e1, e3, 1.0 / e3])


def _columns(lam: np.ndarray, lam2: np.ndarray, p: BeamParams):
    """Per-column pieces of M, column axis first (shape (4,) + lam.shape);
    lam2 is lambda^2.

    The exponents t_i, the stabilized e^{t_i}, the constants
    q_i = (lambda^2 - t_i^2)/lambda = -+ i sqrt(b) (shape (4, 1, ...)), and
    the row symbols d_i = q_i lambda / t_i, g2_i and g3_i.  The row symbols
    are formed in place, g3's array serving as g2's scratch first, with the
    operands of every product in the order of the formula.
    """
    ts, exps = _exponents(lam, p.b)
    q = np.array([-1j, -1j, 1j, 1j]).reshape((4,) + (1,) * lam.ndim) * np.sqrt(p.b)
    d = q * lam
    d /= ts
    g2 = p.k2 * ts                      # (k2 t + (k1 + t) lambda) / (lambda t)
    g3 = p.k1 + ts
    g3 *= lam
    g2 += g3
    np.multiply(lam, ts, out=g3)
    g2 /= g3
    np.multiply(p.k3, ts, out=g3)       # d (k3 t + lambda (k4 + lambda)) / lambda^2
    g3 += np.multiply(lam, p.k4 + lam)
    np.multiply(d, g3, out=g3)
    g3 /= lam2
    return ts, exps, q, d, g2, g3


def _matrix(lam, p: BeamParams):
    """Collocation matrices of shape lam.shape + (4, 4), stabilized entries.

    Also returns the per-column pieces of _columns, column axis last (shape
    lam.shape + (4,)), that the rows are built from.
    """
    pieces = _columns(lam, lam**2, p)
    ts, exps, _, d, g2, g3 = pieces
    m = np.array([np.ones_like(ts), d, exps * g2, exps * g3])
    return np.moveaxis(m, (0, 1), (-2, -1)), tuple(np.moveaxis(x, 0, -1) for x in pieces)


def _cofactor_row(r: np.ndarray, i: int) -> np.ndarray:
    """Row i of the signed cofactors of R: rows i+1 and i+2 of R crossed.

    r holds R with its columns 0 and 1 repeated after column 2, so every
    term of the cross product is a slice.
    """
    a, b = r[(i + 1) % 3], r[(i + 2) % 3]
    c = a[1:4] * b[2:5]
    c -= a[2:5] * b[1:4]
    return c


def _reduced_det(lam: np.ndarray, lam2: np.ndarray, p: BeamParams):
    """(det M, padded R, C's row 0, column pieces) at the 1-d array lam;
    lam2 is lambda^2.

    The pieces are those of _columns, with g2 and g3 multiplied by e^{t_i}
    in place into rows 2 and 3 of M.
    """
    pieces = _columns(lam, lam2, p)
    _, exps, _, d, m2, m3 = pieces
    np.multiply(exps, m2, out=m2)       # bit for bit M's entries: numpy's complex
    np.multiply(exps, m3, out=m3)       # product is not commutative in the last bit
    r = np.empty((3, 5, lam.size), dtype=complex)
    for i, row in enumerate((d, m2, m3)):
        np.subtract(row[1:], row[0], out=r[i, :3])
    r[:, 3:] = r[:, :2]
    c0 = _cofactor_row(r, 0)
    return np.add.reduce(r[0, :3] * c0), r, c0, pieces


def _row_derivatives(lam: np.ndarray, lam2: np.ndarray, p: BeamParams, pieces):
    """Rows 1..3 of dM/dlambda, written over the pieces d, m2, m3, and t_i';
    lam2 is lambda^2.

    t' = (2 lambda - q)/(2 t) and d' = (q - d t')/t; with
    g2 = 1 + k2/lambda + k1/t and g3 = q (k3/lambda + (k4 + lambda)/t),
    g2' = -k2/lambda^2 - k1 t'/t^2 and g3' = q (1/t - (k4 + lambda) t'/t^2
    - k3/lambda^2), and (e g)' = t' e g + e g'.  The rows are built in
    place, with one (4, n) scratch buffer and one (n,) lane buffer, to keep
    the peak memory of a batch low.  A lane array or a q_i enters a (4, n)
    array row by row, as a row or a scalar: numpy gives every ufunc call
    that broadcasts a lower-rank array against it a 64 KiB iteration buffer.
    """
    ts, exps, q, d, m2, m3 = pieces
    qs = q.ravel()
    it = 1.0 / ts
    tp = np.empty_like(ts)
    for row, qi in zip(tp, qs):
        np.subtract(lam, 0.5 * qi, out=row)
    tp *= it
    w = tp * it * it                    # t'/t^2
    d *= tp
    for row, qi in zip(d, qs):
        np.subtract(qi, row, out=row)
    d *= it
    g = p.k1 * w
    lane = p.k2 / lam2
    for row in g:
        row += lane
    g *= exps                           # -e g2'
    m2 *= tp
    m2 -= g
    np.add(p.k4, lam, out=lane)
    for row, wi in zip(g, w):
        np.multiply(lane, wi, out=row)
    np.subtract(it, g, out=g)
    np.divide(p.k3, lam2, out=lane)
    for row, qi in zip(g, qs):
        row -= lane
        row *= qi
    g *= exps                           # e g3'
    m3 *= tp
    m3 += g
    return (d, m2, m3), tp


def _kernel(lanes: np.ndarray, p: BeamParams):
    """(F, F', f) by the reduced expansion at the 1-d array lanes."""
    lam2 = lanes**2
    det, r, c0, pieces = _reduced_det(lanes, lam2, p)
    cof = (c0, _cofactor_row(r, 1), _cofactor_row(r, 2))
    del r
    rows, tp = _row_derivatives(lanes, lam2, p, pieces)
    ddet = sum(np.add.reduce((row[1:] - row[0]) * c) for row, c in zip(rows, cof))
    t1, t3 = pieces[0][0], pieces[0][2]
    f = -det / (16.0 * p.b)
    dbig_f = -(ddet * t1 * t3 + np.multiply(det, tp[0] * t3 + t1 * tp[2])) / (16.0 * p.b)
    return f * t1 * t3, dbig_f, f


_RING_POINTS = 32     # samples of the ring around a branch point
_RING_RADIUS = 1e-2   # ring radius, capped at sqrt(b)/4; the switch radius is a tenth of it


def _ring_taylor(center: complex, h: np.ndarray, radius: float, p: BeamParams):
    """F and F' at center + h from the Taylor polynomial of F on a ring.

    The coefficients a_n radius^n are the discrete Fourier transform of F at
    center + radius e^{2 pi i j/32}, a small matrix product; Horner's rule in
    h/radius then gives F and F'.
    """
    n = np.arange(_RING_POINTS)
    ring = _kernel(center + radius * np.exp(2j * np.pi / _RING_POINTS * n), p)[0]
    dft = np.exp(-2j * np.pi / _RING_POINTS * (np.outer(n, n) % _RING_POINTS))
    coef = dft @ ring / _RING_POINTS
    s = h / radius
    val, der = np.full(h.shape, coef[-1]), np.zeros_like(h)
    for c in coef[-2::-1]:
        der = der * s + val
        val = val * s + c
    return val, der / radius


def entire_char_fn_and_derivative(lam, p: BeamParams):
    """(F, F', f): the surrogate F = f t1 t3, its derivative, and f itself.

    f jumps sign across the rays Im(lambda) = +-sqrt(b), Re(lambda) <= 0,
    where the composed square roots switch sheets; F has no jump, is
    analytic off the origin, and has the same zeros as f away from the
    branch points, so all contour and Newton work uses F.

    Row 0 of M is constant, so by Jacobi's rule det' is the sum of the three
    determinants of M with row r (r = 1..3) replaced by its derivative.  Each
    of them keeps the row of ones and reduces like M, to R with row r - 1
    replaced by the reduced derivative row, and expanding along that row
    gives sum_j R'_(r-1)j C_(r-1)j with the cofactors C of R itself.  So
    det' = sum_ij R'_ij C_ij from the same reduction as det.  The row
    derivatives follow from t_i' = (2 lambda - q_i)/(2 t_i).  Unlike
    det * tr(M^-1 M'), the sum stays finite at the roots.

    At the branch points +- i sqrt(b) one t_i vanishes and t_i' blows up,
    though F stays analytic: the direct F' errs there by up to 1e-5
    relative at 1e-6 away, 1e-9 at 1e-4 and 1e-11 at 1e-3.  So lanes within
    the switch radius rho = radius/10 of +- i sqrt(b) take F and F' from
    the Taylor polynomial of F on a ring of 32 samples, radius =
    min(1e-2, sqrt(b)/4) (so the ring keeps clear of the origin), built for
    the call that has such a lane; there f = F/(t1 t3), infinite at the
    point itself.  The polynomial's truncation error is (rho/radius)^32 =
    1e-32 relative, and its rounding about eps max|F| on the ring, over
    radius for F'.  Measured for sqrt(b)/pi in {0.5, 8.5, 20.5}, damped and
    conservative: inside rho it agrees with a 64-sample ring of radius 0.1
    within 3e-13 of the largest |F| and |F'| on the disc (1.5e-11 at
    sqrt(b) = 200.5 pi, where F varies on the scale 1/sqrt(b)).  Only
    lambda = 0 is refused (ZeroLambda).  Vectorized over any leading shape
    of lam; a 0-d lambda runs as a one-lane batch, since numpy's scalar
    complex arithmetic can round apart from its array loops, and each lane's
    arithmetic is independent of the others.
    """
    require_unit_speed(p)
    arr = np.asarray(lam, dtype=complex)
    _check_nonzero(arr)
    lanes = arr.reshape(-1)
    sb = np.sqrt(p.b)
    radius = min(_RING_RADIUS, sb / 4.0)
    near = np.hypot(lanes.real, np.abs(lanes.imag) - sb) < radius / 10.0
    if near.any():
        out = tuple(np.empty_like(lanes) for _ in range(3))
        for o, v in zip(out, _kernel(lanes[~near], p)):
            o[~near] = v
        for center in (1j * sb, -1j * sb):
            on = near & (lanes.imag * center.imag > 0)
            if on.any():
                out[0][on], out[1][on] = _ring_taylor(center, lanes[on] - center, radius, p)
        t1, t3 = _roots(lanes[near], p.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[2][near] = out[0][near] / (t1 * t3)
    else:
        out = _kernel(lanes, p)
    out = tuple(v.reshape(arr.shape) for v in out)
    return tuple(complex(v) for v in out) if arr.ndim == 0 else out
