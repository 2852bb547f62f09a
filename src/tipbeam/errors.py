"""Exception types shared across the package.

Everything derives from TipbeamError so callers can catch the whole family;
ValueError/RuntimeError mixins keep the types usable with idiomatic handlers.
"""


class TipbeamError(Exception):
    """Base class for all package errors."""


# --- parameter validation ---

class NonPositiveParameter(TipbeamError, ValueError):
    """b, k1 or k3 must be strictly positive."""


class NegativeDamping(TipbeamError, ValueError):
    """k2 and k4 must be non-negative."""


class UnsupportedSpeedRatio(TipbeamError, ValueError):
    """Spectral routines require the equal-wave-speed case a = 1."""


# --- grid operations ---

class GridMismatch(TipbeamError, ValueError):
    """Two grid states live on different meshes."""


class DegenerateBoundarySystem(TipbeamError, RuntimeError):
    """The scalar tip equations of the static solve became ill-conditioned."""


class ResolutionTooLow(TipbeamError, ValueError):
    """Mesh too coarse for the requested operation."""


# --- characteristic function ---

class ZeroLambda(TipbeamError, ValueError):
    """Branch roots are undefined at lambda = 0."""


class BranchRootNearZero(TipbeamError, ValueError):
    """t1 or t3 is too close to zero for the coupling formulas."""


class ZeroDenominator(TipbeamError, ValueError):
    """g-function evaluated at t = 0 or lambda = 0."""


class NearBranchPoint(TipbeamError, ValueError):
    """Derivative evaluated within 1e-6 of 0 or +/- i*sqrt(b), where t' blows up."""


# --- asymptotics ---

class NegativeDiscriminant(TipbeamError, RuntimeError):
    """gamma1^2 - 4*gamma2 < 0; indicates an implementation bug."""


class ZeroOmega1(TipbeamError, RuntimeError):
    """First-order coefficient vanished; the two families are not separated."""


class NegativeRadicand(TipbeamError, ValueError):
    """Third-order degenerate coefficients are not real for these parameters."""


class RegimeMismatch(TipbeamError, ValueError):
    """The parameters are outside the regime a routine needs: special_a3 needs
    the degenerate set, riesz_closeness a damped beam (k2, k4 not both zero)."""


# --- root search ---

class BoundaryTooCloseToRoot(TipbeamError, RuntimeError):
    """Contour perturbation failed to move the boundary off a root."""


class NonConvergentContour(TipbeamError, RuntimeError):
    """Winding integral did not settle near an integer."""


class NoConvergence(TipbeamError, RuntimeError):
    """Newton iteration exhausted its budget."""


class BasinEscape(TipbeamError, RuntimeError):
    """Newton iterate wandered too far from its seed."""


class IncompleteBox(TipbeamError, RuntimeError):
    """Argument-principle count disagrees with recovered roots."""


# --- eigenfunctions ---

class NotAnEigenvalue(TipbeamError, ValueError):
    """Boundary matrix has no numerical nullspace at this point."""


class RankDeficiencyTwo(TipbeamError, RuntimeError):
    """Boundary matrix nullspace is (numerically) two-dimensional."""


class ZeroMode(TipbeamError, ValueError):
    """Cannot normalize a zero eigenfunction."""


class UnpairedFamily(TipbeamError, RuntimeError):
    """Dissipative and conservative spectra could not be matched up."""


# --- simulation ---

class EigensolveFailure(TipbeamError, RuntimeError):
    """Dense eigensolver did not converge."""


class SingularSolve(TipbeamError, RuntimeError):
    """Implicit time step produced a singular linear system."""


class WindowTooShort(TipbeamError, ValueError):
    """Decay-fit window contains too few samples."""


class NonPositiveEnergy(TipbeamError, ValueError):
    """Decay-fit window holds an energy sample <= 0; log E is undefined."""


class IllConditionedGram(TipbeamError, RuntimeError):
    """Truncated Gram system is too ill-conditioned to invert."""


# --- cli ---

class ConfigError(TipbeamError, ValueError):
    """Bad command-line configuration or parameter file."""
