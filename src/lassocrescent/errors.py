"""Shared exception types.

ValueError (including subclasses raised by constructors) always means the
caller passed something malformed.  The classes below separate the two ways a
well-posed input can still fail:

* ``InfeasibleRegionError`` -- the requested point lies outside the region
  where the defining equations have a solution (e.g. a TPP level above the
  phase-transition range, or a threshold below the noiseless floor).
* ``ConvergenceError`` -- the equations should have a solution but an
  iterative solver failed to locate it to tolerance; carries diagnostic
  context and always indicates a bug or a truly pathological instance.
* ``DivergingRootError`` -- a root exists but is not a finite double (the
  boundary value is then an analytic limit); callers usually catch this
  and substitute the limit.
"""


class InfeasibleRegionError(RuntimeError):
    """The defining equations have no solution at the requested point."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class DivergingRootError(InfeasibleRegionError):
    """The sought root lies above the finite search cap."""
