"""Shared exception types.

ValueError (including subclasses raised by constructors) always means the
caller passed something malformed.  The classes below separate the two ways a
well-posed input can still fail:

* ``InfeasibleRegionError`` -- the requested point lies outside the region
  where the defining equations have a solution (e.g. a threshold below the
  noiseless floor), or its solution is no Lasso point: it selects more than
  n variables, so its calibrated penalty lies below 0 (a TPP level past the
  penalty cut of a curve or crescent edge).
* ``ConvergenceError`` -- the equations should have a solution but an
  iterative solver failed to locate it to tolerance; carries diagnostic
  context and always indicates a bug or a truly pathological instance.

A root that exists but is not a finite double is no error: the function
returns its limit (``t_delta`` returns ``math.inf``, where the FDP is 0).
"""


class InfeasibleRegionError(RuntimeError):
    """The defining equations have no solution at the requested point."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""
