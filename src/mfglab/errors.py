"""Every error mfglab raises: one class per kind, each with a builtin parent.

The ``kind`` selects the CLI exit code (``cli.EXIT_CODES``):

- ``ConfigError`` (``config``): a scenario value or argument the program
  rejects, or a value a computation needs that the scenario does not
  declare;
- ``CertificationError`` (``certification``): a guarantee that does not
  hold, such as a metric invariant or a strength condition;
- ``NumericalError`` (``numerical``): a solver, bisection or quadrature
  failure, such as a CFL guard or a blow-up.

``FixedPointError`` is a certification error that also carries the trace
of the iteration.  No other module defines an exception class.
"""


class MfglabError(Exception):
    kind = "numerical"


class ConfigError(MfglabError, ValueError):
    kind = "config"


class CertificationError(MfglabError, ValueError):
    kind = "certification"


class NumericalError(MfglabError, RuntimeError):
    kind = "numerical"


class FixedPointError(CertificationError):
    """A fixed point that is uncertified or not reached; .trace holds the
    per-sweep record of the iteration, if one ran."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)
