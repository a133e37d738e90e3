"""The common base of every error mfglab raises.

Each error class keeps its builtin parent (ValueError or RuntimeError) and
declares a ``kind``: ``config`` for a scenario or argument the program
rejects, ``certification`` for a guarantee that does not hold, and
``numerical`` for a solver or quadrature failure.  The CLI maps the kind
to its exit code.
"""


class MfglabError(Exception):
    kind = "numerical"
