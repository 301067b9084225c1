"""Exception hierarchy shared by the whole package.

Two top-level families matter to callers: InputError for anything wrong with
user-supplied data or parameters (CLI exit code 1), NumericalError for
computations that went off the rails at runtime (CLI exit code 2).
"""

import math


class QsmError(Exception):
    pass


class InputError(QsmError):
    """Bad arguments, malformed files, mismatched geometry."""


class MalformedHeaderError(InputError):
    """File header is not parseable or is missing required fields."""


class PayloadSizeError(InputError):
    """Payload byte count disagrees with the header dimensions."""


class NonFinitePayloadError(InputError):
    """Payload contains NaN or infinity."""


class NumericalError(QsmError):
    """NaN/inf produced mid-computation, or an iteration diverged."""


def require(name: str, *values, ge=None, gt=None, lt=None) -> None:
    """The one domain check for numeric settings: raise InputError unless every
    value is finite (as any Python int is) and ``>= ge``, ``> gt`` and ``< lt``
    for each bound given, so NaN and infinity never pass."""
    for v in values:
        if not ((isinstance(v, int) or math.isfinite(v)) and (ge is None or v >= ge)
                and (gt is None or v > gt) and (lt is None or v < lt)):
            bounds = [f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<", lt))
                      if b is not None]
            raise InputError(f"{name} must be {' and '.join(bounds + ['finite'])}, got {v}")
