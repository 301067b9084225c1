"""Exception hierarchy shared by the whole package.

Two top-level families matter to callers: InputError for anything wrong with
user-supplied data or parameters (CLI exit code 1), NumericalError for
computations that went off the rails at runtime (CLI exit code 2).
"""

import math
import numbers


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


def require(name: str, *values, ge=None, gt=None, lt=None, integer: bool = False) -> None:
    """The one domain check for numeric settings: raise InputError unless every
    value is finite (as any Python int is) and ``>= ge``, ``> gt`` and ``< lt``
    for each bound given, so NaN and infinity never pass. With ``integer`` a
    value must also be an int (Python or NumPy, not bool), so a count never
    reaches ``range`` as a fraction."""
    for v in values:
        kind_ok = (isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   if integer else isinstance(v, int) or math.isfinite(v))
        if not (kind_ok and (ge is None or v >= ge)
                and (gt is None or v > gt) and (lt is None or v < lt)):
            bounds = [f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<", lt))
                      if b is not None]
            kind = "an integer" if integer else "finite"
            raise InputError(f"{name} must be {' and '.join(bounds + [kind])}, got {v}")
