"""Exception hierarchy shared by the library and the CLI.

Each error class carries a short machine-readable code, and each error an
optional location hint; the CLI maps the classes to process exit codes
(validation 2, resource ceiling 4).  Exit 3, a failed verification
suite, is the CLI's own: proven invariants are tested, not re-checked on
each call, so no error class stands for them.
"""

from __future__ import annotations

import contextlib
import sys

# the default bound on the work one computation may do, counted in its
# own unit: graph nodes, walk steps, boundary corners, summed terms
DEFAULT_NODE_CEILING = 2_000_000


def is_int(value) -> bool:
    """The one integer rule for inputs: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_tuple(value, must: str) -> tuple:
    """The one sequence rule for inputs: tuple(value), or a ValidationError
    "{must}, got {value!r}" when value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError("{}, got {!r}", must, value) from None


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's limit on int -> str digits inside the block.  Inputs keep
    the limit, but a result or a message computed from them can be longer.
    Python 3.10.0-3.10.6 has neither the limit nor its setter."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


class CrystalError(Exception):
    """Its message is `message.format(*args)`, ints in full, or without args `message` as it is."""

    code = "ERROR"
    exit_code = 1

    def __init__(self, message: str, *args, location: str | None = None):
        if args:
            with _any_int_digits():
                message = message.format(*args)
        super().__init__(message)
        self.message = message
        self.location = location

    def to_json(self) -> dict:
        err: dict = {"code": self.code, "message": self.message}
        if self.location is not None:
            err["location"] = self.location
        return {"error": err}


class ValidationError(CrystalError):
    """Malformed input; never raised once values reach the core."""

    code = "VALIDATION"
    exit_code = 2


class ResourceCeilingError(CrystalError):
    """A requested computation exceeds the configured resource ceiling."""

    code = "RESOURCE_CEILING"
    exit_code = 4


class Budget:
    """Work charged against a ceiling.  Once `spent` passes it, charge raises
    ResourceCeilingError with `message` filled in from `args`, {spent} and {ceiling} only then."""

    __slots__ = ("ceiling", "message", "args", "spent")

    def __init__(self, ceiling: int, message: str, *args):
        self.ceiling, self.message, self.args, self.spent = ceiling, message, args, 0

    def charge(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.ceiling:
            with _any_int_digits():
                message = self.message.format(*self.args, spent=self.spent, ceiling=self.ceiling)
            raise ResourceCeilingError(message)
