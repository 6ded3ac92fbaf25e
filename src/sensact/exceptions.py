"""Exception hierarchy shared by all sensact modules, and the one refusal
of work larger than physical memory."""

import os


class SensactError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SensactError, ValueError):
    """Matrix or vector shapes are inconsistent with the operation."""


class DomainError(SensactError, ValueError):
    """An input value lies outside the operation's domain."""


class NilpotencyError(DomainError):
    """A mode matrix is (numerically) nilpotent, so spectral-radius
    contractivity arguments do not apply."""


class StabilityError(SensactError, ValueError):
    """A stability precondition fails (e.g. no bounded steady-state
    covariance exists for the requested sequence)."""


class NumericsError(SensactError, RuntimeError):
    """An iterative solver failed to converge or a computed result
    violates its residual contract."""


class SchemaError(SensactError, ValueError):
    """A configuration or model file does not match the expected schema."""


def check_memory(size: int, work: str, held: str = "") -> None:
    """Refuse work whose data, size bytes held at once, would exceed this
    machine's physical memory: DomainError, one line naming the work, its
    size in GiB and what it is held for."""
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise DomainError(f"{work} needs {size / 2**30:,.1f} GiB{held}, "
                          "more than this machine's memory")
