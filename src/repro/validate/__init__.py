"""Correctness tooling: schedule sanitizer for the simulated device.

See :mod:`repro.validate.sanitizer` for the invariants checked and
``docs/VALIDATION.md`` for how to enable strict mode everywhere.
"""

from .cluster import validate_cluster
from .sanitizer import (
    BYTE_ABS_TOL,
    BYTE_REL_TOL,
    EXCLUSIVE_ENGINES,
    TIME_EPS,
    ValidationReport,
    Violation,
    validate_run,
    validate_timeline,
)

__all__ = [
    "BYTE_ABS_TOL", "BYTE_REL_TOL", "EXCLUSIVE_ENGINES", "TIME_EPS",
    "ValidationReport", "Violation", "validate_run", "validate_timeline",
    "validate_cluster",
]
