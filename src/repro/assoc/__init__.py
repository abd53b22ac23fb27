"""Associative computing layer: ASC API + functional and fast backends."""

from repro.assoc.context import AscContext, AscError, FieldExpr, Responders
from repro.assoc.fastpath import (
    FastMachine,
    FastPathError,
    FastRunResult,
    run_fast,
)
from repro.assoc.functional import (
    FunctionalDeadlock,
    FunctionalError,
    FunctionalMachine,
    FunctionalResult,
    FunctionalRunaway,
    run_functional,
)

__all__ = [
    "AscContext",
    "AscError",
    "FieldExpr",
    "Responders",
    "FastMachine",
    "FastPathError",
    "FastRunResult",
    "FunctionalDeadlock",
    "FunctionalError",
    "FunctionalMachine",
    "FunctionalResult",
    "FunctionalRunaway",
    "run_fast",
    "run_functional",
]
