"""Associative computing layer: ASC API + functional and fast backends."""

from repro.assoc.context import AscContext, AscError, FieldExpr, Responders
from repro.assoc.fastpath import (
    FastMachine,
    run_fast,
)
from repro.assoc.functional import (
    FunctionalDeadlock,
    FunctionalError,
    FunctionalMachine,
    FunctionalRunaway,
    run_functional,
)

__all__ = [
    "AscContext",
    "AscError",
    "FieldExpr",
    "Responders",
    "FastMachine",
    "FunctionalDeadlock",
    "FunctionalError",
    "FunctionalMachine",
    "FunctionalRunaway",
    "run_fast",
    "run_functional",
]
