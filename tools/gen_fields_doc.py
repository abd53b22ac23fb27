#!/usr/bin/env python
"""Write the field tables of docs/SERVE.md and docs/DSE.md from the rules.

Each document's table (field, values, default, meaning) comes from the
``rule()`` declarations on its dataclass (:mod:`repro.util.fields`) and
sits between ``<!-- fields:NAME -->`` and ``<!-- /fields:NAME -->``
markers.  Regenerate after changing a rule:
python tools/gen_fields_doc.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from dataclasses import MISSING

from repro.core.config import ProcessorConfig
from repro.dse.spec import SweepSpec
from repro.faults.spec import FaultSpec
from repro.serve.jobs import Job
from repro.util.fields import table

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

#: The tables, by marker name, and the doc each one lives in.
TABLES = {"job": (Job, "SERVE.md"), "config": (ProcessorConfig, "SERVE.md"),
          "fault": (FaultSpec, "SERVE.md"), "sweep": (SweepSpec, "DSE.md")}

#: JSON shapes of the fields whose Python type is a class.
SHAPES = {"a ProcessorConfig": "a config object",
          "a FaultSpec": "a fault object", "a Device": "a device name"}


def default_of(rule) -> str:
    if rule.default is MISSING and rule.factory is MISSING:
        return "required"
    value = rule.default if rule.factory is MISSING else rule.factory()
    # An enum member shows its value, a catalog device its name.
    value = getattr(value, "value", getattr(value, "name", value))
    if dataclasses.is_dataclass(value):
        return "its fields' defaults"
    return f"`{json.dumps(list(value) if isinstance(value, tuple) else value)}`"


def render(cls) -> str:
    lines = ["| field | values | default | meaning |", "|---|---|---|---|"]
    for rule in table(cls).rules.values():
        what = rule.what
        for python, shape in SHAPES.items():
            what = what.replace(python, shape)
        lines.append(f"| `{rule.name}` | {what} | {default_of(rule)} | "
                     f"{rule.doc} |")
    return "\n".join(lines)


def generate(doc: str) -> str:
    """The text of ``docs/<doc>`` with its field tables regenerated."""
    text = (DOCS / doc).read_text()
    for name, (cls, where) in TABLES.items():
        if where == doc:
            begin, end = f"<!-- fields:{name} -->", f"<!-- /fields:{name} -->"
            text, found = re.subn(
                re.escape(begin) + ".*?" + re.escape(end),
                lambda _: f"{begin}\n{render(cls)}\n{end}", text, flags=re.S)
            if found != 1:
                raise ValueError(f"docs/{doc} needs one {begin} ... {end}")
    return text


def main() -> None:
    for doc in sorted({where for _, where in TABLES.values()}):
        (DOCS / doc).write_text(generate(doc))
        print(f"wrote docs/{doc}")


if __name__ == "__main__":
    main()
