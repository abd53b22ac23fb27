"""Hostile input at the outside entry points gets a typed error, never a
crash.

* **bytes** — a byte stream split anywhere frames into the same lines as
  one feed, and ``Dispatcher.handle_line`` answers any text with one
  reply (None for a blank line), never an internal error;
* **documents** — :func:`tests.strategies.documents` draws each outside
  document from its rule table: in range, at and past each bound, of the
  wrong type, null, unknown fields and non-objects.  Every parser returns
  or raises its own typed error;
* **assembly source** — text drawn from the ISA's own tokens assembles
  or raises :class:`~repro.asm.AsmError` at every word width.
"""

import json

import pytest
from hypothesis import example, given, strategies as st

from repro.asm import AsmError, Assembler
from repro.core.config import ProcessorConfig
from repro.dse.spec import DseSpecError, SweepSpec
from repro.faults.spec import FaultSpec
from repro.fpga import ALL_DEVICES
from repro.isa.opcodes import OPCODES
from repro.isa.registers import SCALAR_ALIASES
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.serve.chaos import ChaosSpec
from repro.serve.dispatch import Dispatcher, LineAssembler
from repro.serve.jobs import Job, JobError, config_from_json
from tests.oracle import PROPERTY, examples
from tests.strategies import JSON, documents, sweep_axes, text

SIZES = st.sampled_from([1, 2, 7, 64, 1 << 20])


@PROPERTY
@given(data=st.binary(max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=6), limit=SIZES)
def test_split_feeds_frame_like_one_feed(data, cuts, limit):
    whole = LineAssembler(limit)
    expected = whole.feed(data) + whole.finish()
    split = LineAssembler(limit)
    got = []
    start = 0
    for cut in sorted(c for c in cuts if c <= len(data)) + [len(data)]:
        got += split.feed(data[start:cut])
        start = cut
    got += split.finish()
    assert got == expected
    assert sum(length for _, length in got) == len(data)
    for text, length in got:
        assert text is None or len(text) <= length <= limit


LINES = st.one_of(
    text(60),
    JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"op": st.sampled_from(["ping", "stats", "health", "run", "batch",
                                "dse", "nope"])},
        optional={"id": JSON, "tenant": JSON, "job": JSON, "jobs": JSON,
                  "spec": JSON}).map(json.dumps))


@PROPERTY
@given(line=LINES)
def test_dispatcher_answers_any_line(line):
    reply = Dispatcher().handle_line(line)
    if not line.strip():
        assert reply is None
        return
    assert isinstance(reply, dict) and isinstance(reply["ok"], bool)
    if not reply["ok"]:
        assert not reply["error"].startswith("internal error"), reply


CONFIG = documents(ProcessorConfig)
LMEM = st.dictionaries(st.integers(0, 2048).map(str),
                       st.lists(st.integers(-(1 << 64), 1 << 64), max_size=3),
                       max_size=2)
PARSERS = {
    "config": (config_from_json, JobError, CONFIG),
    "job": (Job.from_json, JobError, documents(Job, lmem=LMEM)),
    "sweep": (SweepSpec.from_json, DseSpecError, documents(
        SweepSpec, axes=sweep_axes(), base=CONFIG,
        device=st.sampled_from([d.name for d in ALL_DEVICES]),
        kernels=st.lists(st.sampled_from(sorted(ALL_KERNEL_BUILDERS)),
                         max_size=2))),
    "fault": (FaultSpec.from_json, ValueError, documents(FaultSpec)),
    "chaos": (ChaosSpec.from_json, ValueError, documents(ChaosSpec)),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@PROPERTY
@given(data=st.data())
def test_documents_parse_or_raise_a_typed_error(name, data):
    parse, error, docs = PARSERS[name]
    try:
        parse(data.draw(docs))
    except error:
        pass


PSEUDO_OPS = ("nop", "li", "la", "move", "not", "neg", "b", "beqz", "bnez",
              "bgt", "ble", "call", "ret", "pli", "pmov", "rnone")
#: Operand pieces: registers in and out of range, aliases, labels and
#: numbers of every literal form, at and past the immediate bounds.
OPERAND_TOKENS = st.sampled_from(
    [f"{rf}{i}" for rf, n in (("s", 17), ("p", 17), ("f", 9))
     for i in range(n)] + sorted(SCALAR_ALIASES) + ["$s1", "x", "main", "loop"]
    + ["0", "1", "-1", "7", "255", "0x7fff", "0xFFFF", "65536", "-32769",
       "0b101", "'a'", "'\\n'", "4294967296"]
    + ["+", "-", "(", ")"])
OPERAND = st.lists(OPERAND_TOKENS, min_size=1, max_size=3).map("".join)
MNEMONICS = st.sampled_from(sorted(OPCODES) + list(PSEUDO_OPS))
MASKS = st.sampled_from(["", " [f1]", " [F7]", " [ f0 ]", " [f8]", " ["])
LABELS = st.sampled_from(["", "main: ", "loop: ", "x: ", "main: x: "])
DIRECTIVES = st.sampled_from([".text", ".data", ".equ x, 3", ".equ", ".word",
                              ".word 1, x", ".space 2", ".space -1", ".bogus"])
#: Any of these tokens in any order: the punctuation a parser may split
#: on, in places it does not expect it.
TOKEN_SOUP = st.lists(
    st.one_of(MNEMONICS, OPERAND_TOKENS, MASKS.map(str.strip), DIRECTIVES,
              st.sampled_from([",", ":", "[", "]", "#", ";", "main:"])),
    max_size=8).map(" ".join)
STATEMENTS = st.builds(
    lambda label, op, args, mask: f"{label}{op} {', '.join(args)}{mask}",
    LABELS, MNEMONICS, st.lists(OPERAND, max_size=4), MASKS)
SOURCES = st.lists(st.one_of(STATEMENTS, DIRECTIVES, TOKEN_SOUP),
                   max_size=8).map("\n".join)


@examples(300)
@example(source="[f1]")
@given(source=SOURCES)
def test_assembly_source_assembles_or_raises_asm_error(source):
    for width in (8, 16, 32):
        try:
            Assembler(width).assemble(source)
        except AsmError:
            pass
