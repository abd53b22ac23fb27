"""Shared hypothesis strategies for the test suite.

:func:`programs` is the one program generator and :func:`machines` the
one machine axis of the property tests; :mod:`tests.oracle` states the
promises they are checked against.
"""

import dataclasses
import functools
import itertools

from hypothesis import strategies as st

from repro.asm.program import Program
from repro.core.config import (
    DividerKind,
    MTMode,
    MultiplierKind,
    ProcessorConfig,
)
from repro.isa import registers as regs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    ALL_MNEMONICS,
    OPCODES,
    ExecClass,
    Format,
    ImmKind,
)
from repro.util.fields import table
from tests.golden import VARIANTS


def _imm_values(spec) -> int:
    """How many encodings an immediate has; encoding 0 is the value 0."""
    bits = 13 if spec.fmt is Format.IP else 16
    return {ImmKind.SHAMT: 32,
            ImmKind.REGIDX: regs.NUM_SCALAR_REGS}.get(spec.imm_kind,
                                                      1 << bits)


#: Register counts per file: all of them, or a body's small pools.
ALL_REGS = tuple(regs.REGFILE_SIZES.items())


@functools.cache
def _operands(mnemonic, registers):
    """The operand fields of ``mnemonic`` and how many values each takes."""
    spec = OPCODES[mnemonic]
    counts = dict(registers)
    roles = list(spec.srcs) + ([spec.dest] if spec.dest else [])
    fields = [(fname, counts[regfile]) for regfile, fname in roles
              if fname != "link"]
    if spec.masked:
        fields.append(("mf", counts["f"]))
    if spec.fmt is Format.J:
        # J-format carries its target in the 26-bit target field; imm is
        # unused even though imm_kind is TARGET.
        fields.append(("target", 1 << 26))
    elif spec.imm_kind is not None:
        fields.append(("imm", _imm_values(spec)))
    return tuple(fields)


def decode(chunk: bytes, mnemonics=ALL_MNEMONICS, registers=ALL_REGS,
           salt=0):
    """The instruction six bytes name: byte 0 (plus ``salt``) picks the
    opcode, the rest index the product of its operand fields (zero bytes
    give zero fields, so shrinking simplifies)."""
    mnemonic = mnemonics[(chunk[0] + salt) % len(mnemonics)]
    code = int.from_bytes(chunk[1:6], "little")
    values = {}
    for name, size in _operands(mnemonic, registers):
        code, values[name] = divmod(code, size)
    spec = OPCODES[mnemonic]
    if spec.imm_kind in (ImmKind.SIGNED, ImmKind.OFFSET):
        half = _imm_values(spec) >> 1
        values["imm"] -= 2 * half if values["imm"] >= half else 0
    return Instruction(mnemonic, **values)


def instructions():
    """Random valid instruction of any opcode (one draw of six bytes)."""
    return st.binary(min_size=6, max_size=6).map(decode)


# -- the program generator ----------------------------------------------------

#: What a generated body may hold: every op but control flow, thread
#: operations and halt, which only the skeleton places.
BODY_MNEMONICS = tuple(m for m in ALL_MNEMONICS if not (
    OPCODES[m].is_branch or OPCODES[m].is_jump or OPCODES[m].is_halt
    or OPCODES[m].is_thread_op))
#: Scalar ALU ops: a run of them in a loop is what the fast backend fuses.
SCALAR_MNEMONICS = tuple(
    m for m in BODY_MNEMONICS if OPCODES[m].exec_class is ExecClass.SCALAR
    and OPCODES[m].dest == ("s", "rd") and not OPCODES[m].is_load)
#: Small register pools keep bodies dependence-dense.  The skeleton owns
#: s9 (loop trips), s10-s12 (worker handles) and s14 (the link register):
#: no body instruction writes them, so every loop and call ends.
BODY_REGS = (("s", 6), ("p", 4), ("f", 4))
LOOP_REG = 9
HANDLE_REGS = (10, 11, 12)
#: The scalar words lw/sw use (shared by every thread), and the local
#: words plw/psw use.
ADDRESSES = (16, 20, 24)
LMEM_SLOTS = tuple(range(8))
BRANCHES = ("beq", "bne", "blt", "bge")
_KINDS = {"straight": ("plain",), "acyclic": ("plain", "branch"),
          "any": ("plain", "branch", "loop", "call")}
_SCALAR_REGS = dict(BODY_REGS)["s"]
_QUARTER = st.integers(0, 3)
_COIN = st.booleans()
_REG = st.integers(1, _SCALAR_REGS - 1)     # a body register but s0
_INDEX = st.integers(0, 63)         # a position or a pick, modulo a size
_TRIPS = st.integers(1, 4)
_SEED = st.binary(min_size=8, max_size=8)
#: Compact draws: a byte picks each of one to three items, two bytes
#: place one shared access (up to two).
_KIND_BYTES = st.binary(min_size=1, max_size=3)
_ACCESS_BYTES = st.binary(max_size=4)


def _body(mnemonics, wild, data: bytes, salt: int) -> list[Instruction]:
    """Body instructions, seven drawn bytes each: an instruction and
    where its memory operand points.  A wild access keeps its drawn base
    register, so its address depends on data and may fault.  The opcode
    byte is salted by the run and the position in it, so the zero bytes
    hypothesis favours still vary the opcode."""
    out = []
    for i in range(0, len(data) - 6, 7):
        ins = decode(data[i:i + 6], mnemonics, BODY_REGS,
                     salt=salt + 5 * i)
        if ins.spec.has_mem_operand:
            slots = (ADDRESSES if ins.exec_class is ExecClass.SCALAR
                     else LMEM_SLOTS)
            ins = dataclasses.replace(
                ins, rs=ins.rs if wild and data[i + 6] >= 192 else 0,
                imm=slots[data[i + 6] % len(slots)])
        out.append(ins)
    return out


def _seed(data: bytes) -> list[Instruction]:
    """A thread's first lines: nonzero values in s1-s5 and p1-p3, so an
    op that reads a wrong operand shows in the final state."""
    return ([Instruction("addi", rd=r, imm=data[r - 1] - 128 or 1)
             for r in range(1, 6)]
            + [Instruction("paddi", rd=r, imm=data[r + 4] - 128 or 1)
               for r in range(1, 4)])


def _link(lines) -> Program:
    """Resolve the label operands of a skeleton into a program."""
    pcs, pc = {}, 0
    for line in lines:
        if isinstance(line, str):
            pcs[line] = pc
        else:
            pc += 1
    out = []
    for line in lines:
        if isinstance(line, tuple):
            mnemonic, *regs_, label = line
            if mnemonic == "jal":
                line = Instruction("jal", target=pcs[label])
            elif mnemonic == "tspawn":
                line = Instruction("tspawn", rd=regs_[0], imm=pcs[label])
            else:
                line = Instruction(mnemonic, rd=regs_[0], rs=regs_[1],
                                   imm=pcs[label] - len(out) - 1)
        if not isinstance(line, str):
            out.append(line)
    return Program(instructions=out)


def programs(*, spawn=None, control="any", wild=True, race_free=False,
             shared=False):
    """Terminating programs: a skeleton filled with full-ISA bodies.

    The skeleton fixes the thread layout, control flow and delivery:

    * ``spawn`` — None for either, False for spawn-free, True for a main
      thread that spawns one to three workers (``tspawn``/``texit``),
      may deliver to them and read back (``tput``/``tget``) and joins
      them (``tjoin``).  Outside ``race_free``, under ``control="any"``,
      a spawn-free thread may deliver to itself and read back (handle
      s0), and join a handle register set to 1: a free context, or on a
      one-thread machine the thread itself, a deadlock;
    * ``control`` — ``"straight"`` (straight-line threads),
      ``"acyclic"`` (plus forward branches) or ``"any"`` (plus counted
      loops and ``jal``/``jr ra`` calls);
    * ``wild`` — memory operands may use a drawn base register and branch
      conditions may read body registers.  Without it, addresses are
      constants and branches read only s0 and the loop counter, so the
      path and the faults never depend on the data;
    * ``race_free`` — no stores, deliveries or unjoined workers, and no
      worker exits before the last spawn: every context's final state is
      schedule-independent;
    * ``shared`` — every thread also loads and stores the shared
      ``ADDRESSES``.

    Bodies are full-ISA instructions over ``BODY_MNEMONICS``, decoded
    from drawn bytes by :func:`decode` as :func:`instructions` are.
    """
    mnemonics = tuple(m for m in BODY_MNEMONICS
                      if not (race_free and OPCODES[m].is_store))
    runs = {n: st.binary(min_size=7, max_size=7 * n) for n in (3, 6)}
    conds = (0, 1, 2, LOOP_REG) if wild else (0, LOOP_REG)
    top = _KINDS[control]
    pools = {"top": top, "loop": tuple(k for k in top if k != "loop"),
             "function": tuple(k for k in top if k not in ("loop", "call"))}
    workers = (st.just(0) if spawn is False else
               st.integers(1 if spawn else 0, 3))

    def items(draw, where, fresh, run, functions):
        """One thread's (or function's) code between its skeleton lines."""
        out = []
        pool = pools[where]
        for i, byte in enumerate(draw(_KIND_BYTES)):
            kind = pool[(byte + i) % len(pool)]
            if kind == "plain":
                out += run(6)
            elif kind == "branch":
                skip = fresh("skip")
                code = draw(_INDEX)
                out += [(BRANCHES[code % 4], conds[code // 4 % len(conds)],
                         conds[code // 16 % len(conds)], skip),
                        *run(3), skip]
            elif kind == "loop":
                top = fresh("loop")
                # Scalar ops and the count down end the body: a run the
                # fast backend fuses.
                out += [Instruction("addi", rd=LOOP_REG, imm=draw(_TRIPS)),
                        top, *items(draw, "loop", fresh, run, functions),
                        *run(3, SCALAR_MNEMONICS),
                        Instruction("addi", rd=LOOP_REG, rs=LOOP_REG,
                                    imm=-1),
                        ("bne", LOOP_REG, 0, top)]
            else:
                out.append(("jal", functions[draw(_INDEX) % len(functions)]))
        if shared and where != "function":
            data = draw(_ACCESS_BYTES)
            for at, how in zip(data[::2], data[1::2]):
                out.insert(at % (len(out) + 1), Instruction(
                    ("lw", "sw")[how & 1],
                    rd=1 + how // 2 % (_SCALAR_REGS - 1),
                    imm=ADDRESSES[how // 16 % len(ADDRESSES)]))
        return out

    @st.composite
    def program(draw):
        names = itertools.count()
        salts = itertools.count(draw(_INDEX), 37)

        def fresh(kind):
            return f"{kind}{next(names)}"

        def run(size, pool=mnemonics):
            return _body(pool, wild, draw(runs[size]), next(salts))

        functions = ([fresh("fn") for _ in range(1 + draw(_COIN))]
                     if control == "any" else [])
        handles = HANDLE_REGS[:draw(workers)]
        lines = [("tspawn", h, f"worker{w}") for w, h in enumerate(handles)]
        lines += _seed(draw(_SEED))
        # A spawn-free thread delivers to itself (handle s0), and only
        # under control "any": the static bound declines thread ops.
        deliver = not race_free and (handles or control == "any")
        targets = handles or (0,)
        if deliver and draw(_COIN):
            lines.append(Instruction(
                "tput", rd=targets[draw(_INDEX) % len(targets)], rs=draw(_REG),
                imm=draw(_REG)))
        lines += items(draw, "top", fresh, run, functions)
        if deliver and draw(_COIN):
            lines.append(Instruction(
                "tget", rd=draw(_REG), rs=targets[draw(_INDEX) % len(targets)],
                imm=draw(_REG)))
        lines += [Instruction("tjoin", rs=h) for h in handles
                  if race_free or draw(_QUARTER)]
        if deliver and not handles and draw(_QUARTER) == 3:
            lines += [Instruction("addi", rd=HANDLE_REGS[0], imm=1),
                      Instruction("tjoin", rs=HANDLE_REGS[0])]
        lines.append(Instruction("halt"))
        # A worker's eight seed lines outlast the other spawns, so no
        # context is freed before the last tspawn: a freed context goes to
        # another worker on some schedules, and a race-free program's
        # final state per context must not depend on the schedule.
        for w in range(len(handles)):
            lines += [f"worker{w}", *_seed(draw(_SEED)),
                      *items(draw, "top", fresh, run, functions)]
            if not race_free and draw(_COIN):
                lines.append(Instruction("tput", rs=draw(_REG),
                                         imm=draw(_REG)))
            lines.append(Instruction("texit"))
        for fn in functions:
            lines += [fn, *items(draw, "function", fresh, run, functions),
                      Instruction("jr", rs=regs.LINK_REG)]
        return _link(lines)

    return program()


# -- the machine axis ---------------------------------------------------------

def machine(variant="fine-rot", *, threads=4, pes=4, width=16,
            unitless=False, **extra):
    """One point of the axis: a ``tests/golden.py`` variant (on one
    thread, the single-threaded machine with that variant's units), or
    that variant without a multiplier and a divider."""
    overrides = dict(VARIANTS[variant], **extra)
    if threads == 1:
        overrides.update(mt_mode=MTMode.SINGLE)
    if unitless:
        overrides.update(multiplier=MultiplierKind.NONE,
                         divider=DividerKind.NONE)
    return ProcessorConfig(num_pes=pes, num_threads=threads,
                           word_width=width, **overrides)


def machines(*, variants=tuple(VARIANTS), threads=(1, 4, 8), fetch=False,
             unitless=False):
    """Small machines over the variants, thread and PE counts, widths and
    broadcast arities; ``fetch`` adds fetch-modelling machines and
    ``unitless`` machines without a multiplier and a divider."""
    return st.builds(
        machine, st.sampled_from(variants),
        threads=st.sampled_from(threads),
        pes=st.sampled_from((1, 3, 8, 16)), width=st.sampled_from((8, 16)),
        broadcast_arity=st.sampled_from((2, 4)),
        model_fetch=st.sampled_from((False, False, False, fetch)),
        unitless=st.sampled_from((False, False, False, unitless)),
        lmem_words=st.just(16), scalar_mem_words=st.just(64))


#: Fine and coarse multithreading under both schedulers.
MODE_GRID = [machine(v) for v in
             ("fine-rot", "fine-fixed", "coarse-rot", "coarse-fixed")]
MODE_IDS = [f"{cfg.mt_mode.value}-{cfg.scheduler.value}"
            for cfg in MODE_GRID]


# -- outside documents --------------------------------------------------------

#: Any character but a surrogate, a third of them ASCII.  Drawn as code
#: points: ``st.text()``'s own alphabet builds a unicode table on first
#: use, about 2 s in a fresh checkout.
CHARACTERS = st.one_of(st.integers(0, 0x7F), st.integers(0x80, 0xD7FF),
                       st.integers(0xE000, 0x10FFFF)).map(chr)


def text(max_size):
    return st.text(CHARACTERS, max_size=max_size)


#: Any JSON value: what a field gets when it gets the wrong type.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False, allow_infinity=False) | text(8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text(6), inner, max_size=3),
    max_leaves=6)


def _field(r, fields):
    """A rule's in-range values, values at and past its bounds, and any
    JSON (wrong types and null)."""
    if r.name in fields:
        good = fields[r.name]
    elif r.enum is not None or r.choices is not None:
        good = st.sampled_from(list(r.choices or r.enum))
    elif r.type in (int, float):
        edges = [bound + step for bound in (r.lo, r.hi) if bound is not None
                 for step in (-1, 0, 1)]
        good = (st.integers(r.lo, r.hi) if r.type is int else
                st.floats(r.lo, r.hi, allow_nan=False, allow_infinity=False))
        good |= st.sampled_from(edges) if edges else st.nothing()
    elif r.type is bool:
        good = st.booleans()
    elif r.type is str:
        good = text(12)
    elif r.item is not None:
        good = st.lists(_field(r.item, {}), max_size=3)
    elif dataclasses.is_dataclass(r.type):
        good = documents(r.type)
    else:
        good = JSON
    return st.one_of(good, good, JSON)


def documents(cls, **fields):
    """JSON documents for ``cls``, from its rule table
    (:func:`repro.util.fields.table`): each field absent, in range, at or
    past a bound, of the wrong type or null, plus unknown fields and
    non-objects.  ``fields`` gives a field's in-range values where its
    rule has no structure (a dict of axes, a device name)."""
    rules = table(cls).rules.values()
    return st.one_of(JSON, st.fixed_dictionaries(
        {}, optional={r.name: _field(r, fields) for r in rules}
        | {"unknown": JSON}))


# -- design-space exploration -------------------------------------------------

#: Axis-value pools for sweep strategies.  Every cross-product of these
#: values is a legal ProcessorConfig (thread counts stay well below the
#: narrowest word's mask capacity), so specs drawn from them always
#: expand — the spec-validation tests build their own illegal grids.
SWEEP_AXIS_POOLS = {
    "num_pes": (1, 2, 4, 8, 16),
    "num_threads": (1, 2, 4),
    "word_width": (8, 16, 32),
    "broadcast_arity": (2, 4),
    "lmem_words": (32, 64),
}


@st.composite
def sweep_axes(draw, max_axes=3, max_values=3):
    """Valid sweep-axis dicts: 1-`max_axes` axes, each with legal values."""
    names = draw(st.lists(st.sampled_from(sorted(SWEEP_AXIS_POOLS)),
                          min_size=1, max_size=max_axes, unique=True))
    return {name: draw(st.lists(st.sampled_from(SWEEP_AXIS_POOLS[name]),
                                min_size=1, max_size=max_values,
                                unique=True))
            for name in names}


def metric_tuples(arity):
    """Finite metric tuples of fixed arity.

    NaN is excluded because Pareto dominance needs a total order per
    axis; mixed ints and modest floats exercise comparison edge cases
    (exact ties in particular).
    """
    value = st.one_of(
        st.integers(-20, 20).map(float),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                  width=32))
    return st.lists(value, min_size=arity, max_size=arity).map(tuple)


def sense_lists(arity):
    """Optimization-sense vectors matching ``metric_tuples(arity)``."""
    return st.lists(st.sampled_from(["min", "max"]),
                    min_size=arity, max_size=arity)


@st.composite
def keyed_metric_points(draw, arity, max_points=10):
    """``(key, metrics)`` pair lists like the frontier consumes.

    Keys are drawn from a small pool so duplicates occur; a duplicated
    key always carries the same metrics (well-formed sweeps never re-key
    a point with different numbers — and the frontier's canonical form
    is only promised for well-formed inputs).
    """
    by_key = draw(st.dictionaries(
        st.integers(0, 2 * max_points).map(lambda i: f"pt{i}"),
        metric_tuples(arity), min_size=0, max_size=max_points))
    items = [(k, by_key[k]) for k in by_key]
    extra = draw(st.lists(st.sampled_from(sorted(by_key)), max_size=5)) \
        if by_key else []
    return items + [(k, by_key[k]) for k in extra]
