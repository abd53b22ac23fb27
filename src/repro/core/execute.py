"""Architectural execution semantics, compiled once per program.

The cycle core applies an instruction's *effects* at issue (timing is
the scoreboard's job, DESIGN.md Section 5).  :func:`compile_ops` turns
every pc of a loaded program into an *op*, a closure holding its
operands, masks and word width.  An op that binds no machine state
(:func:`machine_free_op`) is built once per instruction and
configuration, by the decode of :mod:`repro.core.timing`; the others
once per machine and distinct operands (:class:`OpCompiler`).  The
core, the functional and non-pipelined interpreters and the fast path's
trace call the same ops, so no issue looks a mnemonic up and the
backends cannot drift apart.

``op(thread)`` applies the effects and returns the next pc when control
transfers (taken branch, ``j``, ``jal``, ``jr``), else None; a taken
branch with offset 0 returns ``pc + 1``.  ``tspawn``'s op also takes the
issue cycle and returns the child's tid (None when no context is free).
The loops handle ``halt``, ``texit``, the ``tjoin`` gate and ``tput``'s
scoreboard entry by kind (:data:`repro.core.timing.KINDS`).

Scalar semantics are written once, in :data:`SCALAR_EXPR`; the per-pc
ops, the core's issue steps for scalar writes and branches, and the fast
path's fused runs and one-block self-loops (:func:`fuse_scalar_runs`)
are all generated from it.  On a healthy machine the hot parallel and reduction
ops are numpy kernels over register rows that write through ``out=`` or
``np.copyto(..., where=mask)``.  They rely on what such a machine
guarantees: p0 reads 0, f0 reads 1, registers hold W-bit values (s14
after ``jal`` holds a 32-bit link, so scalar operands are masked).  A
dead PE breaks that, so with a fault plane attached every parallel and
reduction op calls the reference units (``INT_OPS``, ``CMP_OPS``,
``REDUCTION_FNS``) through the plane's hooks: the parity-checked read,
``filter_broadcast``, ``reduction_mask``/``filter_reduction_value`` and
the fault-masked ``PEArray.write_reg``.  With a race sanitizer attached,
``lw``, ``sw``, ``tput`` and ``tget`` emit its events.  Hooks are bound
when compiling: a machine without them pays nothing.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable
from repro.isa import registers
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ExecClass
from repro.network import reduction as red
from repro.pe.alu import CMP_OPS, INT_OPS
from repro.pe.pe_array import PEArray
from repro.util.bitops import mask_for_width, saturate_signed, to_unsigned

if TYPE_CHECKING:
    from repro.asm.program import Program
    from repro.core.memory import ScalarMemory


class ExecutionError(RuntimeError):
    """An instruction the compiler has no semantics for."""


#: ``op(thread)``, or ``op(thread, cycle)`` for ``tspawn`` (see above).
Op = Callable[..., "int | None"]

# The control unit's PC/address path is wider than the data path.
_PC_MASK = 0xFFFFFFFF

# -- scalar semantics ----------------------------------------------------------

#: Every scalar operation, as a Python expression over the operands
#: ``{a}`` and ``{b}`` (ints; ``{a}`` may be a 32-bit link) with
#: ``{M}`` = 2**W - 1 and ``{H}`` = 2**(W-1): the W-bit result of a base
#: ALU op or ``lui``, or a branch condition.  Shift counts clamp to
#: ``min(b & 63, 31)`` as in :mod:`repro.pe.alu`.
SCALAR_EXPR: dict[str, str] = {
    "add": "({a} + {b}) & {M}",
    "sub": "({a} - {b}) & {M}",
    "and": "{a} & {b} & {M}",
    "or": "({a} | {b}) & {M}",
    "xor": "({a} ^ {b}) & {M}",
    "nor": "~({a} | {b}) & {M}",
    "sll": "(({a} & {M}) << min({b} & 63, 31)) & {M}",
    "srl": "({a} & {M}) >> min({b} & 63, 31)",
    "sra": "(((({a} & {M}) ^ {H}) - {H}) >> min({b} & 63, 31)) & {M}",
    "mul": "({a} & {M}) * ({b} & {M}) & {M}",
    "div": "_div({a}, {b}, {M}, {H})",
    "slt": "(1 if (({a} & {M}) ^ {H}) < (({b} & {M}) ^ {H}) else 0)",
    "sltu": "(1 if ({a} & {M}) < ({b} & {M}) else 0)",
    "lui": "({b} << 16) & {M}",
    # beq/bne compare words unsigned, blt/bge two's-complement.
    "beq": "not ({a} - {b}) & {M}",
    "bne": "({a} - {b}) & {M}",
    "blt": "(({a} & {M}) ^ {H}) < (({b} & {M}) ^ {H})",
    "bge": "(({a} & {M}) ^ {H}) >= (({b} & {M}) ^ {H})",
}


def _div(a: int, b: int, M: int, H: int) -> int:
    """Signed W-bit division truncating toward zero; x / 0 is all ones."""
    sa, sb = ((a & M) ^ H) - H, ((b & M) ^ H) - H
    if not sb:
        return M
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & M


# Scalar mnemonic -> (base op, operand-B source: "rt" | "imm").
_SCALAR_INT = {
    **{m: (m, "rt") for m in ("add", "sub", "and", "or", "xor", "nor", "sll",
                              "srl", "sra", "slt", "sltu")},
    "smul": ("mul", "rt"), "sdiv": ("div", "rt"), "sltiu": ("sltu", "imm"),
    **{m + "i": (m, "imm") for m in ("add", "and", "or", "xor", "slt", "sll",
                                     "srl", "sra")},
}
# Every op that writes SCALAR_EXPR(s[rs], s[rt] | imm) to s[rd].
_SCALAR_WRITES = {**_SCALAR_INT, "lui": ("lui", "imm")}
_BRANCHES = ("beq", "bne", "blt", "bge")
#: The mnemonics whose op binds no machine state (:func:`machine_free_op`).
MACHINE_FREE = frozenset((*_SCALAR_WRITES, *_BRANCHES, "halt", "tjoin",
                          "texit", "j", "jal", "jr"))

# Op factories per operand form: parameters, body, then the text of
# operands a and b.  "br" returns T when the condition holds.
_FORMS = {
    "rt": ("rd, rs, rt", "s[rd] = {}", "s[rs]", "s[rt]"),
    "imm": ("rd, rs, b", "s[rd] = {}", "s[rs]", "b"),
    "br": ("ra, rb, T", "return T if {} else None", "s[ra]", "s[rb]"),
}
_FACTORY = """\
def make({}, M, H):
    def op(t):
        s = t.sregs
        {}
    return op
"""


@functools.cache
def _factory(name: str, form: str) -> Callable[..., Op]:
    """``make(x, y, z, M, H) -> op`` for one :data:`SCALAR_EXPR` entry,
    generated from its text once per process (only the table's own
    strings reach the generated source)."""
    params, body, a, b = _FORMS[form]
    expr = SCALAR_EXPR[name].format(a=a, b=b, M="M", H="H")
    namespace: dict[str, Any] = {"_div": _div}
    exec(_FACTORY.format(params, body.format(expr)), namespace)
    maker: Callable[..., Op] = namespace["make"]
    return maker


def scalar_text(ins: Instruction) -> str:
    """The :data:`SCALAR_EXPR` text of a scalar write or branch over its
    factory's operand names (:data:`_FORMS`), ``M`` and ``H``."""
    m = ins.mnemonic
    name, form = (m, "br") if m in _BRANCHES else _SCALAR_WRITES[m]
    _params, _body, a, b = _FORMS[form]
    return SCALAR_EXPR[name].format(a=a, b=b, M="M", H="H")


def _nop(t: ThreadContext) -> None:
    return None


def _texit(t: ThreadContext) -> None:
    t.state = ThreadState.EXITED


def machine_free_op(pc: int, ins: Instruction, width: int) -> Op | None:
    """The op of an instruction that binds no machine state (scalar
    writes, branches, jumps, ``texit``, ``halt`` and ``tjoin``, which the
    loops gate), else None; the decode builds one per instruction."""
    m, M, H = ins.mnemonic, mask_for_width(width), 1 << (width - 1)
    if m in _SCALAR_WRITES:
        if not ins.rd:
            return _nop
        name, bsrc = _SCALAR_WRITES[m]
        return _factory(name, bsrc)(
            ins.rd, ins.rs, ins.rt if bsrc == "rt" else ins.imm, M, H)
    if m in _BRANCHES:
        return _factory(m, "br")(ins.rd, ins.rs, pc + 1 + ins.imm, M, H)
    if m in ("halt", "tjoin"):
        return _nop
    if m == "texit":
        return _texit
    target, rs = ins.target, ins.rs
    if m == "j":
        return lambda t: target
    if m == "jr":
        return lambda t: t.sregs[rs]
    if m != "jal":
        return None
    # The link is a full-width PC: the control unit's address path is
    # wider than the W-bit data path, as in the prototype.
    link = (pc + 1) & _PC_MASK

    def jal(t: ThreadContext) -> int:
        t.sregs[registers.LINK_REG] = link
        return target
    return jal


#: A one-block self-loop: a run closed by a branch back to its start.
#: ``full`` iterations pass both budget checks; a last one may stop at
#: the check before the branch.
_SELF_LOOP = """\
def run_%(start)d(t, events, steps, max_steps):
    s = t.sregs
    full = max(0, (max_steps - steps - %(length)d) // %(period)d + 1)
    for i in range(full):
%(body)s
        if not (%(cond)s):
            events += [1] * i
            events.append(0)
            return %(end)d + 1, steps + (i + 1) * %(period)d
    events += [1] * full
    steps += full * %(period)d
    if steps > max_steps:
        return %(start)d, steps
%(tail)s
    return %(end)d, steps + %(length)d
"""


def fuse_scalar_runs(program: "Program", width: int,
                     self_loops: bool = False,
                     ) -> list[tuple[Callable[..., Any], int] | None]:
    """Each straight-line run of scalar register writes in a loop as one
    function.

    Entry ``pc`` is ``(run, length)`` where a run of two or more starts,
    else None; ``run(thread)`` has the effect of the run's per-pc ops.
    Runs break at branch and jump targets (a ``jr`` landing mid-run
    takes the per-pc ops).  Only runs inside a backward branch or jump
    are fused: generating a function costs about a hundred runs of it.
    With ``self_loops``, entry ``pc`` is where a run of one or more is
    closed by a branch back to ``pc``: ``run(thread, events, steps,
    max_steps)`` iterates the run and its branch, appending each outcome
    (1 taken) with the per-pc path's step counts and budget checks, and
    returns the next pc and step count.  Only the :data:`SCALAR_EXPR`
    text and integers formatted with ``%d`` reach the generated source.
    """
    M, H = mask_for_width(width), 1 << (width - 1)
    instrs = program.instructions
    targets = {program.entry}
    loops = []
    for pc, ins in enumerate(instrs):
        target = (pc + 1 + ins.imm if ins.mnemonic in _BRANCHES else
                  ins.target if ins.mnemonic in ("j", "jal") else None)
        if target is not None:
            targets.add(target)
            if target <= pc:
                loops.append((target, pc))
    fused: list[tuple[Callable[..., Any], int] | None] = (
        [None] * len(instrs))
    starts: list[tuple[int, int]] = []
    source: list[str] = []
    start = 0
    while start < len(instrs):
        end = start
        while (end < len(instrs) and instrs[end].mnemonic in _SCALAR_WRITES
               and (end == start or end not in targets)):
            end += 1
        if self_loops:      # closed by a branch (not a jump) to its start
            keep = (end > start and (start, end) in loops
                    and instrs[end].mnemonic in _BRANCHES)
        else:
            keep = end - start > 1 and any(lo <= start and end <= hi
                                           for lo, hi in loops)
        if keep:
            indent = " " * (8 if self_loops else 4)
            body = []
            for ins in instrs[start:end]:
                name, bsrc = _SCALAR_WRITES[ins.mnemonic]
                b = "s[%d]" % ins.rt if bsrc == "rt" else "(%d)" % ins.imm
                if ins.rd:
                    body.append("%ss[%d] = %s" % (indent, ins.rd, SCALAR_EXPR[
                        name].format(a="s[%d]" % ins.rs, b=b, M="%d" % M,
                                     H="%d" % H)))
            text = "\n".join(body) or indent + "pass"
            starts.append((start, end - start))
            if self_loops:
                branch = instrs[end]
                cond = SCALAR_EXPR[branch.mnemonic].format(
                    a="s[%d]" % branch.rd, b="s[%d]" % branch.rs,
                    M="%d" % M, H="%d" % H)
                source.append(_SELF_LOOP % {
                    "start": start, "end": end, "length": end - start,
                    "period": end - start + 1, "body": text, "cond": cond,
                    "tail": "\n".join(line[4:] for line in text.split("\n"))})
            else:
                source.append("def run_%d(t):\n    s = t.sregs\n%s\n"
                              % (start, text))
        start = max(end, start + 1)
    namespace: dict[str, Any] = {"_div": _div}
    if source:
        exec("".join(source), namespace)
    for start, length in starts:
        fused[start] = (namespace["run_%d" % start], length)
    return fused


# -- parallel and reduction kernels (healthy machines) -------------------------
#
# ``kernel(a, b, out, M, H)`` writes op(a, b) into ``out``, which may be
# ``a`` or ``b``; ``a`` is a W-bit row, ``b`` a W-bit row or scalar.

def _wrapping(ufunc: np.ufunc) -> Callable[..., None]:
    def kernel(a: Any, b: Any, out: np.ndarray, M: int, H: int) -> None:
        ufunc(a, b, out=out)
        np.bitwise_and(out, M, out=out)
    return kernel


def _plain(ufunc: np.ufunc) -> Callable[..., None]:
    def kernel(a: Any, b: Any, out: np.ndarray, M: int, H: int) -> None:
        ufunc(a, b, out=out)
    return kernel


def _signed(ufunc: np.ufunc) -> Callable[..., None]:
    # Flipping the sign bit maps two's-complement order onto unsigned.
    def kernel(a: Any, b: Any, out: np.ndarray, M: int, H: int) -> None:
        ufunc(np.bitwise_xor(a, H), b ^ H, out=out)
    return kernel


_KERNELS: dict[str, Callable[..., None]] = {
    "add": _wrapping(np.add), "sub": _wrapping(np.subtract),
    "mul": _wrapping(np.multiply), "and": _plain(np.bitwise_and),
    "or": _plain(np.bitwise_or), "xor": _plain(np.bitwise_xor),
    "slt": _signed(np.less), "sltu": _plain(np.less),
    "ceq": _plain(np.equal), "cne": _plain(np.not_equal),
    "clt": _signed(np.less), "cle": _signed(np.less_equal),
    "cltu": _plain(np.less), "cleu": _plain(np.less_equal),
}

# Flag ops as one ufunc of (f[rs], f[rt]) or of (f[rs], a constant).
_FLAG_UFUNCS: dict[str, tuple[np.ufunc, bool | None]] = {
    "fand": (np.logical_and, None), "for": (np.logical_or, None),
    "fxor": (np.logical_xor, None), "fandn": (np.greater, None),
    "fnot": (np.logical_xor, True), "fmov": (np.logical_and, True),
    "fset": (np.logical_or, True), "fclr": (np.logical_and, False),
}

# Reduction mnemonic -> (fold(row, mask, M, H) -> W-bit int, source file).
# Signed max/min fold in sign-flipped space, whose identities 0 and M
# flip back to the most negative and most positive words.
_FOLDS: dict[str, tuple[Callable[..., int], str]] = {
    "rand": (lambda v, m, M, H: int(
        np.bitwise_and.reduce(v, where=m, initial=M)), "p"),
    "ror": (lambda v, m, M, H: int(
        np.bitwise_or.reduce(v, where=m, initial=0)), "p"),
    "rmaxu": (lambda v, m, M, H: int(
        np.maximum.reduce(v, where=m, initial=0)), "p"),
    "rminu": (lambda v, m, M, H: int(
        np.minimum.reduce(v, where=m, initial=M)), "p"),
    "rmax": (lambda v, m, M, H: int(
        np.maximum.reduce(v ^ H, where=m, initial=0)) ^ H, "p"),
    "rmin": (lambda v, m, M, H: int(
        np.minimum.reduce(v ^ H, where=m, initial=M)) ^ H, "p"),
    "rsum": (lambda v, m, M, H: saturate_signed(int(np.add.reduce(
        (v ^ H) - H, where=m, initial=0)), M.bit_length()), "p"),
    "rcount": (lambda f, m, M, H: int(np.count_nonzero(f & m)) & M, "f"),
    "rany": (lambda f, m, M, H: 1 if (f & m).any() else 0, "f"),
}
_FOLDS["rget"] = _FOLDS["ror"]

# Parallel mnemonic -> (base op, B-source) where B-source is
# "pt" (parallel reg), "st" (broadcast scalar reg) or "imm" (broadcast).
_PARALLEL_INT = {
    **{f"p{base}{suffix}": (base, bsrc)
       for base in ("add", "sub", "and", "or", "xor", "nor", "sll", "srl",
                    "sra", "mul", "div")
       for suffix, bsrc in (("", "pt"), ("s", "st"))},
    **{f"p{base}i": (base, "imm")
       for base in ("add", "and", "or", "xor", "sll", "srl", "sra")},
}
_PARALLEL_CMP = {
    **{f"p{base}{suffix}": (base, bsrc)
       for base in ("ceq", "cne", "clt", "cle", "cltu", "cleu")
       for suffix, bsrc in (("", "pt"), ("s", "st"))},
    **{f"p{base}i": (base, "imm") for base in ("ceq", "cne", "clt", "cle")},
}

# Healthy-machine row ops: mnemonic -> (kernel, B-source, reads flag
# rows, writes a flag row); a flag op's B is f[rt] or its constant.
# The rarely hot nor, shifts and divide take the reference path.
_ROW_OPS: dict[str, tuple[Callable[..., None], str, bool, bool]] = {
    **{m: (_KERNELS[base], bsrc, False, False)
       for m, (base, bsrc) in _PARALLEL_INT.items() if base in _KERNELS},
    **{m: (_KERNELS[base], bsrc, False, True)
       for m, (base, bsrc) in _PARALLEL_CMP.items()},
    **{m: (_plain(ufunc), "pt" if const is None else "const", True, True)
       for m, (ufunc, const) in _FLAG_UFUNCS.items()},
}


# -- the compiler ----------------------------------------------------------------

#: Compiled ops one machine keeps, keyed on an instruction's operands; the
#: least recently used is dropped first.  An op is a closure over its
#: operands and the machine's units, 0.6-1.2 KB with its cells, so a full
#: memo holds about 0.5 MiB.
OP_MEMO_ENTRIES = 512


def compile_ops(program: "Program", pe: PEArray, mem: "ScalarMemory",
                threads: ThreadStatusTable, faults: Any = None,
                sanitizer: Any = None, model: Any = None) -> list[Op]:
    """The op of every pc of ``program`` on one machine (module
    docstring), from a one-off :class:`OpCompiler`; ``faults`` is a
    :class:`repro.faults.FaultPlane` and ``sanitizer`` a
    :class:`repro.core.sanitizer.RaceSanitizer`, or None."""
    return OpCompiler(pe, mem, threads, faults, sanitizer).ops(program, model)


class OpCompiler:
    """Builds one machine's ops and keeps them.

    A machine that runs program after program holds one compiler: its
    bounded memo maps an instruction's operands to the op compiled for
    them, so :meth:`ops` builds only the instructions this machine has
    not seen.  The ops bind the machine's PE array, memory and thread
    table, which a reset clears in place, and its hooks.
    """

    def __init__(self, pe: PEArray, mem: "ScalarMemory",
                 threads: ThreadStatusTable, faults: Any = None,
                 sanitizer: Any = None) -> None:
        self.pe, self.mem, self.threads = pe, mem, threads
        self.faults, self.sanitizer = faults, sanitizer
        self.width = pe.word_width
        self.M = mask_for_width(self.width)
        self.H = 1 << (self.width - 1)
        # Scratch rows (ops run one at a time) and, per thread, lists of
        # register and flag row views, made on its first parallel op: a
        # list index costs a sixth of slicing ``regs[tid, r]``.
        self.tmp = np.empty(pe.num_pes, np.int64)
        self.ftmp = np.empty(pe.num_pes, bool)
        self.rows: list[tuple[list[np.ndarray], list[np.ndarray]] | None] = (
            [None] * pe.num_threads)
        self.memo: OrderedDict[tuple[Any, ...], Op] = OrderedDict()

    def ops(self, program: "Program", model: Any = None) -> list[Op]:
        """The op of every pc of ``program``.  With the program's
        :class:`repro.core.timing.TimingModel` as ``model``, the ops that
        bind no machine state are its entries'."""
        memo = self.memo
        # A sanitizer's events name the pc.
        located = self.sanitizer is not None
        out: list[Op] = []
        for pc, ins in enumerate(program.instructions):
            if ins.mnemonic in MACHINE_FREE:
                out.append(model.entry(pc).op if model is not None else
                           machine_free_op(pc, ins, self.width))
                continue
            key = (ins.mnemonic, ins.rd, ins.rs, ins.rt, ins.mf, ins.imm,
                   ins.target, pc if located else None)
            op = memo.get(key)
            if op is None:
                op = memo[key] = self.op(pc, ins)
                if len(memo) > OP_MEMO_ENTRIES:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
            out.append(op)
        return out

    def thread_rows(self, tid: int,
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        regs, flags = self.pe.thread_planes(tid)
        rows = self.rows[tid] = (list(regs), list(flags))
        return rows

    def op(self, pc: int, ins: Instruction) -> Op:
        """The op of an instruction that binds machine state."""
        if self.faults is None and (ins.mnemonic in _ROW_OPS
                                    or ins.mnemonic in _FOLDS):
            return self.healthy(ins)
        if ins.spec.exec_class is ExecClass.SCALAR:
            return self.scalar(pc, ins)
        return self.reference(ins)

    def scalar(self, pc: int, ins: Instruction) -> Op:
        """Memory and thread ops."""
        m, rd, rs, imm, M = ins.mnemonic, ins.rd, ins.rs, ins.imm, self.M
        threads, san = self.threads, self.sanitizer
        n = len(threads.contexts)
        if m == "tspawn":
            def tspawn(t: ThreadContext, cycle: int) -> int | None:
                # The child becomes fetchable the cycle after the spawn.
                tid = threads.allocate(imm, start_cycle=cycle + 1)
                t.write_sreg(rd, M if tid is None else tid, M)
                return tid
            return tspawn
        op: Callable[[ThreadContext], None]
        if m == "lw":
            load = self.mem.load

            def op(t: ThreadContext) -> None:
                t.write_sreg(rd, load(t.sregs[rs] + imm), M)
        elif m == "sw":
            store = self.mem.store

            def op(t: ThreadContext) -> None:
                store(t.sregs[rs] + imm, t.sregs[rd])
        elif m == "tput":
            def op(t: ThreadContext) -> None:
                threads[t.sregs[rd] % n].write_sreg(imm, t.sregs[rs], M)
        elif m == "tget":
            def op(t: ThreadContext) -> None:
                t.write_sreg(rd, threads[t.sregs[rs] % n].read_sreg(imm), M)
        else:
            raise ExecutionError(f"unimplemented scalar mnemonic {m!r}")
        if san is None:
            return op
        # The sanitizer sees the resolved address or thread before the
        # access happens.
        if m in ("lw", "sw"):
            on_access = san.on_load if m == "lw" else san.on_store

            def evented(t: ThreadContext) -> None:
                on_access(t.tid, t.sregs[rs] + imm, pc)
                op(t)
        else:
            on_delivery = san.on_tput if m == "tput" else san.on_tget
            handle = rd if m == "tput" else rs

            def evented(t: ThreadContext) -> None:
                on_delivery(t.tid, t.sregs[handle] % n, imm, pc)
                op(t)
        return evented

    def healthy(self, ins: Instruction) -> Op:
        """The hot parallel and reduction ops of a machine without a
        fault plane: kernels over register rows."""
        m, rd, rs, rt, mf = ins.mnemonic, ins.rd, ins.rs, ins.rt, ins.mf
        M, H = self.M, self.H
        rows, thread_rows, copyto = self.rows, self.thread_rows, np.copyto
        if not rd:              # writes to p0, f0 and s0 are dropped
            return _nop
        if m in _FOLDS:
            fold, src = _FOLDS[m]
            flag_src = src == "f"

            def reduce(t: ThreadContext) -> None:
                regs, flags = rows[t.tid] or thread_rows(t.tid)
                t.sregs[rd] = fold((flags if flag_src else regs)[rs],
                                   flags[mf], M, H)
            return reduce
        kernel, bsrc, flag_src, flag_dest = _ROW_OPS[m]
        const: Any = (_FLAG_UFUNCS[m][1] if flag_src else
                      np.int64(ins.imm & M) if bsrc == "imm" else None)
        pt, st = bsrc == "pt", bsrc == "st"
        out = self.ftmp if flag_dest else self.tmp

        def alu(t: ThreadContext) -> None:
            regs, flags = rows[t.tid] or thread_rows(t.tid)
            src = flags if flag_src else regs
            b = src[rt] if pt else (t.sregs[rt] & M if st else const)
            dest = (flags if flag_dest else regs)[rd]
            if mf:
                kernel(src[rs], b, out, M, H)
                copyto(dest, out, where=flags[mf])
            else:               # f0: every PE
                kernel(src[rs], b, dest, M, H)
        return alu

    def reference(self, ins: Instruction) -> Op:
        """Parallel and reduction ops through the reference units and,
        with a fault plane attached, its hooks, which fire in the order
        they always have: every op of a faulted machine; on a healthy
        one the memory ops, nor, shifts, divide, ``pbcast``, ``psel`` and
        ``rfirst``."""
        m, rd, rs, rt, mf = ins.mnemonic, ins.rd, ins.rs, ins.rt, ins.mf
        pe, faults, width = self.pe, self.faults, self.width
        flag, read = pe.read_flag, pe.read_reg
        if faults is None:
            def bcast(value: int) -> np.ndarray:
                return np.broadcast_to(np.int64(value), (pe.num_pes,))

            def responders(mask: np.ndarray) -> np.ndarray:
                return mask
        else:
            if faults.parity:
                read = self.checked_read

            def bcast(value: int) -> np.ndarray:
                # A scalar or immediate crossing the broadcast tree.
                return faults.filter_broadcast(
                    np.broadcast_to(np.int64(value), (pe.num_pes,)))

            def responders(mask: np.ndarray) -> np.ndarray:
                # Dead links and masked-out PEs leave the responder set.
                cut: np.ndarray = faults.reduction_mask(mask)
                return cut

        if m == "rfirst":
            def rfirst(t: ThreadContext) -> None:
                mask = responders(flag(t.tid, mf))
                pe.write_flag(t.tid, rd, red.resolve_first(
                    flag(t.tid, rs), mask), mask)
            return rfirst
        if ins.spec.exec_class is ExecClass.REDUCTION:
            count = (red.count_responders if m == "rcount"
                     else red.any_responders)
            fn = red.REDUCTION_FNS.get(m, (None,))[0]

            def reduce(t: ThreadContext) -> None:
                mask = responders(flag(t.tid, mf))
                value = (int(fn(read(t.tid, rs), mask, width)) if fn
                         else count(flag(t.tid, rs), mask))
                t.write_sreg(rd, faults.filter_reduction_value(value),
                             self.M)
            return reduce
        if m == "psw":
            def psw(t: ThreadContext) -> None:
                mask = flag(t.tid, mf)
                pe.store(read(t.tid, rs) + ins.imm, read(t.tid, rd), mask)
            return psw
        imm = to_unsigned(ins.imm, width)
        value: Callable[[ThreadContext], np.ndarray]
        write = pe.write_reg
        if m in _PARALLEL_INT or m in _PARALLEL_CMP:
            cmp = m in _PARALLEL_CMP
            base, bsrc = (_PARALLEL_CMP if cmp else _PARALLEL_INT)[m]
            unit = (CMP_OPS if cmp else INT_OPS)[base]
            write = pe.write_flag if cmp else write

            def value(t: ThreadContext) -> np.ndarray:
                a = read(t.tid, rs)
                b = (read(t.tid, rt) if bsrc == "pt" else
                     bcast(t.read_sreg(rt) if bsrc == "st" else imm))
                return unit(a, b, width)
        elif m in _FLAG_UFUNCS:
            ufunc, const = _FLAG_UFUNCS[m]
            write = pe.write_flag

            def value(t: ThreadContext) -> np.ndarray:
                b = flag(t.tid, rt) if const is None else const
                return np.asarray(ufunc(flag(t.tid, rs), b))
        elif m == "pbcast":
            def value(t: ThreadContext) -> np.ndarray:
                return bcast(t.read_sreg(rs))
        elif m == "psel":
            def value(t: ThreadContext) -> np.ndarray:
                return np.where(flag(t.tid, mf), read(t.tid, rs),
                                read(t.tid, rt))
        elif m == "plw":
            def value(t: ThreadContext) -> np.ndarray:
                return pe.load(read(t.tid, rs) + ins.imm, flag(t.tid, mf))
        else:
            raise ExecutionError(f"unimplemented mnemonic {m!r}")
        every = np.ones(pe.num_pes, dtype=bool) if m == "psel" else None

        def op(t: ThreadContext) -> None:
            write(t.tid, rd, value(t),
                  flag(t.tid, mf) if every is None else every)
        return op

    def checked_read(self, tid: int, reg: int) -> np.ndarray:
        """A parallel-register read with a parity check at the read port."""
        values = self.pe.read_reg(tid, reg)
        if reg != registers.ZERO_REG:
            bad = self.pe.parity_mismatch(tid, reg)
            if bad.any():
                self.faults.record_parity_alarm(tid, reg,
                                                np.flatnonzero(bad))
        return values
