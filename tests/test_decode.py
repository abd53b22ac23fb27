"""The decode memo, the compiled issue steps and the fast path's
generated self-loops.

Each instruction is decoded once per configuration into a timing entry,
its machine-free op and its compiled step (``repro.core.timing``); the
fast backend runs a one-block scalar self-loop as one generated function
(``repro.core.execute.fuse_scalar_runs(..., self_loops=True)``).
"""

import dataclasses
import sys
import threading
from collections import OrderedDict

from hypothesis import given, strategies as st

from repro.asm import Assembler
from repro.asm.program import Program
from repro.assoc import fastpath
from repro.assoc.fastpath import FastMachine
from repro.core import Processor, ProcessorConfig, timing
from repro.core.processor import SimTimeout
from repro.isa.instruction import Instruction
from tests.strategies import (
    BODY_REGS,
    BRANCHES,
    LOOP_REG,
    SCALAR_MNEMONICS,
    decode,
    instructions,
    machines,
    programs,
)

CFG = ProcessorConfig(num_pes=16, num_threads=2, word_width=16)

LOOP = """.text
main:
    li    s1, 12
    li    s5, 3
loop:
    addi  s2, s2, 5
    xor   s3, s3, s2
    slt   s4, s3, s2
    addi  s1, s1, -1
    bne   s1, s0, loop
count:
    addi  s5, s5, -1
    bne   s5, s0, count
    halt
"""


def _fresh(source, cfg=CFG):
    """A program no memo has seen: assembled anew, not interned."""
    return Assembler(cfg.word_width).assemble(source)


def _empty_memo(monkeypatch):
    monkeypatch.setattr(timing, "_decoded", OrderedDict())
    return timing._decoded


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


# -- the decode memo --------------------------------------------------------------

def test_memo_holds_its_cap_and_drops_the_least_recently_used(monkeypatch):
    memo = _empty_memo(monkeypatch)
    monkeypatch.setattr(timing, "DECODE_MEMO_ENTRIES", 3)
    a, b, c, d = (Instruction("addi", rd=1, rs=1, imm=k) for k in range(4))

    def decode(ins):
        return timing.TimingModel(Program(instructions=[ins]), CFG).entry(0)

    first = [decode(a), decode(b), decode(c)]
    assert decode(a) is first[0]        # a hit makes a the most recent
    decode(d)
    assert len(memo) == 3
    assert [key[5] for key in memo] == [2, 0, 3]    # b, the oldest, left
    assert decode(c) is first[2] and decode(b) is not first[1]


def test_memo_is_keyed_on_the_configuration_values(monkeypatch):
    memo = _empty_memo(monkeypatch)
    program = Program(instructions=[Instruction("pcle", rd=1, rs=2, rt=3)])
    other = dataclasses.replace(CFG, broadcast_arity=4)
    same = dataclasses.replace(CFG)
    entries = [timing.TimingModel(program, cfg).entry(0)
               for cfg in (CFG, other, same)]
    assert len(memo) == 2
    assert entries[0] is entries[2] and entries[0] is not entries[1]


def test_memo_keys_an_immediate_only_where_the_entry_uses_it(monkeypatch):
    """A parallel op's immediate is no timing fact: one entry serves both
    (its ``imm`` reads 0); a scalar write's op and tput's register use
    theirs."""
    _empty_memo(monkeypatch)

    def entry(ins):
        return timing.TimingModel(Program(instructions=[ins]), CFG).entry(0)

    paddi = [entry(Instruction("paddi", rd=1, rs=1, imm=k)) for k in (3, 4)]
    assert paddi[0] is paddi[1] and paddi[0].imm == 0
    for m in ("addi", "tput"):
        pair = [entry(Instruction(m, rd=1, rs=2, imm=k)) for k in (3, 4)]
        assert pair[0] is not pair[1] and [it.imm for it in pair] == [3, 4]


def test_memo_under_threads(monkeypatch):
    """Four threads decode the same programs at once, switching every
    microsecond: the memo ends with one entry per distinct instruction
    and every thread got that entry."""
    memo = _empty_memo(monkeypatch)
    sources = [LOOP.replace("12", str(n)) for n in range(8)]
    programs_ = [_fresh(source) for source in sources]
    seen, errors = [], []
    start = threading.Barrier(4)

    def work(shift):
        try:
            start.wait(timeout=60)
            for k in range(40):
                program = programs_[(k + shift) % len(programs_)]
                model = timing.TimingModel(program, CFG)
                seen.extend((ins, model.entry(pc)) for pc, ins
                            in enumerate(program.instructions))
        except Exception as exc:     # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,))
                   for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    by_entry = {id(entry) for _, entry in seen}
    assert len(memo) == len(by_entry)
    assert {id(entry) for entry in memo.values()} == by_entry


def test_a_second_program_with_the_same_instructions_builds_nothing(
        monkeypatch):
    """Its machine decodes every pc from the memo: no entry, step or
    machine-free op is built, and its Stats and issue order are a fresh
    machine's."""
    first, second = _fresh(LOOP), _fresh(LOOP + "\n.data\n    .word 7\n")
    assert first is not second and first.instructions == second.instructions
    Processor(CFG, trace=True).run(first)
    built = [_count(monkeypatch, timing, name)
             for name in ("_build", "compile_step", "machine_free_op")]
    warm = Processor(CFG, trace=True).run(second)
    assert built == [[], [], []]
    _empty_memo(monkeypatch)
    fresh = Processor(CFG, trace=True).run(second)
    assert warm.stats == fresh.stats
    assert ([(r.cycle, r.thread, r.pc) for r in warm.trace]
            == [(r.cycle, r.thread, r.pc) for r in fresh.trace])


# -- the compiled readiness ---------------------------------------------------------

def reference_ready(it, score, base, busy):
    """The readiness rule, as the core stated it before it was compiled:
    each source's result must reach its read point (RAW), the last write
    to the destination must retire (WAW) and the unit must be free; a
    later check binds only if strictly later."""
    ready, cause, binding = base, None, -1
    for key, read_off in it.srcs:
        e = score.get(key)
        if e is not None and e[0] + 1 - read_off > ready:
            ready, cause, binding = (e[0] + 1 - read_off,
                                     timing.RAW_CAUSE[e[2] * 3 + it.klass],
                                     key)
    if it.dest >= 0:
        e = score.get(it.dest)
        if e is not None and e[1] + 1 - it.wb > ready:
            ready, cause, binding = e[1] + 1 - it.wb, "waw", it.dest
    if it.unit >= 0 and busy[it.unit] > ready:
        ready, cause, binding = busy[it.unit], "structural", -1
    return ready, cause, base, it, binding


_CYCLE = st.integers(0, 40)


@given(ins=instructions(), cfg=machines(unitless=True), data=st.data())
def test_compiled_readiness_is_the_readiness_rule(ins, cfg, data):
    """Every entry's compiled readiness is the rule on random scoreboards,
    unit windows and issue bases: cycle, cause and binding register."""
    it = timing.TimingModel(Program(instructions=[ins]), cfg).entry(0)
    keys = sorted({key for key, _ in it.srcs} | {it.dest, 0, 33, 64} - {-1})
    score = data.draw(st.dictionaries(
        st.sampled_from(keys), st.tuples(_CYCLE, _CYCLE, st.integers(0, 2))))
    busy = data.draw(st.lists(_CYCLE, min_size=len(timing.UNIT_NAMES),
                              max_size=len(timing.UNIT_NAMES)))
    base = data.draw(_CYCLE)
    assert it.ready(score, base, busy) == reference_ready(it, score, base,
                                                          busy)


# -- the generated self-loop -----------------------------------------------------

def _trace(program, limit, loops=True):
    """The single-thread trace of ``program`` at step budget ``limit + 2``,
    with or without its self-loops: (events and stop, or the error it
    raised; then the registers)."""
    machine = FastMachine(CFG)
    machine.load(program)
    fold = machine._fold
    if not loops:
        fold = fold._replace(loops=[None] * len(fold.loops))
    try:
        outcome = (*machine._trace_single(fold, limit), machine.threads[0].pc)
    except Exception as exc:     # a memory fault: both paths must raise it
        outcome = repr(exc)
    return outcome, list(machine.threads[0].sregs)


def test_self_loops_are_found_with_one_or_more_writes():
    loops = fastpath.fuse_scalar_runs(_fresh(LOOP), 16, self_loops=True)
    assert [(pc, run[1]) for pc, run in enumerate(loops) if run] == [
        (2, 4), (7, 1)]


def test_self_loop_gives_the_per_pc_path_at_every_step_budget():
    """Budgets run out before, inside and after every iteration of both
    loops, so limits one below, at and one above each iteration boundary
    are among them."""
    program = _fresh(LOOP)
    for limit in range(-2, 75):
        assert _trace(program, limit) == _trace(program, limit, False), limit


@st.composite
def self_loops(draw):
    """A counter, then a body of one to six scalar writes holding its
    decrement and closed by a random branch back to the body's start."""
    body = [decode(draw(st.binary(min_size=6, max_size=6)),
                   SCALAR_MNEMONICS, BODY_REGS)
            for _ in range(draw(st.integers(0, 5)))]
    body.insert(draw(st.integers(0, len(body))),
                Instruction("addi", rd=LOOP_REG, rs=LOOP_REG, imm=-1))
    ra, rb = (draw(st.sampled_from((0, 1, 2, LOOP_REG))) for _ in range(2))
    return Program(instructions=[
        Instruction("addi", rd=LOOP_REG, rs=0, imm=draw(st.integers(1, 9))),
        *body,
        Instruction(draw(st.sampled_from(BRANCHES)), rd=ra, rs=rb,
                    imm=-len(body) - 1),
        Instruction("halt")])


@given(program=st.one_of(self_loops(), programs(spawn=False)),
       limit=st.integers(0, 120))
def test_self_loops_give_the_per_pc_path(program, limit):
    assert _trace(program, limit) == _trace(program, limit, False)


def test_watchdog_at_iteration_boundaries_matches_the_core():
    """The fast run times out exactly where the core does at one cycle
    below, at and one above the issue of each loop-closing branch."""
    program = _fresh(LOOP)
    core = Processor(CFG, trace=True)
    core.run(program)
    closing = [r.cycle for r in core.trace
               if r.instr.mnemonic == "bne"][:6]
    for boundary in closing:
        for limit in (boundary - 1, boundary, boundary + 1):
            outcomes = []
            for machine in (Processor(CFG), FastMachine(CFG)):
                try:
                    outcomes.append(machine.run(program,
                                                max_cycles=limit).stats)
                except SimTimeout as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (limit, outcomes)
