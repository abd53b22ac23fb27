"""Interned programs: the process-wide memo behind ``assemble``.

The guarantees under test:

* a memo hit, a memo miss and a fresh ``Assembler`` build give equal
  programs, equal fingerprints and equal job keys (hypothesis);
* programs and instructions are immutable, so sharing one is safe;
* the memo never retains more than its budget, and a program larger
  than the whole budget runs but is not kept;
* an interned program survives pickling (pool workers receive it so);
* racing threads still share one program per source, and the counts
  add up;
* ``stats`` and ``/metrics`` count the hits and misses.
"""

import dataclasses
import json
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import (
    MEMO_BUDGET,
    PROGRAM_MEMO,
    Assembler,
    ProgramMemo,
    assemble,
)
from repro.asm.disassembler import format_instruction
from repro.asm.program import Program, SourceLine
from repro.core import ProcessorConfig
from repro.isa.instruction import Instruction
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.serve import BatchRunner, Dispatcher, PreparedJob, ResultCache
from repro.serve.identity import canonical_json, job_key, program_fingerprint
from tests.strategies import instructions


def render(body, data=()) -> str:
    """Disassembler syntax for ``body`` and a halt, after ``data``."""
    head = f".data\ntab: .word {', '.join(map(str, data))}\n.text\n" \
        if data else ""
    return head + "".join(format_instruction(i) + "\n" for i in body) \
        + "halt\n"


def reference_fingerprint(program: Program) -> dict:
    """The fingerprint as computed before programs were interned."""
    return {"words": [instr.encode() for instr in program.instructions],
            "data": [int(w) for w in program.data],
            "entry": program.entry}


def key_of(program: Program, width: int) -> str:
    return job_key(PreparedJob(name="p", key="", program=program,
                               config=ProcessorConfig(word_width=width)))


def nops(count: int, tag: str) -> str:
    return f"# {tag}\n" + "nop\n" * (count - 1) + "halt\n"


class TestInterning:
    @settings(max_examples=60, deadline=None)
    @given(body=st.lists(instructions(), min_size=0, max_size=10),
           data=st.lists(st.integers(0, 255), max_size=4),
           width=st.sampled_from([8, 16, 32]))
    def test_hit_miss_and_fresh_build_agree(self, body, data, width):
        source = render(body, data)
        memo = ProgramMemo()
        miss = memo.assemble(source, width)
        hit = memo.assemble(source, width)
        fresh = Assembler(word_width=width).assemble(source)
        assert (memo.misses, memo.hits) == (1, 1)
        assert hit is miss
        assert hit == fresh
        assert hit.instructions == (*body, Instruction("halt"))
        assert hit.data == tuple(data)
        assert canonical_json(program_fingerprint(hit)) \
            == canonical_json(program_fingerprint(fresh)) \
            == canonical_json(reference_fingerprint(fresh))
        assert key_of(miss, width) == key_of(hit, width) \
            == key_of(fresh, width)
        shared = assemble(source, word_width=width)
        assert shared == fresh and assemble(source, width) is shared

    def test_word_width_is_part_of_the_key(self):
        source = "li s1, 70000\nhalt\n"
        wide = assemble(source, word_width=32)
        assert len(wide) == 3            # lui + ori + halt
        with pytest.raises(ValueError, match="not representable"):
            assemble(source, word_width=16)

    def test_kernel_jobs_share_one_program(self):
        build = ALL_KERNEL_BUILDERS["vector_mac"]
        first, second = (assemble(build(16, seed=seed).source, 16)
                         for seed in (1, 2))
        assert first is second


class TestImmutability:
    def program(self) -> Program:
        return assemble(".data\ntab: .word 1, 2\n.text\n"
                        "main: lw s1, 0(s0)\nhalt\n", word_width=16)

    def test_no_program_or_instruction_field_can_be_assigned(self):
        program = self.program()
        program.fingerprint                          # cached on first use
        for obj in (program, program.instructions[0],
                    program.source_map[0]):
            names = [f.name for f in dataclasses.fields(obj)]
            if isinstance(obj, Program):
                names.append("fingerprint")
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))

    def test_sequences_are_tuples(self):
        program = self.program()
        assert isinstance(program.instructions, tuple)
        assert program.data == (1, 2)
        built = Program(instructions=list(program.instructions),
                        data=[1, 2])
        assert isinstance(built.instructions, tuple)
        assert built.data == (1, 2)
        assert program.instructions[0].src_regs() == (("s", 0),)

    def test_fingerprint_is_not_part_of_equality(self):
        program = self.program()
        fresh = Assembler(word_width=16).assemble(
            ".data\ntab: .word 1, 2\n.text\nmain: lw s1, 0(s0)\nhalt\n")
        program.fingerprint
        assert "fingerprint" not in fresh.__dict__
        assert program == fresh
        assert SourceLine(1, "x") == SourceLine(1, "x")

    @pytest.mark.parametrize("protocol",
                             range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_interned_program_survives_pickle(self, protocol):
        kern = ALL_KERNEL_BUILDERS["histogram"](16)
        program = assemble(kern.source, word_width=kern.word_width)
        fingerprint = program.fingerprint
        copy = pickle.loads(pickle.dumps(program, protocol=protocol))
        assert copy == program and copy is not program
        assert copy.fingerprint == fingerprint
        assert [i.dest_reg() for i in copy.instructions] \
            == [i.dest_reg() for i in program.instructions]
        assert [i.src_regs() for i in copy.instructions] \
            == [i.src_regs() for i in program.instructions]
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.instructions[0].rd = 1


class TestBudget:
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=30))
    def test_retained_instructions_never_exceed_the_budget(self, sizes):
        memo = ProgramMemo(budget=100)
        for i, size in enumerate(sizes):
            program = memo.assemble(nops(size, str(i)), 8)
            assert len(program) == size
            assert memo.instructions <= memo.budget
            stats = memo.stats()
            assert stats["instructions"] == memo.instructions
            # The newest program is kept: asking again is a hit.
            hits = memo.hits
            assert memo.assemble(nops(size, str(i)), 8) is program
            assert memo.hits == hits + 1

    def test_least_recently_used_goes_first(self):
        memo = ProgramMemo(budget=30)
        a, b = (memo.assemble(nops(10, tag), 8) for tag in "ab")
        memo.assemble(nops(10, "a"), 8)              # a is now newest
        memo.assemble(nops(15, "c"), 8)              # evicts b only
        assert memo.evictions == 1
        assert memo.assemble(nops(10, "a"), 8) is a
        assert memo.assemble(nops(10, "b"), 8) is not b

    def test_over_budget_program_is_returned_not_retained(self):
        memo = ProgramMemo(budget=50)
        small = memo.assemble(nops(5, "small"), 8)
        big = memo.assemble(nops(51, "big"), 8)
        assert len(big) == 51
        assert memo.stats()["programs"] == 1 and memo.instructions == 5
        assert memo.assemble(nops(51, "big"), 8) is not big
        assert memo.assemble(nops(5, "small"), 8) is small
        assert (memo.misses, memo.hits, memo.evictions) == (3, 1, 0)

    def test_long_source_text_is_charged(self):
        memo = ProgramMemo(budget=50)
        memo.assemble("halt # " + "x" * 64 * 60 + "\n", 8)
        memo.assemble("\n" * 64 * 60, 8)             # no instructions
        assert memo.stats()["programs"] == 0

    def test_over_budget_inline_job_runs_and_is_not_retained(self):
        count = MEMO_BUDGET + 4
        source = "# over budget\n" + "addi s1, s1, 1\n" * count + "halt\n"
        session = Dispatcher(BatchRunner(ResultCache.disabled()),
                             full_results=True)
        before = PROGRAM_MEMO.stats()
        reply = session.handle_line(json.dumps(
            {"op": "run", "job": {"source": source, "backend": "fast",
                                  "config": {"word_width": 16}}}))
        assert reply["ok"] and reply["status"] == "ok"
        assert reply["result"]["scalars"]["t0"]["s1"] == count
        after = PROGRAM_MEMO.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["instructions"] <= after["budget"] == MEMO_BUDGET
        program = assemble(source, word_width=16)
        assert len(program) == count + 1
        assert assemble(source, word_width=16) is not program


class TestThreads:
    def test_racing_threads_share_programs_and_keep_the_books(self):
        roomy, tight = ProgramMemo(budget=1000), ProgramMemo(budget=60)
        sources = [nops(7 + i, f"t{i}") for i in range(12)]
        seen: dict[str, set] = {source: set() for source in sources}
        errors: list[BaseException] = []
        calls = 150

        def worker(seed: int) -> None:
            try:
                for n in range(calls):
                    source = sources[(seed * 5 + n) % len(sources)]
                    seen[source].add(id(roomy.assemble(source, 8)))
                    tight.assemble(source, 8)
            except BaseException as exc:     # surfaced after the join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Interned even when two threads miss at once: one object each.
        assert all(len(ids) == 1 for ids in seen.values())
        for memo in (roomy, tight):
            assert memo.hits + memo.misses == 8 * calls
            held = [program for program, _ in memo._entries.values()]
            assert memo.instructions == sum(map(len, held))
            assert memo.instructions <= memo.budget
        assert tight.evictions > 0 and roomy.evictions == 0


class TestCounters:
    def test_repeated_run_is_one_miss_then_one_hit(self, fresh_key_memo):
        """The second run line is keyed from the job key memo: one
        key-memo miss, then one hit, and no second program-memo lookup."""
        session = Dispatcher()
        job = {"source": "# counted once\nmain: addi s1, s0, 7\nhalt\n"}
        line = json.dumps({"op": "run", "job": job})

        def counts():
            metrics = session.handle_line('{"op": "stats"}')["metrics"]
            return tuple(metrics[f"{memo}_{outcome}_total"]["value"]
                         for memo in ("program_memo", "job_key_memo")
                         for outcome in ("misses", "hits"))

        start = counts()
        assert session.handle_line(line)["ok"]
        first = counts()
        assert session.handle_line(line)["origin"] == "memory-cache"
        second = counts()
        assert [b - a for a, b in zip(start, first)] == [1, 0, 1, 0]
        assert [b - a for a, b in zip(first, second)] == [0, 0, 0, 1]
        text = session.registry.render_prometheus()
        keys = fresh_key_memo.stats()
        for outcome in ("hits", "misses", "evictions"):
            assert f"job_key_memo_{outcome}_total {keys[outcome]}\n" in text
        assert f"job_key_memo_entries {keys['entries']}\n" in text
        stats = PROGRAM_MEMO.stats()
        for outcome in ("hits", "misses", "evictions"):
            assert f"program_memo_{outcome}_total {stats[outcome]}\n" \
                in text
        assert f"program_memo_instructions {stats['instructions']}\n" \
            in text
        assert f"program_memo_programs {stats['programs']}\n" in text
