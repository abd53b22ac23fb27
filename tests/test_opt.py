"""Static scheduler tests: legality, effectiveness, semantics preservation."""

import pytest

from repro.asm import assemble
from repro.core import MTMode, ProcessorConfig, run_program
from repro.isa.instruction import Instruction
from repro.opt import (
    basic_blocks,
    build_dag,
    is_barrier,
    is_control,
    raw_edge_latency,
    schedule_block,
    schedule_program,
)
from repro.programs import ALL_KERNEL_BUILDERS, run_kernel
from repro.programs.runner import extract_outputs
from repro.core.processor import Processor


def cfg_1t(pes=64, **kw):
    return ProcessorConfig(num_pes=pes, num_threads=1,
                           mt_mode=MTMode.SINGLE, word_width=16, **kw)


class TestBasicBlocks:
    def test_straightline_single_block(self):
        prog = assemble(".text\nadd s1, s2, s3\nadd s4, s5, s6\nhalt\n")
        blocks = basic_blocks(prog)
        # one block; the trailing halt is pinned last by the DAG
        assert [(b.start, b.end) for b in blocks] == [(0, 3)]

    def test_branch_target_is_leader(self):
        prog = assemble("""
.text
    addi s1, s1, 1
top:
    addi s2, s2, 1
    bne s1, s2, top
    halt
""")
        starts = [b.start for b in basic_blocks(prog)]
        assert 1 in starts        # label 'top'
        assert 3 in starts        # after the branch

    def test_barriers_end_blocks(self):
        prog = assemble("""
.text
    addi s1, s1, 1
    tspawn s2, main
main:
    addi s3, s3, 1
    halt
""")
        starts = [b.start for b in basic_blocks(prog)]
        assert 2 in starts        # after tspawn (barrier)

    def test_blocks_cover_program_once(self):
        prog = assemble("""
.text
a:  beq s1, s2, b
    addi s1, s1, 1
b:  j a
""")
        blocks = basic_blocks(prog)
        covered = sorted(pc for b in blocks for pc in b.range)
        assert covered == list(range(len(prog.instructions)))

    def test_empty_program(self):
        prog = assemble(".text\n")
        assert basic_blocks(prog) == []

    def test_classifiers(self):
        assert is_control(Instruction("beq", rd=0, rs=0, imm=0))
        assert is_control(Instruction("halt"))
        assert not is_control(Instruction("add"))
        assert is_barrier(Instruction("tspawn", rd=1, imm=0))
        assert not is_barrier(Instruction("rmax", rd=1, rs=1))


class TestDag:
    def block(self, body):
        prog = assemble(".text\n" + body)
        return list(prog.instructions)

    def test_raw_edge(self):
        instrs = self.block("addi s1, s0, 1\nadd s2, s1, s1\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs

    def test_independent_no_edge(self):
        instrs = self.block("addi s1, s0, 1\naddi s2, s0, 2\n")
        nodes = build_dag(instrs, cfg_1t())
        assert not nodes[0].succs

    def test_war_edge(self):
        instrs = self.block("add s2, s1, s1\naddi s1, s0, 9\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs   # writer must stay after reader

    def test_waw_edge(self):
        instrs = self.block("addi s1, s0, 1\naddi s1, s0, 2\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs

    def test_mask_flag_is_dependence(self):
        instrs = self.block("pceqi f1, p1, 0\npaddi p2, p2, 1 [f1]\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs

    def test_store_load_ordering(self):
        instrs = self.block("sw s1, 0(s0)\nlw s2, 0(s0)\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs

    def test_load_store_ordering(self):
        instrs = self.block("lw s2, 0(s0)\nsw s1, 0(s0)\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 in nodes[0].succs

    def test_loads_independent(self):
        instrs = self.block("lw s1, 0(s0)\nlw s2, 1(s0)\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 not in nodes[0].succs

    def test_separate_memory_spaces_independent(self):
        instrs = self.block("sw s1, 0(s0)\npsw p1, 0(p0)\n")
        nodes = build_dag(instrs, cfg_1t())
        assert 1 not in nodes[0].succs

    def test_reduction_edge_latency(self):
        cfg = cfg_1t(pes=256)
        producer = Instruction("rmax", rd=1, rs=1)
        consumer = Instruction("add", rd=2, rs=1, rt=1)
        lat = raw_edge_latency(producer, consumer, "s", cfg)
        assert lat == cfg.broadcast_depth + cfg.reduction_depth + 1

    def test_priorities_reflect_critical_path(self):
        instrs = self.block(
            "rmax s1, p1\nadd s2, s1, s1\naddi s3, s0, 1\n")
        nodes = build_dag(instrs, cfg_1t())
        assert nodes[0].priority > nodes[2].priority


class TestScheduleBlock:
    def test_preserves_instruction_multiset(self):
        prog = assemble("""
.text
    rmaxu s2, p1
    add   s6, s6, s2
    rmaxu s3, p2
    add   s7, s7, s3
""")
        out = schedule_block(list(prog.instructions), cfg_1t(pes=256))
        assert sorted(i.encode() for i in out) == sorted(
            i.encode() for i in prog.instructions)

    def test_interleaves_independent_chains(self):
        prog = assemble("""
.text
    rmaxu s2, p1
    add   s6, s6, s2
    rmaxu s3, p2
    add   s7, s7, s3
""")
        out = schedule_block(list(prog.instructions), cfg_1t(pes=256))
        # Both reductions should come before either consumer.
        kinds = [i.mnemonic for i in out]
        assert kinds[:2] == ["rmaxu", "rmaxu"]

    def test_control_stays_last(self):
        prog = assemble("""
.text
loop:
    rmaxu s2, p1
    add   s6, s6, s2
    addi  s1, s1, -1
    bne   s1, s0, loop
""")
        blocks = basic_blocks(prog)
        body = prog.instructions[blocks[0].start:blocks[0].end]
        out = schedule_block(list(body), cfg_1t(pes=64))
        assert out[-1].mnemonic == "bne"

    def test_single_instruction_block(self):
        prog = assemble(".text\nhalt\n")
        assert schedule_block(list(prog.instructions), cfg_1t()) == \
            list(prog.instructions)


class TestScheduleProgram:
    ILP_SRC = """
.text
main:
    li s1, 6
    pli p1, 3
    pli p2, 5
loop:
    paddi p1, p1, 1
    rmaxu s2, p1
    add   s6, s6, s2
    paddi p2, p2, 1
    rmaxu s3, p2
    add   s7, s7, s3
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""

    def test_identical_results(self):
        cfg = cfg_1t(pes=256)
        prog = assemble(self.ILP_SRC, 16)
        base = run_program(prog, cfg)
        opt = run_program(schedule_program(prog, cfg), cfg)
        for r in (2, 3, 6, 7):
            assert base.scalar(r) == opt.scalar(r)

    def test_fewer_cycles_on_ilp_code(self):
        cfg = cfg_1t(pes=256)
        prog = assemble(self.ILP_SRC, 16)
        base = run_program(prog, cfg)
        opt = run_program(schedule_program(prog, cfg), cfg)
        assert opt.cycles < base.cycles * 0.8

    def test_branch_offsets_still_valid(self):
        cfg = cfg_1t(pes=64)
        prog = assemble(self.ILP_SRC, 16)
        sched = schedule_program(prog, cfg)
        assert len(sched.instructions) == len(prog.instructions)
        assert sched.symbols == prog.symbols
        # The loop still terminates and executes the same trip count.
        base = run_program(prog, cfg)
        opt = run_program(sched, cfg)
        assert base.stats.instructions == opt.stats.instructions

    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_all_kernels_survive_scheduling(self, name):
        builder = ALL_KERNEL_BUILDERS[name]
        if name == "reduction_storm":
            kernel = builder(32, total_iters=16, threads=2)
            cfg = ProcessorConfig(num_pes=32, num_threads=4, word_width=16)
        elif name == "mst_prim":
            kernel = builder(32, n=10)
            cfg = cfg_1t(pes=32)
        else:
            kernel = builder(32)
            cfg = cfg_1t(pes=32)
        prog = schedule_program(assemble(kernel.source, 16), cfg)
        proc = Processor(cfg)
        proc.load(prog)
        proc.pe.load_lmem(kernel.lmem.items())
        result = proc.run()
        measured = extract_outputs(kernel, result)
        expected = {k: (int(v) if not isinstance(v, list)
                        else [int(x) for x in v])
                    for k, v in kernel.expected.items()}
        assert measured == expected, name

    def test_scheduling_never_catastrophic(self):
        # Greedy scheduling may not always win, but must never blow up.
        for name in ("database_query", "histogram", "image_threshold"):
            kernel = ALL_KERNEL_BUILDERS[name](32)
            cfg = cfg_1t(pes=32)
            base = run_kernel(kernel, cfg).cycles
            prog = schedule_program(assemble(kernel.source, 16), cfg)
            proc = Processor(cfg)
            proc.load(prog)
            proc.pe.load_lmem(kernel.lmem.items())
            opt = proc.run().stats.cycles
            assert opt <= base * 1.10, name


# ---------------------------------------------------------------------------
# Refactor equivalence: the scheduler now builds its DAG from the shared
# analysis machinery (repro.analysis.deps).  This frozen copy of the
# pre-refactor DAG builder pins the schedules bit-for-bit.
# ---------------------------------------------------------------------------

def _reference_build_dag(instrs, cfg):
    """The scheduler's original self-contained DAG construction."""
    from repro.opt.scheduler import DepNode

    def ref_raw_latency(producer, regfile):
        from repro.core import timing
        roff = timing.result_offset(producer.spec, cfg)
        if roff is None:
            return 1
        read_off = (timing.SCALAR_READ_OFFSET if regfile == "s"
                    else timing.parallel_read_offset(cfg))
        return max(1, roff + 1 - read_off)

    def mem_space(instr):
        spec = instr.spec
        if not (spec.is_load or spec.is_store):
            return None
        return "scalar" if spec.exec_class.value == "scalar" else "lmem"

    nodes = [DepNode(i, ins) for i, ins in enumerate(instrs)]
    last_writer = {}
    readers = {}
    last_store = {}
    loads_since_store = {"scalar": [], "lmem": []}
    last_barrier = None
    for node in nodes:
        instr = node.instr
        if is_barrier(instr) or is_control(instr):
            for prev in nodes[:node.index]:
                prev.add_succ(node, 1)
        if last_barrier is not None:
            last_barrier.add_succ(node, 1)
        if is_barrier(instr):
            last_barrier = node
        for regfile, idx in instr.src_regs():
            writer = last_writer.get((regfile, idx))
            if writer is not None:
                writer.add_succ(node, ref_raw_latency(writer.instr, regfile))
            readers.setdefault((regfile, idx), []).append(node)
        dest = instr.dest_reg()
        if dest is not None:
            for reader in readers.get(dest, []):
                if reader is not node:
                    reader.add_succ(node, 1)
            writer = last_writer.get(dest)
            if writer is not None:
                writer.add_succ(node, 1)
            last_writer[dest] = node
            readers[dest] = []
        space = mem_space(instr)
        if space is not None:
            if instr.spec.is_store:
                prev_store = last_store.get(space)
                if prev_store is not None:
                    prev_store.add_succ(node, 1)
                for load in loads_since_store[space]:
                    load.add_succ(node, 1)
                last_store[space] = node
                loads_since_store[space] = []
            else:
                prev_store = last_store.get(space)
                if prev_store is not None:
                    prev_store.add_succ(node, 1)
                loads_since_store[space].append(node)
    for node in reversed(nodes):
        node.priority = max(
            (lat + nodes[succ].priority
             for succ, lat in node.succs.items()), default=0)
    return nodes


class TestRefactorEquivalence:
    CONFIGS = [
        dict(pes=32, broadcast_arity=2),
        dict(pes=256, broadcast_arity=4),
        dict(pes=64, broadcast_arity=2, pipelined_reduction=False),
    ]

    @pytest.mark.parametrize("kw", CONFIGS,
                             ids=["32pe", "256pe", "64pe-unpiped"])
    def test_dag_identical_to_reference(self, kw):
        cfg = cfg_1t(**kw)
        for builder in ALL_KERNEL_BUILDERS.values():
            kernel = builder(cfg.num_pes)
            prog = assemble(kernel.source, 16)
            for block in basic_blocks(prog):
                instrs = list(prog.instructions[block.start:block.end])
                got = build_dag(instrs, cfg)
                ref = _reference_build_dag(instrs, cfg)
                for g, r in zip(got, ref):
                    assert g.succs == r.succs, kernel.name
                    assert g.num_preds == r.num_preds, kernel.name
                    assert g.priority == r.priority, kernel.name

    @pytest.mark.parametrize("kw", CONFIGS,
                             ids=["32pe", "256pe", "64pe-unpiped"])
    def test_schedules_identical_to_reference(self, kw):
        cfg = cfg_1t(**kw)
        for builder in ALL_KERNEL_BUILDERS.values():
            kernel = builder(cfg.num_pes)
            prog = assemble(kernel.source, 16)
            sched = schedule_program(prog, cfg)
            assert len(sched.instructions) == len(prog.instructions)
            # Reference schedule: original DAG + the same list policy.
            from repro.opt.scheduler import schedule_block_order
            import repro.opt.scheduler as S
            orig = S.build_dag
            S.build_dag = _reference_build_dag
            try:
                ref_instrs = list(prog.instructions)
                for block in basic_blocks(prog):
                    block_in = prog.instructions[block.start:block.end]
                    perm = schedule_block_order(list(block_in), cfg)
                    ref_instrs[block.start:block.end] = \
                        [block_in[i] for i in perm]
            finally:
                S.build_dag = orig
            assert list(sched.instructions) == ref_instrs, kernel.name
