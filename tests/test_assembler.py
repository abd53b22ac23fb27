"""Assembler tests: syntax, directives, pseudo-ops, errors, round trips."""

import pytest
from hypothesis import given

from repro.asm import AsmError, assemble, disassemble, format_instruction
from repro.isa import registers as regs

from tests.strategies import instructions


def asm1(line: str):
    """Assemble one instruction line and return it."""
    prog = assemble(f".text\n{line}\n")
    assert len(prog) == 1
    return prog.instructions[0]


class TestBasicSyntax:
    def test_three_reg(self):
        i = asm1("add s1, s2, s3")
        assert (i.mnemonic, i.rd, i.rs, i.rt) == ("add", 1, 2, 3)

    def test_immediate(self):
        assert asm1("addi s1, s2, -5").imm == -5

    def test_hex_and_binary_immediates(self):
        assert asm1("ori s1, s0, 0xFF").imm == 255
        assert asm1("ori s1, s0, 0b101").imm == 5

    def test_char_immediate(self):
        assert asm1("ori s1, s0, 'A'").imm == 65

    def test_memory_operand(self):
        i = asm1("lw s1, 8(s2)")
        assert (i.rd, i.rs, i.imm) == (1, 2, 8)

    def test_memory_operand_no_offset(self):
        assert asm1("lw s1, (s2)").imm == 0

    def test_memory_operand_negative(self):
        assert asm1("sw s1, -4(s2)").imm == -4

    def test_parallel_memory(self):
        i = asm1("plw p1, 2(p3)")
        assert (i.rd, i.rs, i.imm) == (1, 3, 2)

    def test_mask_suffix(self):
        assert asm1("padd p1, p2, p3 [f4]").mf == 4

    def test_default_mask_is_f0(self):
        assert asm1("padd p1, p2, p3").mf == regs.ALWAYS_FLAG

    def test_mask_on_scalar_rejected(self):
        with pytest.raises(AsmError):
            asm1("add s1, s2, s3 [f1]")

    def test_psel_selector_operand(self):
        i = asm1("psel p1, p2, p3, f5")
        assert i.mf == 5

    def test_comments_stripped(self):
        prog = assemble(".text\nadd s1, s2, s3  # comment\nsub s1, s1, s2 ; also\n")
        assert len(prog) == 2

    def test_case_insensitive_mnemonic(self):
        assert asm1("ADD s1, s2, s3").mnemonic == "add"

    def test_expression_immediates(self):
        assert asm1("addi s1, s0, 2+3*1" if False else "addi s1, s0, 2+3").imm == 5
        assert asm1("addi s1, s0, (4-1)-2").imm == 1
        assert asm1("addi s1, s0, -(3+1)").imm == -4


class TestLabelsAndBranches:
    def test_backward_branch(self):
        prog = assemble("""
.text
top:
    addi s1, s1, 1
    bne s1, s2, top
""")
        # offset relative to instruction after the branch: target 0 = 2 + off
        assert prog.instructions[1].imm == -2

    def test_forward_branch(self):
        prog = assemble("""
.text
    beq s1, s2, done
    addi s1, s1, 1
done:
    halt
""")
        assert prog.instructions[0].imm == 1

    def test_numeric_offset_taken_verbatim(self):
        assert asm1("beq s1, s2, -7").imm == -7

    def test_jump_targets_absolute(self):
        prog = assemble("""
.text
    nop
entry:
    j entry
    jal entry
""")
        assert prog.instructions[1].target == 1
        assert prog.instructions[2].target == 1

    def test_label_same_line(self):
        prog = assemble(".text\nfoo: halt\n")
        assert prog.symbols["foo"] == 0

    def test_multiple_labels_one_target(self):
        prog = assemble(".text\na: b: halt\n")
        assert prog.symbols["a"] == prog.symbols["b"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError):
            assemble(".text\nx: nop\nx: nop\n")

    def test_undefined_symbol(self):
        with pytest.raises(AsmError) as e:
            assemble(".text\nj nowhere\n")
        assert "nowhere" in str(e.value)


class TestDirectives:
    def test_data_words(self):
        prog = assemble("""
.data
tab: .word 1, 2, 3
.text
halt
""")
        assert prog.data == (1, 2, 3)
        assert prog.symbols["tab"] == 0

    def test_space(self):
        prog = assemble(".data\na: .word 9\nb: .space 3\nc: .word 7\n.text\nhalt\n")
        assert prog.data == (9, 0, 0, 0, 7)
        assert prog.symbols["c"] == 4

    def test_equ(self):
        prog = assemble(".equ K, 40+2\n.text\naddi s1, s0, K\n")
        assert prog.instructions[0].imm == 42

    def test_equ_referencing_equ(self):
        prog = assemble(".equ A, 5\n.equ B, A+1\n.text\naddi s1, s0, B\n")
        assert prog.instructions[0].imm == 6

    def test_data_label_in_load(self):
        prog = assemble("""
.data
x: .word 11
y: .word 22
.text
lw s1, y(s0)
halt
""")
        assert prog.instructions[0].imm == 1

    def test_word_outside_data_rejected(self):
        with pytest.raises(AsmError):
            assemble(".text\n.word 1\n")

    def test_instr_in_data_rejected(self):
        with pytest.raises(AsmError):
            assemble(".data\nadd s1, s2, s3\n")

    def test_unknown_directive(self):
        with pytest.raises(AsmError):
            assemble(".bogus 3\n")

    def test_negative_space_rejected(self):
        with pytest.raises(AsmError):
            assemble(".data\n.space -1\n")


class TestPseudoInstructions:
    def test_nop(self):
        i = asm1("nop")
        assert i.encode() == 0

    def test_li_small(self):
        i = asm1("li s1, 10")
        assert (i.mnemonic, i.imm) == ("ori", 10)

    def test_li_negative(self):
        i = asm1("li s1, -3")
        assert (i.mnemonic, i.imm) == ("addi", -3)

    def test_li_label(self):
        prog = assemble(".text\nmain: li s1, main\n")
        assert prog.instructions[0].mnemonic == "ori"
        assert prog.instructions[0].imm == 0

    def test_li_32bit_expands_to_two(self):
        prog = assemble(".text\nli s1, 0x12345678\n", word_width=32)
        assert [i.mnemonic for i in prog.instructions] == ["lui", "ori"]
        assert prog.instructions[0].imm == 0x1234
        assert prog.instructions[1].imm == 0x5678

    def test_li_too_big_for_8bit_machine(self):
        with pytest.raises(AsmError):
            assemble(".text\nli s1, 0x12345678\n", word_width=8)

    def test_move_not_neg(self):
        assert asm1("move s1, s2").mnemonic == "add"
        assert asm1("not s1, s2").mnemonic == "nor"
        assert asm1("neg s1, s2").mnemonic == "sub"

    def test_branch_pseudos(self):
        assert asm1("beqz s1, 0").mnemonic == "beq"
        assert asm1("bnez s1, 0").mnemonic == "bne"
        b = asm1("bgt s1, s2, 0")
        assert (b.mnemonic, b.rd, b.rs) == ("blt", 2, 1)
        b = asm1("ble s1, s2, 0")
        assert (b.mnemonic, b.rd, b.rs) == ("bge", 2, 1)

    def test_b_unconditional(self):
        i = asm1("b 3")
        assert (i.mnemonic, i.rd, i.rs, i.imm) == ("beq", 0, 0, 3)

    def test_call_ret(self):
        prog = assemble(".text\nf: ret\nmain: call f\n")
        assert prog.instructions[0].mnemonic == "jr"
        assert prog.instructions[0].rs == regs.LINK_REG
        assert prog.instructions[1].mnemonic == "jal"

    def test_pli_pmov_masked(self):
        i = asm1("pli p1, -7 [f2]")
        assert (i.mnemonic, i.imm, i.mf) == ("paddi", -7, 2)
        i = asm1("pmov p1, p2 [f3]")
        assert (i.mnemonic, i.mf) == ("por", 3)

    def test_rnone_expands_to_two(self):
        prog = assemble(".text\nrnone s1, f2\n")
        assert [i.mnemonic for i in prog.instructions] == ["rany", "sltiu"]

    def test_pseudo_expansion_keeps_label_addresses(self):
        prog = assemble("""
.text
    rnone s1, f1
after:
    halt
""")
        assert prog.symbols["after"] == 2


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError) as e:
            asm1("blorp s1, s2")
        assert "blorp" in str(e.value)

    def test_wrong_operand_count(self):
        with pytest.raises(AsmError):
            asm1("add s1, s2")

    def test_wrong_register_file(self):
        with pytest.raises(AsmError):
            asm1("add s1, p2, s3")

    def test_error_carries_line_number(self):
        with pytest.raises(AsmError) as e:
            assemble(".text\nnop\nbad s1\n")
        assert "line 3" in str(e.value)

    def test_imm_out_of_range(self):
        with pytest.raises(AsmError):
            asm1("paddi p1, p1, 99999")

    def test_empty_operand(self):
        with pytest.raises(AsmError):
            asm1("add s1, , s3")


class TestSourceMap:
    def test_locations_recorded(self):
        prog = assemble(".text\nnop\nhalt\n")
        assert prog.source_map[0].lineno == 2
        assert "halt" in prog.source_map[1].text
        assert "line 3" in prog.location_of(1)

    def test_location_of_unknown_pc(self):
        prog = assemble(".text\nhalt\n")
        assert prog.location_of(99) == "pc=99"


class TestDisassemblerRoundTrip:
    @given(instructions())
    def test_disasm_reassembles_identically(self, instr):
        text = format_instruction(instr)
        prog = assemble(f".text\n{text}\n", word_width=32)
        assert prog.instructions[0].encode() == instr.encode()

    def test_listing_format(self):
        prog = assemble(".text\nadd s1, s2, s3\nhalt\n")
        listing = disassemble(prog.encode())
        assert "add s1, s2, s3" in listing
        assert "halt" in listing
        assert "0:" in listing
