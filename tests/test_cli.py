"""CLI tests (python -m repro ...)."""

import json
import pathlib

import pytest

from repro.cli import main

DEMO = """
.text
main:
    plw   p1, 0(p0)
    rmaxu s1, p1
    rsum  s2, p1
    halt
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


class TestAsm:
    def test_asm_to_stdout(self, demo_file, capsys):
        assert main(["asm", demo_file, "--width", "16"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert all(len(w) == 8 for w in out)

    def test_asm_to_file(self, demo_file, tmp_path, capsys):
        out_path = tmp_path / "demo.hex"
        assert main(["asm", demo_file, "-o", str(out_path)]) == 0
        assert len(out_path.read_text().splitlines()) == 4
        assert "4 instructions" in capsys.readouterr().out

    def test_asm_with_listing(self, demo_file, capsys):
        assert main(["asm", demo_file, "--list"]) == 0
        assert "rmaxu s1, p1" in capsys.readouterr().out

    def test_asm_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(".text\nfrobnicate s1\n")
        assert main(["asm", str(bad)]) == 1
        assert "assembly error" in capsys.readouterr().err


class TestDisasm:
    def test_roundtrip(self, demo_file, tmp_path, capsys):
        hex_path = tmp_path / "demo.hex"
        main(["asm", demo_file, "-o", str(hex_path)])
        capsys.readouterr()
        assert main(["disasm", str(hex_path)]) == 0
        out = capsys.readouterr().out
        assert "plw p1, 0(p0)" in out
        assert "halt" in out

    def test_bad_hex(self, tmp_path, capsys):
        path = tmp_path / "x.hex"
        path.write_text("zzzz\n")
        assert main(["disasm", str(path)]) == 1

    def test_undecodable_word(self, tmp_path, capsys):
        path = tmp_path / "x.hex"
        path.write_text("ffffffff\n")
        assert main(["disasm", str(path)]) == 1
        assert "decode error" in capsys.readouterr().err


class TestRun:
    def test_run_prints_results(self, demo_file, capsys):
        code = main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--lmem", "0=1,2,3,4,5,6,7,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "s1" in out and "8" in out     # max
        assert "36" in out                    # sum

    def test_run_with_trace(self, demo_file, capsys):
        main(["run", demo_file, "--pes", "4", "--threads", "1",
              "--width", "16", "--trace"])
        out = capsys.readouterr().out
        assert "B1" in out and "R1" in out and "WB" in out

    def test_run_simulation_error(self, tmp_path, capsys):
        loop = tmp_path / "loop.s"
        loop.write_text(".text\nx: j x\n")
        code = main(["run", str(loop), "--threads", "1",
                     "--max-cycles", "100"])
        assert code == 1
        assert "simulation error" in capsys.readouterr().err

    def test_run_legacy_network_flags(self, demo_file, capsys):
        code = main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--no-pipelined-broadcast",
                     "--no-pipelined-reduction"])
        assert code == 0
        assert "b=1 r=1" in capsys.readouterr().out

    def test_run_with_fetch_model(self, demo_file, capsys):
        assert main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--model-fetch"]) == 0

    def test_run_json_carries_full_stats(self, demo_file, capsys):
        assert main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        for key in ("cycles", "instructions", "ipc", "utilization",
                    "fairness", "wait_cycles", "idle_slots"):
            assert key in stats, key
        assert "profile" not in payload

    def test_run_text_reports_fairness(self, demo_file, capsys):
        assert main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16"]) == 0
        assert "fairness (Jain)" in capsys.readouterr().out


ASM_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "asm"


class TestFastBackend:
    @pytest.mark.parametrize("flags", [
        ["--trace"], ["--sanitize"], ["--sanitize", "--json"],
        ["--profile"], ["--profile", "--json"]],
        ids=["trace", "sanitize", "sanitize-json", "profile", "profile-json"])
    @pytest.mark.parametrize("example", ["race_demo.s", "hazard_demo.s"])
    def test_hooked_fast_run_prints_the_cycle_run(self, example, flags,
                                                  capsys):
        """``--backend fast`` takes every flag ``cycle`` does: the same
        exit code and output, apart from the JSON ``backend`` field, on a
        spawning and a spawn-free program."""
        runs = []
        for backend in ("cycle", "fast"):
            code = main(["run", str(ASM_DIR / example), "--backend",
                         backend, *flags])
            out, err = capsys.readouterr()
            if "--json" in flags:
                out = json.loads(out)
                assert out.pop("backend") == backend
            runs.append((code, out, err))
        assert runs[1] == runs[0]
        races = example == "race_demo.s" and "--sanitize" in flags
        assert runs[0][0] == (3 if races else 0)


class TestProfile:
    def test_run_profile_text(self, demo_file, capsys):
        assert main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "issue by opcode" in out
        assert "hazard timeline" in out

    def test_run_profile_json(self, demo_file, capsys):
        assert main(["run", demo_file, "--pes", "8", "--threads", "1",
                     "--width", "16", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        profile = payload["profile"]
        assert sum(profile["buckets"].values()) == \
            profile["threads"] * profile["cycles"]
        assert profile["cycles"] == payload["stats"]["cycles"]

    def test_profile_command_text(self, demo_file, capsys):
        assert main(["profile", demo_file, "--pes", "8", "--threads",
                     "1", "--width", "16",
                     "--lmem", "0=1,2,3,4,5,6,7,8"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "IPC" in out

    def test_profile_command_json(self, demo_file, capsys):
        assert main(["profile", demo_file, "--pes", "8", "--threads",
                     "1", "--width", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["file"] == demo_file
        assert payload["profile"]["schema"] == 1

    def test_profile_command_trace_out(self, demo_file, tmp_path,
                                       capsys):
        out_path = tmp_path / "trace.json"
        assert main(["profile", demo_file, "--pes", "4", "--threads",
                     "1", "--width", "16",
                     "--trace-out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert trace["otherData"]["cycles"] > 0
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "B", "E", "X"} <= phases
        assert str(out_path) in capsys.readouterr().out


class TestInfo:
    def test_info_table1(self, capsys):
        assert main(["info", "--pes", "16", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "9,672" in out and "104" in out
        assert "75.8 MHz" in out

    def test_info_device_fit(self, capsys):
        assert main(["info", "--device", "EP2C35"]) == 0
        out = capsys.readouterr().out
        assert "up to 16 PEs" in out
        assert "limited by ram" in out

    def test_info_unknown_device(self, capsys):
        assert main(["info", "--device", "EP999"]) == 1


class TestIsa:
    def test_isa_reference(self, capsys):
        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        assert "106 instructions" in out
        assert "rfirst" in out and "resolver" in out
        assert "tspawn" in out


class TestInputFiles:
    @pytest.mark.parametrize("command", ["run", "asm", "profile", "disasm"])
    def test_missing_file_is_one_line_and_exit_1(self, command, tmp_path,
                                                 capsys):
        missing = tmp_path / "missing.s"
        assert main([command, str(missing)]) == 1
        assert capsys.readouterr().err == \
            f"{command}: cannot read {missing}: No such file or directory\n"

    def test_non_text_file_is_one_line_and_exit_1(self, tmp_path, capsys):
        blob = tmp_path / "blob.s"
        blob.write_bytes(b"\xff\xfe\x00")
        assert main(["run", str(blob)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"run: cannot read {blob}: ")
        assert err.count("\n") == 1
