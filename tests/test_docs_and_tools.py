"""Documentation consistency tests."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tools"))

from gen_isa_doc import SEMANTICS, generate  # noqa: E402
from gen_api_doc import generate as generate_api  # noqa: E402
from gen_fields_doc import TABLES, generate as generate_fields  # noqa: E402

from repro.isa.opcodes import OPCODES  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestIsaManual:
    def test_doc_is_current(self):
        """docs/ISA.md must match the live opcode table; regenerate with
        `python tools/gen_isa_doc.py` after ISA changes."""
        path = REPO / "docs" / "ISA.md"
        assert path.exists(), "run tools/gen_isa_doc.py"
        assert path.read_text() == generate()

    def test_every_mnemonic_documented(self):
        missing = [m for m in OPCODES if m not in SEMANTICS]
        assert not missing, f"semantics missing for: {missing}"

    def test_every_mnemonic_in_doc(self):
        doc = generate()
        for mnemonic in OPCODES:
            assert f"`{mnemonic}`" in doc, mnemonic

    def test_no_stale_semantics(self):
        stale = [m for m in SEMANTICS if m not in OPCODES]
        assert not stale, f"semantics for removed instructions: {stale}"


class TestApiManual:
    def test_api_doc_is_current(self):
        path = REPO / "docs" / "API.md"
        assert path.exists(), "run tools/gen_api_doc.py"
        assert path.read_text() == generate_api()

    def test_field_tables_are_current(self):
        """The field tables in docs/SERVE.md and docs/DSE.md match the
        rules; regenerate with `python tools/gen_fields_doc.py`."""
        for doc in sorted({where for _, where in TABLES.values()}):
            assert (REPO / "docs" / doc).read_text() == \
                generate_fields(doc), doc

    def test_api_doc_covers_key_names(self):
        doc = generate_api()
        for name in ("Processor", "ProcessorConfig", "AscContext",
                     "AscProgram", "assemble", "run_kernel", "max_pes",
                     "schedule_program", "stream_statistics"):
            assert f"`{name}" in doc, name


class TestProjectDocs:
    def test_design_lists_every_experiment_bench(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, (
                f"{bench.name} missing from DESIGN.md experiment index")

    def test_experiments_covers_every_id(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in ("T1", "F1", "F2", "F3", "E1", "E2", "E3", "E4",
                       "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"):
            assert f"## {exp_id} " in experiments or \
                f"## {exp_id} —" in experiments, exp_id

    def test_readme_mentions_key_entry_points(self):
        readme = (REPO / "README.md").read_text()
        for needle in ("pip install -e .", "pytest tests/",
                       "pytest benchmarks/ --benchmark-only",
                       "DESIGN.md", "EXPERIMENTS.md"):
            assert needle in readme, needle

    def test_examples_exist_and_are_referenced(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (REPO / "examples" / "quickstart.py").exists()


class TestAbTool:
    def test_two_directories_outside_a_git_checkout(self, tmp_path):
        """``tools/ab.py`` compares two checkout directories without git:
        a copy of the tool beside ``BENCHMARK.json`` in a plain directory
        reports every workload and exits 0."""
        import json
        import shutil
        import subprocess

        (tmp_path / "tools").mkdir()
        shutil.copy(REPO / "tools" / "ab.py", tmp_path / "tools")
        shutil.copy(REPO / "BENCHMARK.json", tmp_path)
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        line = json.dumps({"correct": True, "attempted": 10, "failed": 0,
                           "metrics": {m["name"]: {"value": 1.0,
                                                   "unit": m["unit"]}
                                       for m in spec["end_to_end"]}})
        for side in ("parent", "change"):
            bench = tmp_path / side / "perfbench"
            bench.mkdir(parents=True)
            (bench / "run.py").write_text(f"print({line!r})\n")
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "tools" / "ab.py"), "parent",
             "change", "--seeds", "1-2", "--seconds", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reports = [ln for ln in proc.stdout.splitlines()
                   if ln.startswith("== ")]
        assert reports == [f"== {w['name']}: 2 pairs (parent -> change)"
                           for w in spec["workloads"]]
