"""Documentation consistency (mirrors the CI ``docs`` job in-process)."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


class TestRepositoryDocs:
    def test_docs_are_clean(self, capsys):
        assert check_docs.main() == 0
        assert "docs OK" in capsys.readouterr().out

    def test_trace_reference_is_checked(self):
        paths = [p.name for p in check_docs.doc_paths()]
        assert "TRACE.md" in paths
        assert "README.md" in paths


class TestCheckerCatchesRot:
    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](no/such/file.md) and "
                       "[ok](https://example.com) and [anchor](#here)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1
        assert "no/such/file.md" in problems[0]

    def test_anchor_suffix_stripped(self, tmp_path):
        (tmp_path / "other.md").write_text("x\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[sect](other.md#section)\n")
        assert check_docs.check_links(doc) == []

    def test_phantom_flag_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```\npython -m repro run x --not-a-real-flag\n```\n"
                       "and inline `--also-fake` too\n"
                       "but `--heatmaps` is real\n")
        sys.path.insert(0, str(REPO / "src"))
        from repro.__main__ import build_parser
        known = check_docs.parser_flags(build_parser())
        problems = check_docs.check_flags(doc, known)
        assert len(problems) == 2
        assert any("--not-a-real-flag" in p for p in problems)
        assert any("--also-fake" in p for p in problems)

    def test_phantom_config_key_detected(self, tmp_path):
        sys.path.insert(0, str(REPO / "src"))
        doc = tmp_path / "doc.md"
        doc.write_text(
            "python -m repro run crc --config ets_per_side=2\n"
            "python -m repro run crc --config opn_topology=torus,"
            "max_blocks_in_flight=2\n"
            "python -m repro run vadd --system ideal --config window=256\n"
            "python -m repro sweep smoke --points max_blocks_in_flight=1,4 "
            "--points blocks_in_flight=2\n"
            "not a command line: --config ets_per_side=2\n")
        problems = check_docs.check_config_keys(doc)
        assert len(problems) == 2
        assert "doc.md:1:" in problems[0]
        assert "unknown TripsConfig field 'ets_per_side'" in problems[0]
        assert "doc.md:4:" in problems[1]
        assert "did you mean 'max_blocks_in_flight'" in problems[1]

    def test_phantom_import_detected(self, tmp_path):
        sys.path.insert(0, str(REPO / "src"))
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```python\n"
            "from repro.eval.runner import ChecksumMismatch\n"
            "from repro.pipeline import Pipeline, NoSuchThing\n"
            "from repro.pipeline.core import Pipeline as P, NoSuchThing\n"
            "from repro import obs\n"
            "import repro.trace\n"
            "```\n"
            "```bash\n"
            "from repro.eval.runner import ChecksumMismatch\n"
            "```\n")
        problems = check_docs.check_imports(doc)
        assert len(problems) == 3
        assert "doc.md:2:" in problems[0]
        assert "repro.eval.runner" in problems[0]
        assert "doc.md:3:" in problems[1]
        assert "'NoSuchThing'" in problems[1]
        assert "doc.md:4:" in problems[2]

    def test_parser_flags_recurse_into_subcommands(self):
        sys.path.insert(0, str(REPO / "src"))
        from repro.__main__ import build_parser
        known = check_docs.parser_flags(build_parser())
        assert {"--uarch-trace", "--heatmaps", "--buckets", "--jobs",
                "--cache-dir", "--system"} <= known
