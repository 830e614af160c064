"""Tier-1 documentation guards.

The fast half of ``scripts/check_docs.py`` runs here (cross-links between
README and docs/ must resolve, including ``#anchor`` targets); the expensive
half — actually executing the docs' code fences — runs in the CI docs job.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKER = ROOT / "scripts" / "check_docs.py"


def _run(*flags):
    return subprocess.run(
        [sys.executable, str(CHECKER), *flags], capture_output=True, text=True, timeout=120
    )


def test_doc_cross_links_resolve():
    result = _run("--links-only")
    assert result.returncode == 0, result.stdout + result.stderr


def test_docs_exist_and_are_cross_linked():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/SERVING.md" in readme
    architecture = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "SERVING.md" in architecture


def test_docs_carry_runnable_python_quickstarts():
    result = _run("--list")
    assert result.returncode == 0, result.stdout + result.stderr
    runnable = [
        line
        for line in result.stdout.splitlines()
        if line.startswith("docs/") and line.endswith(": python")
    ]
    assert len(runnable) >= 2, f"expected runnable docs snippets, saw:\n{result.stdout}"


def test_serving_flag_table_lists_every_engine_option():
    import dataclasses

    from repro.inference import EngineOptions

    serving = (ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
    table_flags = {
        line.split("`")[1].split()[0]
        for line in serving.splitlines()
        if line.startswith("| `--")
    }
    flags = [knob.metadata["flag"] for knob in dataclasses.fields(EngineOptions)]
    for flag in filter(None, flags):
        assert flag in table_flags, flag
