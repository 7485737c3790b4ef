"""tools/report_digest.py: the per-document report digest that compares two trees."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_report_digest(monkeypatch):
    """The tool as a module; the BLAS variables it sets are restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("report_digest", REPO / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_is_repeatable_on_one_corpus_block(tmp_path, monkeypatch):
    tool = load_report_digest(monkeypatch)
    monkeypatch.setattr(tool, "SEEDS", (1,))
    monkeypatch.setattr(tool, "BLOCKS", (0,))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends src/ and perfbench/
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    tool.main([str(REPO), str(first)])
    tool.main([str(REPO), str(second)])
    lines = first.read_text(encoding="utf-8").splitlines()
    assert second.read_text(encoding="utf-8") == first.read_text(encoding="utf-8")
    fields = [line.split(maxsplit=5) for line in lines]  # the kind, last, may hold spaces
    assert len(lines) == 170 and all(len(f) == 6 and len(f[4]) == 64 for f in fields)
