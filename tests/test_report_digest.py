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
    fields = [line.split(maxsplit=6) for line in lines]  # the kind, last, may hold spaces
    assert all(len(f) == 7 and len(f[5]) == 64 for f in fields)
    documents = {}
    for f in fields:
        documents.setdefault(tuple(f[:4]), []).append(f[4])
    assert len(documents) == 170
    assert all(parts[:3] == ["exit", "stderr", "stdout"] for parts in documents.values())
    # every valid document's report has its command and config fields
    assert sum(parts[3:5] == ["command", "config"] for parts in documents.values()) > 100


def test_report_digest_names_the_fields_that_moved(monkeypatch):
    tool = load_report_digest(monkeypatch)
    before = dict(tool.parts(0, '{"status": "Extended", "verify": {"max_pointwise_error": 1e-15}}\n', ""))
    after = dict(tool.parts(0, '{"status": "Extended", "verify": {"max_pointwise_error": 2e-15}}\n', ""))
    assert list(before) == ["exit", "stderr", "stdout", "status", "verify"]
    assert {part for part in before if before[part] != after[part]} == {"stdout", "verify"}
    # output that is not a JSON object has the three whole parts only
    assert [part for part, _ in tool.parts("raised ValueError: x", "partial", "trace")] == ["exit", "stderr", "stdout"]
