"""Reports do not depend on the BLAS thread count, outside the congruent extend route."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Runs every document of one corpus block per workload through cli.main and
# writes [kind, exit code, stdout, stderr] per document as JSON.  argv: src/,
# perfbench/, the path every document is read from.
CHILD = """
import contextlib, io, json, sys
src, perfbench, path = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import corpus
from crextend import cli
outcomes = []
for workload in sorted(corpus.WORKLOADS):
    for doc in corpus.block(workload, 1, 0):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([doc.command, path, *doc.flags])
            except SystemExit as exc:
                code = exc.code
        outcomes.append([doc.kind, code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(outcomes))
"""

# The dense lstsq route of a congruent (non-diagonal) model gives bits that
# depend on the BLAS thread count: the FOUND line on it in CHANGES.md (line
# 37), which ROADMAP item 7 removes by taking every elliptic model through
# its normal form.
CONGRUENT_EXTEND = ("extend n2 d12 nn ", "extend n3 d6 nn ")


def _outcomes(threads, path):
    """Each document's [kind, exit code, stdout, stderr] with OpenBLAS on `threads` threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}  # set before numpy loads
    args = [sys.executable, "-c", CHILD, str(REPO / "src"), str(REPO / "perfbench"), str(path)]
    run = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    path = tmp_path / "doc.json"  # one path for both runs: stderr names the input
    one, two = _outcomes(1, path), _outcomes(2, path)
    assert len(one) == 170
    assert [kind for kind, *_ in one] == [kind for kind, *_ in two]
    excluded = [a[0] for a in one if a[0].startswith(CONGRUENT_EXTEND)]
    assert len(excluded) == 4
    moved = [a[0] for a, b in zip(one, two) if a != b and not a[0].startswith(CONGRUENT_EXTEND)]
    assert moved == []
