"""sha256 digests, field by field, of what crextend.cli.main reports on the benchmark corpus.

    python3 tools/report_digest.py TREE OUT

Runs every document of perfbench/corpus.py (each workload, seeds 1-2,
blocks 0-2: 1020 documents) through crextend.cli.main of the checkout at
TREE, in this process, and writes to OUT one line per document and part
of its outcome: workload, seed, block, index, the part, the sha256 of that
part, and the document's kind.  The parts are `exit` (the exit code),
`stderr`, `stdout` (the whole standard output) and, when standard output
is one JSON object, each of its top-level fields by name (its value as
canonical JSON).  Two checkouts give the same reports when their OUT files
are equal, and `diff a.txt b.txt` names the documents and fields that
moved.

BLAS runs on one thread, fixed before numpy loads, and every document is
read from the same path, so messages that name the input compare equal
across trees.  Because that path is shared, a run holds an exclusive
fcntl.flock on the lock file beside it (crextend-report-digest.json.lock
in the temp directory) from start to end: two runs started at once take
turns instead of overwriting each other's input.  The corpus comes from
this checkout's perfbench/, which is only imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2)
BLOCKS = (0, 1, 2)
INPUT = Path(tempfile.gettempdir()) / "crextend-report-digest.json"
LOCK = INPUT.with_name(INPUT.name + ".lock")


def run(cli, doc):
    """(exit code, stdout, stderr) of cli.main on one document; a raised exception is its type and text."""
    INPUT.write_text(doc.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([doc.command, str(INPUT), *doc.flags])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is an outcome to compare
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def parts(code, out, err):
    """(part, sha256) pairs of one outcome: exit code, stderr, stdout, then each top-level report field."""
    found = {"exit": json.dumps(code), "stderr": err, "stdout": out}
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    if isinstance(report, dict):
        found.update((key, json.dumps(value, sort_keys=True)) for key, value in report.items())
    return [(part, hashlib.sha256(text.encode()).hexdigest()) for part, text in found.items()]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    tree, out_path = Path(argv[0]).resolve(), Path(argv[1])
    sys.path[:0] = [str(tree / "src"), str(Path(__file__).resolve().parent.parent / "perfbench")]
    import corpus
    from crextend import cli

    lines = []
    with open(LOCK, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        try:
            for workload in sorted(corpus.WORKLOADS):
                for seed in SEEDS:
                    for index in BLOCKS:
                        for i, doc in enumerate(corpus.block(workload, seed, index)):
                            for part, digest in parts(*run(cli, doc)):
                                lines.append(f"{workload} {seed} {index} {i} {part} {digest} {doc.kind}\n")
        finally:
            INPUT.unlink(missing_ok=True)
    out_path.write_text("".join(lines), encoding="utf-8")
    documents = sum(line.split(maxsplit=5)[4] == "exit" for line in lines)
    print(f"{documents} documents, {len(lines)} digests, crextend from {cli.__file__}")


if __name__ == "__main__":
    main()
