"""crextend benchmark: per-document latency of the CLI on generated corpora.

    python3 perfbench/run.py --workload extend-graded --seed 1 --seconds 32 --trace 0

One closed-loop client in this process, with no extra threads, calls the
public entry point crextend.cli.main(argv) on one generated JSON document at
a time and checks each report against the reference the document was built
from (corpus.py, check.py).  Documents come in blocks that each hold one
document of every stratum of the workload, so every run sees the same mix.

--trace 0 measures in passes over the same documents.  The first pass runs
whole blocks until at least MIN_DOCS documents are done; further passes run
those documents again until the passes have taken --seconds of wall time,
probes included, and there are at least two.  One untimed block runs first
so that lazy imports inside numpy are done.

The host's load changes this process's speed by up to a factor of about 1.8,
in phases longer than a run (see calibrate.py).  So every timed call follows
a run of calibrate.probe(), and a document's time is its median ratio to the
probe over the passes, times calibrate.REFERENCE_S: the time it would take on
the reference machine in a quiet phase.  A change to the program moves these
times in full; the host's load largely cancels.  The metrics:

- doc_p50_ms, doc_p90_ms: median and 90th percentile of the documents' times.
- docs_per_s: documents over the sum of their times.
- verdict_agreement: share of reports that match their reference.
- ok_frac: share of documents that did not fail, 1 - failed_frac; a share
  that is almost always 0 could not carry a relative bound.
- setup_s: median over SETUP_REPS fresh interpreters importing crextend.cli,
  taken before, between and after the passes, each scaled the same way by
  the probes around it.
- peak_rss_mb: peak resident memory of this process.

A comment line gives the unscaled figures too: the same percentiles of each
document's best wall time over the passes, and the median probe time.

--trace 1 runs each document of one pass twice, first with the per-layer
spans of spans.py installed and then without, until --seconds are measured.
It prints the per-layer metrics of the traced runs, with trace.overhead =
untraced docs/s over traced docs/s; running the two back to back keeps drift
in CPU speed out of that ratio.

Every rerun must give the bytes of the first run.  A document fails when
cli.main raises, when it exits 3 on a valid document, or when its bytes
differ on a rerun.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the graded solves are small, so
# extra threads only add scheduling noise.  The setup subprocess inherits it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Taken in three groups so that the median spans the run's machine states.
SETUP_REPS = 12
# Probes around each set-up; their median gauges the machine's speed then.
SETUP_PROBES = 3
# p90 needs at least ten samples beyond it.
MIN_DOCS = 110
WARMUP_BLOCK = 2**20
SAMPLES_SHOWN = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "docs_per_s": "1/s",
    "verdict_agreement": "fraction",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _setup_times(reps):
    """Wall times of fresh interpreters importing crextend.cli, each paired
    with the median probe time around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        before = [calibrate.probe() for _ in range(SETUP_PROBES)]
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import crextend.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )  # no timeout: waiting with one polls in steps of up to 50 ms
        t = perf_counter() - t0
        probes = before + [calibrate.probe() for _ in range(SETUP_PROBES)]
        times.append((t, statistics.median(probes)))
    return times


def _digest(code, out):
    return hashlib.blake2b(f"{code}\n{out}".encode(), digest_size=16).digest()


class Measurement:
    """Documents of one run, their times, and how their reports fared.

    Untraced, each timed call follows a probe (calibrate.py); ratios[i] holds
    document i's time over that probe's, one per pass, and best[i] its best
    wall time.
    """

    def __init__(self, cli, check, workdir):
        self.cli = cli
        self.check = check
        self.workdir = workdir
        self.docs = []
        self.paths = []
        self.best = []
        self.ratios = []
        self.probes = []
        self.digests = []
        self.pass_seconds = []
        self.traced_seconds = 0.0
        self.failed = set()
        self.differ = 0
        self.agree = 0
        self.known_defects = 0
        self.unexpected = []

    def call(self, doc, path):
        """(seconds, exit code or None when main raised, stdout) for one document."""
        argv = [doc.command, str(path), *doc.flags]
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is a measured outcome
            traceback.print_exc()
            code = None
        return perf_counter() - t0, code, out.getvalue()

    def timed_call(self, doc, path):
        """call() right after a probe; adds the probe to self.probes."""
        self.probes.append(calibrate.probe())
        return self.call(doc, path)

    def first_pass(self, blocks, seconds, min_docs, tracer=None):
        """Run whole blocks until `seconds` of document time and `min_docs` documents are done.

        With a tracer, each document first runs traced; that run's time goes
        to traced_seconds and its bytes must equal the untraced run's.
        Without one, each call is probed.
        """
        elapsed = 0.0
        for block in blocks:
            for doc in block:
                i = len(self.docs)
                path = self.workdir / f"{i}.json"
                path.write_text(doc.text, encoding="utf-8")
                doc = dataclasses.replace(doc, text="")
                if tracer is not None:
                    tracer.install()
                    try:
                        traced = self.call(doc, path)
                    finally:
                        tracer.uninstall()
                    self.traced_seconds += traced[0]
                t, code, out = self.call(doc, path) if tracer else self.timed_call(doc, path)
                elapsed += t
                self._judge(doc, code, out)
                self.docs.append(doc)
                self.paths.append(path)
                self.best.append(t)
                self.ratios.append([] if tracer else [t / self.probes[-1]])
                self.digests.append(_digest(code, out))
                if tracer is not None and _digest(*traced[1:]) != self.digests[i]:
                    self.differ += 1
                    self.failed.add(i)
            if elapsed + self.traced_seconds >= seconds and len(self.docs) >= min_docs:
                break
        self.pass_seconds.append(elapsed)

    def repeat_pass(self):
        """Run every document again, probed, failing changed bytes."""
        elapsed = 0.0
        for i, (doc, path) in enumerate(zip(self.docs, self.paths)):
            t, code, out = self.timed_call(doc, path)
            elapsed += t
            self.best[i] = min(self.best[i], t)
            self.ratios[i].append(t / self.probes[-1])
            if _digest(code, out) != self.digests[i]:
                self.differ += 1
                self.failed.add(i)
        self.pass_seconds.append(elapsed)

    def _judge(self, doc, code, out):
        if code is None or (code == 3 and doc.expect["exit"] == 0):
            self.failed.add(len(self.docs))
        why = self.check.mismatch(doc, code, out)
        if why is None:
            self.agree += 1
        elif self.check.known_defect(doc, code, out):
            self.known_defects += 1
        else:
            self.unexpected.append(f"{doc.kind}: {why}")


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "crextend" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no crextend sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from crextend import cli

    print("# env " + json.dumps(_environment()))
    setup = []

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        m = Measurement(cli, check, workdir)
        warmup = workdir / "warmup.json"
        calibrate.probe()
        for doc in corpus.block(args.workload, args.seed, WARMUP_BLOCK):
            warmup.write_text(doc.text, encoding="utf-8")
            m.call(doc, warmup)
        blocks = (corpus.block(args.workload, args.seed, b) for b in count())
        if args.trace:
            tracer = spans.Tracer()
            m.first_pass(blocks, args.seconds, 0, tracer)
        else:
            setup += _setup_times(SETUP_REPS // 3)
            t0 = perf_counter()
            m.first_pass(blocks, 0, MIN_DOCS)
            measured = perf_counter() - t0
            setup += _setup_times(SETUP_REPS // 3)
            t0 = perf_counter() - measured
            m.repeat_pass()
            while perf_counter() - t0 < args.seconds:
                m.repeat_pass()
            setup += _setup_times(SETUP_REPS // 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    n = len(m.docs)
    passes = ", ".join(f"{s:.2f}" for s in m.pass_seconds)
    print(f"# {args.workload} seed {args.seed}: {n} documents, pass times {passes} s")
    print(f"# {m.differ} reruns with bytes different from the first run"
          + (" (traced against untraced)" if args.trace else ""))
    print(f"# {m.known_defects} moment checks passed on data built not to extend (known defect)")
    print(f"# {len(m.unexpected)} other reports disagree with their reference")
    for line in m.unexpected[:SAMPLES_SHOWN]:
        print(f"#   {line}")
    if args.trace:
        metrics = tracer.metrics(n, m.traced_seconds / m.pass_seconds[0])
        units = spans.metric_units()
    else:
        scale = calibrate.REFERENCE_S
        doc_ms = [statistics.median(r) * scale * 1e3 for r in m.ratios]
        p90 = statistics.quantiles(doc_ms, n=10)[8]
        best_ms = [t * 1e3 for t in m.best]
        print(f"# {sum(t > p90 for t in doc_ms)} documents beyond p90; unscaled: best wall times "
              f"p50 {statistics.median(best_ms):.3f} ms, p90 {statistics.quantiles(best_ms, n=10)[8]:.3f} ms, "
              f"set-up {statistics.median(t for t, _ in setup):.4f} s, probe median "
              f"{statistics.median(m.probes) * 1e3:.3f} ms against {scale * 1e3:.3f} ms")
        metrics = {
            "setup_s": statistics.median(t / c * scale for t, c in setup),
            "doc_p50_ms": statistics.median(doc_ms),
            "doc_p90_ms": p90,
            "docs_per_s": n / sum(doc_ms) * 1e3,
            "verdict_agreement": m.agree / n,
            "ok_frac": 1 - len(m.failed) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": not m.unexpected and not m.failed,
        "attempted": n,
        "failed": len(m.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
