"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark shares a few cores of a host with other tenants, and their load
changes this process's speed by up to a factor of about 1.8, in phases that
last from seconds to minutes: longer than one run.  The best time over the
passes of a run cannot remove a phase that covers the whole run, so runs of
the same code taken minutes apart would disagree by tens of percent.

probe() runs a small workload that is the benchmark's own code and never
changes with the program under test: complex dict polynomial products (the
shape of crextend.polyalg's work), a small least-squares solve and grid sums
in numpy (the shape of extend's solves and the quadrature), and a JSON round
trip (the CLI's parse and dump).  run.py times it right before each timed
document, so that the pair runs in the same machine phase, and reports a
document's time as its median ratio to the probe, times REFERENCE_S: the
probe's time on the reference machine (below) when its load is light.  A
change to the program moves the document's time and not the probe's, so it
moves the metric in full; a change in the host's load moves both.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

import corpus

# The probe's time on the reference machine, a 2-vCPU Intel Xeon VM (Python
# 3.11, numpy 2.4 on OpenBLAS, one BLAS thread), in a quiet phase: there its
# best is 1.75 ms and its median over a loaded stretch 3.1 ms.  With this value
# a document's scaled time reads about its best wall time there.
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(20150520)
_A, _B = corpus.congruent(_rng, [1.0, 1.0], [0.2, 0.3])
_Q = corpus.quadric(_A, _B)
_M = _rng.standard_normal((80, 40)) + 1j * _rng.standard_normal((80, 40))
_Y = _rng.standard_normal(80) + 0j
_GRID = np.exp(2j * np.pi * np.arange(4096) / 4096)
_TEXT = corpus.extend_doc(_rng, 2, 4, "nn").text


def _work():
    p = _Q
    for _ in range(2):
        p = corpus.poly_mul(p, _Q)
    np.linalg.lstsq(_M, _Y, rcond=None)
    for k in range(6):
        (_GRID**k * np.conj(_GRID) ** (k + 1)).sum()
    json.dumps(json.loads(_TEXT), sort_keys=True)


def probe():
    """Seconds that one run of the reference workload takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
