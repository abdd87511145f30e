"""A fixed probe that measures the host's current speed level.

The VMs this benchmark runs on share their host: the time of a fixed
computation moves between levels up to 1.5-1.8x apart, lasting from a
fraction of a second to minutes, and process CPU time moves with it.  So an
untraced repetition times this probe, in its own process, right after the
RoundWriter is constructed and after every round it writes (see
hooks.Timeline), and run.py reports times on a host of fixed speed:

- each round time is scaled by REFERENCE_S / (the mean of the two probes
  around it), since the level can change within one repetition;
- a run's wall, set-up and throughput figures and per-layer self times are
  scaled by REFERENCE_S / (the mean of all the run's probes).

The probe mixes the kinds of work the round loop does (interpreted Python
and small numpy calls on mini-batches), uses no fedval code, and so does
not change when fedval does.
"""

from __future__ import annotations

import time

import numpy as np

# Scaled times are those of a host on which the probe takes this long; on
# the two-core VM of the first baseline it took 0.13-0.19 ms.
REFERENCE_S = 0.0001

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 8))
_Y = (_rng.random(256) < 0.5).astype(float)


def _work() -> float:
    table: dict[int, float] = {}
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0.0) + i * 0.5
    w = np.zeros(_X.shape[1])
    for row in range(0, len(_X), 32):
        xb, yb = _X[row:row + 32], _Y[row:row + 32]
        p = 1.0 / (1.0 + np.exp(-(xb @ w)))
        w -= 0.1 * (xb.T @ (p - yb)) / len(yb)
    return float(w[0]) + table[7]


def probe_s() -> float:
    """Seconds the probe's work takes now.

    The work runs twice and only the second pass is timed, so what ran
    before the probe, and the state it left the caches in, does not count.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
