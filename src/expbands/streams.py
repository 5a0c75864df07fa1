"""Reproducible Monte-Carlo streams.

Replicates are partitioned into fixed-size batches; batch b of a run keyed
by `seed` draws from PCG64 seeded with SeedSequence((seed, b)), always a
full batch of each variate in a fixed order (`model.map_pivots`: all of Z,
then all of T), even where the run ends inside the batch. The draws for
replicate i are therefore a pure function of (seed, i), independent of the
run's length, of how many batches a task covers and of which thread runs
it when, which makes simulation results bit-reproducible under any
parallel schedule, such as the thread pool of `model.map_pivots`. PCG64,
numpy's default bit generator, draws the pivots faster than Philox;
SeedSequence spreads each (seed, b) key over its whole state.
"""

from __future__ import annotations

import numpy as np

BATCH_SIZE = 4096


def batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """Generator for one replicate batch of a run keyed by `seed`."""
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, int(batch_index)))
    return np.random.Generator(np.random.PCG64(ss))


def substream(seed: int, label: str) -> int:
    """Derive a named 64-bit subseed, for independent calibration draws."""
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF,
                                 int.from_bytes(label.encode(), "little") & 0xFFFFFFFFFFFFFFFF))
    return int(ss.generate_state(1, np.uint64)[0])
