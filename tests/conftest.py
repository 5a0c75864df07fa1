from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expbands import model
from expbands.model import CensoringScheme, LocScale, MleEstimate, ProgressiveSample, load_insulating_fluid, mle


@pytest.fixture(scope="session")
def fluid_sample() -> ProgressiveSample:
    return load_insulating_fluid()


@pytest.fixture(scope="session")
def fluid_est(fluid_sample) -> MleEstimate:
    return mle(fluid_sample)


@pytest.fixture(scope="session")
def fluid_scheme(fluid_sample) -> CensoringScheme:
    return fluid_sample.scheme


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(424242))


@pytest.fixture(scope="session")
def std_theta() -> LocScale:
    return LocScale(0.0, 1.0)


class CountingPool(ThreadPoolExecutor):
    """A worker pool that counts the tasks submitted to it."""

    tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture()
def pivot_pool(monkeypatch):
    """pivot_pool(workers) makes `model.map_pivots` run its batches on a new
    CountingPool of that many workers, and returns it."""
    pools = []

    def use(workers: int) -> CountingPool:
        pools.append(CountingPool(workers))
        monkeypatch.setattr(model, "_pool", lambda pool=pools[-1]: pool)
        return pools[-1]

    yield use
    for pool in pools:
        pool.shutdown()
