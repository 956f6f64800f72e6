"""Shared fixtures: the benchmark plant and precomputed frequency responses."""

import multiprocessing

import numpy as np
import pytest

from efq.config import default_config
from efq.spectral import AmplitudeResponse, FrequencyGrid, ct_frequency_map


@pytest.fixture(autouse=True)
def no_child_process_left():
    """The CLI stages fork worker processes; no test may leave one behind."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def plant(cfg):
    return cfg.plant_tf()


@pytest.fixture(scope="session")
def grid():
    return FrequencyGrid(8192)


@pytest.fixture(scope="session")
def p_base(plant, grid):
    """Benchmark plant magnitude at base rate (no oversampling)."""
    return ct_frequency_map(plant, 1, grid)


@pytest.fixture(scope="session")
def cosine_response(grid):
    """p(ω) = √(2 + 2cos ω): analytically tractable magnitude shape."""
    return AmplitudeResponse(grid, np.sqrt(2.0 + 2.0 * np.cos(grid.omegas)))
