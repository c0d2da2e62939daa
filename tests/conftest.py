"""Shared fixtures: small kernels, datasets and feature extractors."""

import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.core.features import StaticFeatureExtractor
from repro.datasets.openmp import OpenMPDatasetBuilder
from repro.frontend.spec import KernelSpec
from repro.kernels import registry
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners.space import thread_search_space


@pytest.fixture(scope="session")
def gemm_spec() -> KernelSpec:
    return registry.get_kernel("polybench/gemm")


@pytest.fixture(scope="session")
def kmeans_spec() -> KernelSpec:
    return registry.get_kernel("rodinia/kmeans")


@pytest.fixture(scope="session")
def bfs_spec() -> KernelSpec:
    return registry.get_kernel("rodinia/bfs")


@pytest.fixture(scope="session")
def small_specs():
    """A small but structurally diverse kernel selection."""
    uids = ["polybench/gemm", "polybench/jacobi-2d", "polybench/trisolv",
            "rodinia/kmeans", "rodinia/bfs", "stream/triad",
            "dataracebench/DRB061", "npb/EP"]
    return [registry.get_kernel(uid) for uid in uids]


@pytest.fixture(scope="session")
def extractor() -> StaticFeatureExtractor:
    return StaticFeatureExtractor(vector_dim=32)


@pytest.fixture(scope="session")
def small_openmp_dataset(small_specs, extractor):
    """A small thread-tuning dataset shared across dataset/model/tuner tests."""
    space = thread_search_space(COMET_LAKE_8C)
    builder = OpenMPDatasetBuilder(COMET_LAKE_8C, list(space),
                                   extractor=extractor, seed=0)
    targets = np.geomspace(1e5, 2e8, 4)
    return builder.build(small_specs, targets)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


#: directories made by :func:`short_socket_path`, removed at session end
_SOCKET_DIRS = []


def short_socket_path(prefix: str) -> str:
    """A socket path in a fresh directory of its own under the temp dir.

    AF_UNIX paths are length-limited (~107 bytes), so the path stays in
    ``/tmp`` rather than pytest's deeper ``tmp_path``.  Every such
    directory is removed when the test session ends.
    """
    directory = tempfile.mkdtemp(prefix=prefix)
    _SOCKET_DIRS.append(directory)
    return os.path.join(directory, "d.sock")


def pytest_sessionfinish(session, exitstatus):
    while _SOCKET_DIRS:
        shutil.rmtree(_SOCKET_DIRS.pop(), ignore_errors=True)
