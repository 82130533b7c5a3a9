import numpy as np
import pytest

from gapfill.bloch import torus_spectrum
from gapfill.model import MagneticLattice, build_gauge


@pytest.fixture(scope="session")
def torus_reports():
    """Cache of torus spectra (Bloch fiber route) keyed by (k, q, cells)."""
    cache = {}

    def get(k, q, cells=4, cluster_tol=None, keep_vectors=False):
        key = (k, q, cells, cluster_tol, keep_vectors)
        if key not in cache:
            lat = MagneticLattice(k, q, cells, cells, "torus")
            cache[key] = torus_spectrum(lat, build_gauge(lat), cluster_tol=cluster_tol,
                                        keep_vectors=keep_vectors)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
