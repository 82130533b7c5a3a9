import numpy as np
import pytest

from gapfill.bloch import torus_spectrum
from gapfill.model import MagneticLattice, build_gauge
from gapfill.spectral import SpectralInterval


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


@pytest.fixture(scope="session")
def band_groups():
    """Band groups of a fiber family, each with the interval that isolates it.

    A group is a maximal band-index range [lo, hi) whose bounding
    fiber-uniform gaps, min over the grid of E[b + 1] - E[b], are at least
    1e-3 times the Gershgorin enclosure width 16 q^2 + 2 ||W||.  Its
    interval runs between the mid-gaps 0.5 (max E[b - 1] + min E[b]) at
    b = lo and b = hi, from E.min() - 1 when lo = 0 and to E.max() + 1 when
    hi = q^2.
    """

    def get(lat, energies):
        m = energies.shape[2]
        uniform = (energies[:, :, 1:] - energies[:, :, :-1]).min(axis=(0, 1))
        threshold = 1e-3 * (16.0 * lat.q ** 2 + 2.0 * lat.w_norm)
        bounds = [0] + [b + 1 for b in range(m - 1) if uniform[b] >= threshold] + [m]
        ends = ([float(energies.min()) - 1.0]
                + [0.5 * (energies[:, :, b - 1].max() + energies[:, :, b].min())
                   for b in bounds[1:-1]]
                + [float(energies.max()) + 1.0])
        return [((bounds[i], bounds[i + 1]), SpectralInterval(ends[i], ends[i + 1]))
                for i in range(len(bounds) - 1)]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
