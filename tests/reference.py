"""Whole-strip and per-fiber references the tests check the solver routes against.

No task reaches these: gapfill solves a strip on its momentum blocks and a
torus on its magnetic-translation orbits.  The references assemble what
those routes avoid, the whole Dirichlet strip and one Bloch fiber at a
time, from the same private helpers, so a test can compare the two.
"""

from __future__ import annotations

import numpy as np

from gapfill.bloch import _cell_pattern, _fiber, _fiber_gauge
from gapfill.edge import StripSpec, _block_gauge, _period_lattice, strip_mask
from gapfill.model import (HermitianOperator, MagneticLattice, RegionMask,
                           assemble_restricted, build_gauge, cell_lift_phases)


def strip_operator(strip: StripSpec) -> HermitianOperator:
    """Assembled Dirichlet strip operator (x-periodic window, Landau gauge)."""
    return assemble_restricted(strip.lattice, build_gauge(strip.lattice, "landau"),
                               strip_mask(strip))


def lift_block_vector(strip: StripSpec, block: HermitianOperator, kappa: float,
                      vec: np.ndarray, mask: RegionMask) -> np.ndarray:
    """Extend an eigenvector of the momentum-kappa block to the strip.

    psi(x, y) = chi(x, y) vec(x mod P*q, y), with P the x-period of the
    mask and chi the ratio of block to strip link phases
    (:func:`gapfill.model.cell_lift_phases`) against the strip's Landau
    gauge, the one :func:`strip_operator` assembles with.
    """
    cells = _period_lattice(mask)
    chi = cell_lift_phases(build_gauge(strip.lattice, "landau"), _block_gauge(cells, kappa))
    ix, iy = np.nonzero(mask.member)
    out = chi[ix, iy] * np.asarray(vec)[block.ids[ix % cells.n_x, iy]]
    return out / np.linalg.norm(out)


def fiber_hamiltonian(lattice: MagneticLattice, gauge_kind: str,
                      point: tuple[float, float]) -> np.ndarray:
    """q^2 x q^2 Bloch fiber of the bulk stencil at dual-torus point (s, t).

    The stencil on the one-cell torus, whose seam links carry the magnetic
    translation cocycle of the named gauge, twisted by e^{2*pi*i*s} (x seam)
    and e^{2*pi*i*t} (y seam).
    """
    s, t = point
    return _fiber(_cell_pattern(lattice), _fiber_gauge(lattice, gauge_kind, s, t))
