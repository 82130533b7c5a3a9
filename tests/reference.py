"""Whole-strip and per-fiber references the tests check the solver routes against.

No task reaches these: gapfill solves a strip on its momentum blocks and a
torus on its magnetic-translation orbits.  The references assemble what
those routes avoid, the whole Dirichlet strip and one Bloch fiber at a
time, from the same private helpers, so a test can compare the two; the
Harper chains of one block are summed entry by entry, as one block alone
would be, against the pass-by-pass sums of a batch.
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


def chain_entries(op: HermitianOperator, basis: np.ndarray,
                  line: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals and couplings of the chains B_m^H H B_m of one block, summed
    entry by entry (np.add.at over the block's COO entries, in their order).

    B_m[i, line[i]] = basis[i, m]: the split of one momentum, accumulated as
    a single block's split is, for tests of the batched pass-by-pass sums.
    """
    coo = op.matrix.tocoo()
    n_lines, q = int(line.max()) + 1, basis.shape[1]
    keys, at = np.unique(line[coo.row] * n_lines + line[coo.col], return_inverse=True)
    entries = np.zeros((len(keys), q), complex)
    np.add.at(entries, at, basis[coo.row].conj() * coo.data[:, None] * basis[coo.col])
    r, s = np.divmod(keys, n_lines)
    diagonal = np.zeros((q, n_lines))
    diagonal[:, r[r == s]] = entries[r == s].real.T
    coupling = np.zeros((q, n_lines - 1), complex)
    coupling[:, s[r == s + 1]] = entries[r == s + 1].T
    return diagonal, coupling


def fiber_hamiltonian(lattice: MagneticLattice, gauge_kind: str,
                      point: tuple[float, float]) -> np.ndarray:
    """q^2 x q^2 Bloch fiber of the bulk stencil at dual-torus point (s, t).

    The stencil on the one-cell torus, whose seam links carry the magnetic
    translation cocycle of the named gauge, twisted by e^{2*pi*i*s} (x seam)
    and e^{2*pi*i*t} (y seam).
    """
    s, t = point
    return _fiber(_cell_pattern(lattice), _fiber_gauge(lattice, gauge_kind, s, t))
