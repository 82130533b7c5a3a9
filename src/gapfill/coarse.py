"""Finite-volume shadows of coarse-geometric operator statements.

Everything here is support arithmetic on banded matrices: polynomial
filters of a hop-range-1 operator propagate exactly one hop per degree, so
claims of the form "this operator vanishes beyond radius R of the boundary"
are checked bitwise, not against a small threshold.  Because propagation
is finite, the bitwise affiliation verify applies the filters to probes,
sums of unit vectors at far sites more than 2 * degree * hop_range hops
apart, rather than to one unit vector per far site: the cones of one
probe's sites are disjoint, so each entry of the result is bitwise one
site's own value or zero.  Probes go through the filters in blocks of
max(1, VERIFY_BLOCK_BYTES // (16 * bulk dimension)) complex columns, so
the verify's working set stays a few MiB whatever the window size.
Norm-valued decay profiles (for filters that only approximate a
continuous function) are Lanczos estimates from a fixed start vector:
lower estimates of the norms, not certified bounds.

Wideness is the translation property that makes the compression map
injective: any uniformly bounded site set can be moved by an integer
translation deep into the region, away from the thickened complement.
Half-plane and bounded-graph shapes get an analytic witness rule plus
randomized spot checks; a region mask gets a complete search over the
translations that keep a sampled set in the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (EnclosureViolation, HopRangeViolation, MaskMismatch,
                     UnsupportedShape)
from .model import DiskShape, HermitianOperator, MagneticLattice, RegionMask
from .spectral import ChebFilter, _cheb_apply, operator_norm

VERIFY_BLOCK_BYTES = 1 << 20  # bytes of one (bulk dimension) x columns verify block
N_SPOT = 100  # random bounded sets per analytic wideness rule
N_SEARCH_SETS = 50  # random bounded sets in the region-mask search


# ---------------------------------------------------------------------------
# affiliation


@dataclass(frozen=True, eq=False)
class AffiliationReport:
    """Decay of the compressed bulk/boundary difference away from the boundary.

    deviations[i] is a Lanczos (lower) estimate of
    || chi_far(R_i) (q(p(D)) - p(D')) chi_far(R_i) || with chi_far(R) the
    projection onto region sites of boundary distance >= R.
    exact_zero_radius = degree * h is reported only for exact polynomial
    filters after a bitwise verification.
    """

    filter_description: str
    filter_degree: int
    radii: np.ndarray
    deviations: np.ndarray
    exact_zero_radius: float | None
    far_counts: np.ndarray


def _mask_alignment(bulk: HermitianOperator, restricted: HermitianOperator,
                    mask: RegionMask) -> np.ndarray:
    """Rows of the bulk operator corresponding to the restricted rows."""
    if restricted.dimension != mask.n_inside:
        raise MaskMismatch("restricted operator does not match the mask site count")
    rows = bulk.ids[restricted.sites[:, 0], restricted.sites[:, 1]]
    if np.any(rows < 0):
        raise MaskMismatch("mask sites missing from the bulk window")
    return rows


def _periodic_axes(lattice: MagneticLattice) -> list:
    """(axis, site count) of each periodic axis of the lattice."""
    return [(axis, n) for axis, (periodic, n)
            in enumerate([(lattice.periodic_x, lattice.n_x), (lattice.periodic_y, lattice.n_y)])
            if periodic]


def _hops(a: np.ndarray, b: np.ndarray, lattice: MagneticLattice) -> np.ndarray:
    """L1 distances in hops between the sites a[i] and b[i], wrapped on each
    periodic axis of the lattice."""
    d = np.abs(a - b)
    for axis, n in _periodic_axes(lattice):
        d[:, axis] = np.minimum(d[:, axis], n - d[:, axis])
    return d.sum(axis=1)


def _certify_hop_range(op: HermitianOperator, lattice: MagneticLattice, name: str):
    """HopRangeViolation unless every stored entry of op joins sites at most
    op.hop_range hops apart on the lattice."""
    m = op.matrix
    rows = np.repeat(np.arange(op.dimension), np.diff(m.indptr))
    hops = _hops(op.sites[rows], op.sites[m.indices], lattice)
    if hops.size and hops.max() > op.hop_range:
        k = int(hops.argmax())
        raise HopRangeViolation(
            f"{name} entry ({rows[k]}, {m.indices[k]}) joins sites "
            f"{tuple(op.sites[rows[k]].tolist())} and {tuple(op.sites[m.indices[k]].tolist())}, "
            f"{hops[k]} hops apart, beyond its hop range {op.hop_range}")


def _probes(rows: np.ndarray, sites: np.ndarray, lattice: MagneticLattice,
            reach: int) -> list:
    """rows split into probes whose sites lie pairwise more than 2 * reach hops apart.

    Sites are classed by the residues of ix + iy and ix - iy modulo
    s = 2 * (reach + 1).  Two sites of one class differ by a multiple of s
    in both, so their L1 distance max(|d(ix + iy)|, |d(ix - iy)|) is at
    least s; ix + iy and ix - iy share their parity, so about s^2 / 2
    classes occur, whatever the window size.  On a periodic axis the
    wrapped distance is shorter only for two sites within 2 * reach of its
    seam; each such site joins the first probe of its class that holds no
    site within 2 * reach of it, or starts a new one.
    """
    s = 2 * (reach + 1)
    key = (sites[:, 0] + sites[:, 1]) % s * s + (sites[:, 0] - sites[:, 1]) % s
    near_seam = np.zeros(len(rows), bool)
    for axis, n in _periodic_axes(lattice):
        near_seam |= (sites[:, axis] <= 2 * reach) | (sites[:, axis] >= n - 2 * reach)
    order = np.argsort(key, kind="stable")
    probes = []
    for members in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        groups = [[]]  # the class's sites near a seam, split by wrapped distance
        for i in members[near_seam[members]]:
            for g in groups:
                if not g or _hops(sites[g], sites[[i]], lattice).min() > 2 * reach:
                    g.append(i)
                    break
            else:
                groups.append([i])
        groups[0].extend(members[~near_seam[members]])
        probes.extend(rows[np.sort(g)] for g in groups if g)
    return probes


def affiliation_check(bulk: HermitianOperator, restricted: HermitianOperator,
                      mask: RegionMask, filt: ChebFilter, radii,
                      verify_bitwise: bool = True) -> AffiliationReport:
    """Deviation profile of q(p(D)) - p(D') over increasing collar radii.

    Both filter applications share the filter's enclosure, so for interior
    sites the two Chebyshev recurrences perform identical arithmetic (see
    _cheb_apply) and the difference vanishes bitwise beyond degree * h; for
    approximating filters the deviations decay like the filter's coefficient
    tail.  Each deviation is a Lanczos estimate of the norm of the Hermitian
    compressed difference, started from operator_norm's fixed start vector:
    a lower estimate, the same for every run.

    The bitwise verification first checks that every stored entry of both
    matrices joins sites at most its operator's hop_range apart (L1, wrapped
    on a periodic axis of mask.lattice; HopRangeViolation otherwise).  It
    then applies the difference to probes, a block of columns at a time:
    each probe is the sum of the unit vectors of far sites pairwise more than
    2 * degree * hop_range hops apart (see _probes; at most 162 probes at
    degree 8 on an open window, whatever its size).  The balls of
    degree * hop_range hops around one probe's sites are disjoint, so each
    row of each recurrence step sums terms from at most one site, the others
    contributing exact zeros, and a signed zero never changes a nonzero sum;
    every nonzero entry of a probe's difference is therefore bitwise that
    site's own column entry.  exact_zero_radius is set only when every far
    entry of every probe is exactly 0, the same verdict as one column per
    far site.  A block holds max(1, VERIFY_BLOCK_BYTES // (16 * bulk
    dimension)) probe columns, so the working set is a few complex blocks
    of about VERIFY_BLOCK_BYTES each, whatever the window size.
    """
    z_to_bulk = _mask_alignment(bulk, restricted, mask)
    bd = mask.boundary_distance[restricted.sites[:, 0], restricted.sites[:, 1]]
    nb = bulk.dimension
    nz = restricted.dimension
    a, b = filt.enclosure
    gl, gu = bulk.gershgorin()
    gl2, gu2 = restricted.gershgorin()
    if min(gl, gl2) < a or max(gu, gu2) > b:
        raise EnclosureViolation("filter enclosure does not cover both operators")

    def difference(zvec):
        vb = np.zeros((nb,) + zvec.shape[1:], complex)
        vb[z_to_bulk] = zvec
        w_bulk = _cheb_apply(bulk.matrix, filt.coefficients, a, b, vb)[z_to_bulk]
        w_edge = _cheb_apply(restricted.matrix, filt.coefficients, a, b, zvec)
        return w_bulk - w_edge

    radii = np.asarray(sorted(radii), float)
    deviations = np.empty(len(radii))
    far_counts = np.empty(len(radii), int)
    for i, r in enumerate(radii):
        far = bd >= r
        far_counts[i] = int(far.sum())
        if far_counts[i] == 0:
            deviations[i] = 0.0
            continue

        def compressed(x):
            zvec = np.zeros(nz, complex)
            zvec[far] = x
            return difference(zvec)[far]

        deviations[i] = operator_norm(compressed, far_counts[i], hermitian=True,
                                      rtol=1e-3)

    exact_zero = None
    if filt.uniform_error == 0.0 and verify_bitwise:
        lattice = mask.lattice
        _certify_hop_range(bulk, lattice, "bulk")
        _certify_hop_range(restricted, lattice, "restricted")
        cone = filt.degree * restricted.h
        far = np.flatnonzero(bd > cone + 1e-12)
        reach = filt.degree * max(bulk.hop_range, restricted.hop_range)
        probes = _probes(far, restricted.sites[far], lattice, reach)
        width = max(1, VERIFY_BLOCK_BYTES // (16 * nb))  # complex columns
        exact = True  # vacuously, when there are no far sites
        for start in range(0, len(probes), width):
            block = probes[start:start + width]
            basis = np.zeros((nz, len(block)), complex)
            basis[np.concatenate(block),
                  np.repeat(np.arange(len(block)), [len(p) for p in block])] = 1.0
            if np.any(difference(basis)[far] != 0):
                exact = False
                break
        if exact:
            exact_zero = cone
    return AffiliationReport(filt.target_description, filt.degree, radii,
                             deviations, exact_zero, far_counts)


# ---------------------------------------------------------------------------
# multiplicativity defect of the compression


@dataclass(frozen=True, eq=False)
class IdealDefectProfile:
    """Norm profile of q(A)q(A') - q(AA') over collar radii."""

    radii: np.ndarray
    deviations: np.ndarray
    exact_zero_beyond: float | None


def ideal_multiplicativity(a_op: HermitianOperator, b_op: HermitianOperator,
                           mask: RegionMask, radii) -> IdealDefectProfile:
    """Support profile of the compression defect q(A)q(A') - q(AA').

    A and A' live on the same window; q compresses to the mask.  The defect
    is exactly supported within (d1 + d2) * h of the boundary: every term
    of the two products agrees for rows that far inside (the intermediate
    site cannot leave the region), and both products are evaluated by the
    same sparse kernel so the cancellation is bitwise.
    """
    if a_op.matrix.shape != b_op.matrix.shape or not np.array_equal(a_op.sites, b_op.sites):
        raise MaskMismatch("A and A' must share a window")
    z_rows = np.flatnonzero(mask.member[a_op.sites[:, 0], a_op.sites[:, 1]])
    az = a_op.matrix[z_rows][:, z_rows].tocsr()
    bz = b_op.matrix[z_rows][:, z_rows].tocsr()
    ab = (a_op.matrix @ b_op.matrix).tocsr()
    defect = (az @ bz - ab[z_rows][:, z_rows]).tocsr()
    defect.sum_duplicates()

    bd = mask.boundary_distance[a_op.sites[z_rows, 0], a_op.sites[z_rows, 1]]
    radii = np.asarray(sorted(radii), float)
    deviations = np.empty(len(radii))
    for i, r in enumerate(radii):
        far = np.flatnonzero(bd >= r)
        if far.size == 0:
            deviations[i] = 0.0
            continue
        sub = defect[far][:, far]
        subh = sub.getH().tocsr()
        deviations[i] = operator_norm(lambda x: sub @ x, far.size,
                                      adjoint_fn=lambda x: subh @ x, rtol=1e-3)

    cone = (a_op.hop_range + b_op.hop_range) * a_op.h
    far = np.flatnonzero(bd > cone + 1e-12)
    exact = None if np.any(defect[far][:, far].data) else cone
    return IdealDefectProfile(radii, deviations, exact)


# ---------------------------------------------------------------------------
# wideness


@dataclass(frozen=True, eq=False)
class WidenessCertificate:
    """Verdict on the translation property gY in Z minus the thickened complement."""

    entourage_radius: float
    verdict: str  # wide_proved | counterexample_found | inconclusive
    witness: str
    spot_checks_passed: int
    spot_checks_total: int
    details: dict


def _l1_ball(r_sites: int) -> np.ndarray:
    """Integer offsets (dx, dy) with |dx| + |dy| <= r_sites, as an (m, 2) array."""
    d = np.arange(-r_sites, r_sites + 1)
    dx, dy = np.meshgrid(d, d, indexing="ij")
    keep = np.abs(dx) + np.abs(dy) <= r_sites
    return np.column_stack([dx[keep], dy[keep]])


def _sample_bounded_set(rng, lattice: MagneticLattice, diameter: float) -> list:
    """Random site set of continuum L1 diameter <= diameter around a random window site."""
    h = lattice.h
    rad = max(int(np.floor(diameter / (2 * h))), 0)
    cx = int(rng.integers(0, lattice.n_x))
    cy = int(rng.integers(0, lattice.n_y))
    n_pts = int(rng.integers(1, 9))
    pts = {(cx, cy)}
    for _ in range(n_pts):
        dx = int(rng.integers(-rad, rad + 1))
        dy = int(rng.integers(-(rad - abs(dx)), rad - abs(dx) + 1))
        pts.add((cx + dx, cy + dy))
    return sorted(pts)


def wideness_check(region, r: float, lattice: MagneticLattice,
                   y_diameter: float | None = None, seed: int = 0) -> WidenessCertificate:
    """Can every bounded set be translated into Z away from the thickened complement?

    region is a shape or a RegionMask.  Both tests thicken by rho hops, the
    largest integer with rho * h <= r: a translated site is deep when its
    L1 rho-ball lies in Z.  A shape with a floor (half-plane, graph, balls
    decorating either: the complement lies above that level) is wide with
    the analytic rule "translate straight down past the thickened
    complement"; the rule is spot-verified on N_SPOT random bounded sets gY,
    each tested with its rho-balls by one call of the shape's `contains`.
    A disk yields counterexample_found: a set wider than the region cannot
    fit under any translation.  A mask is searched over every translation
    that keeps each of N_SEARCH_SETS sampled sets in the window, against
    the deep sites member & (boundary_distance >= rho * h): inconclusive
    when every set fits, counterexample_found when a set fits nowhere and
    the region is bounded inside the window.  Translations are the integer
    (continuum unit) lattice symmetries; the metric is continuum L1.
    """
    rng = np.random.default_rng(seed)
    h = lattice.h
    q = lattice.q
    y_diameter = r if y_diameter is None else y_diameter
    rho = int(r // h)
    if isinstance(region, RegionMask):
        return _mask_search(region, r, rho, lattice, y_diameter, rng)
    rule = getattr(region, "floor", lambda: None)()
    if rule is not None:
        level_min, name = rule
        ball = _l1_ball(rho)
        passed = 0
        for _ in range(N_SPOT):
            y_sites = _sample_bounded_set(rng, lattice, y_diameter)
            top = max(iy for (_, iy) in y_sites) * h
            gy = int(np.floor(level_min - r - top)) - 1
            pts = (np.asarray(y_sites) + (0, gy * q))[:, None, :] + ball
            if region.contains(pts[..., 0], pts[..., 1], q, lattice.period_x).all():
                passed += 1
        verdict = "wide_proved" if passed == N_SPOT else "inconclusive"
        witness = (f"g(Y) = (0, floor({name} - r - max_y(Y)) - 1): translate below "
                   f"the thickened complement")
        return WidenessCertificate(r, verdict, witness, passed, N_SPOT,
                                   {"rule_base_level": level_min})
    if isinstance(region, DiskShape):
        needed = 2.0 * region.radius
        diam = max(y_diameter, needed + 2 * h)
        span = int(np.floor(diam / (2 * h)))
        witness_y = [(0, 0), (2 * span, 0)]
        return WidenessCertificate(
            r, "counterexample_found",
            f"Y of L1 diameter {2 * span * h:g} exceeds the region diameter "
            f"{needed:g}; no translation fits (witness Y = {witness_y})",
            0, 0, {"y_diameter": 2 * span * h, "region_diameter": needed})
    raise UnsupportedShape(f"no wideness rule for {region!r} (a site-list region "
                           "needs its mask)")


def _mask_search(mask: RegionMask, r: float, rho: int, lattice: MagneticLattice,
                 y_diameter: float, rng) -> WidenessCertificate:
    """Every window translation of each sampled Y, tested in one array expression."""
    member = mask.member
    deep = member & (mask.boundary_distance >= rho * lattice.h)
    n_x, n_y, q = lattice.n_x, lattice.n_y, lattice.q
    gx = np.arange(-lattice.cells_x, lattice.cells_x + 1)[:, None] * q
    gy = np.arange(-lattice.cells_y, lattice.cells_y + 1)[None, :] * q
    touches_edge = (member[0].any() or member[-1].any()
                    or member[:, 0].any() or member[:, -1].any())
    for _ in range(N_SEARCH_SETS):
        y_sites = _sample_bounded_set(rng, lattice, y_diameter)
        y = np.asarray(y_sites)
        # axes (site of Y, x translation, y translation)
        jx, jy = y[:, 0, None, None] + gx, y[:, 1, None, None] + gy
        inside = (jx >= 0) & (jx < n_x) & (jy >= 0) & (jy < n_y)
        if not (inside & deep[np.clip(jx, 0, n_x - 1),
                              np.clip(jy, 0, n_y - 1)]).all(axis=0).any():
            break
    else:
        return WidenessCertificate(r, "inconclusive",
                                   "every sampled Y has a window translation onto deep "
                                   "sites (search success is not a proof)",
                                   N_SEARCH_SETS, N_SEARCH_SETS, {})
    if not touches_edge:
        return WidenessCertificate(r, "counterexample_found",
                                   f"region is bounded inside the window and Y = {y_sites} "
                                   "admits no translation",
                                   0, 0, {"failed_y": y_sites})
    return WidenessCertificate(r, "inconclusive",
                               f"no translation found for Y = {y_sites} but the region "
                               "touches the window edge (window too small)",
                               0, 0, {"failed_y": y_sites})
