"""One membership rule per shape: `contains` against the three rules it replaced.

The oracles below are test-local copies of the window-mask rule, the
strip-mask rule and the wideness predicate as they stood before the shape
classes carried `contains`.  Each must agree with the shared rule bitwise
wherever it was defined; the x-wrap of ball distances is the one place the
window rule changes, and only on an x-periodic window.
"""

import numpy as np
import pytest

from gapfill.coarse import wideness_check
from gapfill.edge import make_strip, strip_mask
from gapfill.errors import UnsupportedShape
from gapfill.model import (BallsShape, DiskShape, GraphShape, HalfPlaneShape,
                           MagneticLattice, make_mask)


def oracle_window_member(lattice, shape):
    """The window-mask rule: no wrap, base members read from a whole mask."""
    h = lattice.h
    ix, iy = np.meshgrid(np.arange(lattice.n_x), np.arange(lattice.n_y), indexing="ij")
    x = ix * h
    y = iy * h
    if isinstance(shape, HalfPlaneShape):
        return y <= shape.level
    if isinstance(shape, GraphShape):
        return y <= shape.samples(lattice.q)[ix % lattice.q]
    if isinstance(shape, BallsShape):
        member = oracle_window_member(lattice, shape.base).copy()
        for (cx, cy) in shape.centers:
            member |= (x - cx) ** 2 + (y - cy) ** 2 <= shape.radius ** 2
        return member
    cx, cy = shape.center
    return (x - cx) ** 2 + (y - cy) ** 2 <= shape.radius ** 2


def oracle_strip_member(strip):
    """The strip-mask rule: ball x-distances wrapped modulo the strip length."""
    lat = strip.lattice
    ix, iy = np.meshgrid(np.arange(lat.n_x), np.arange(lat.n_y), indexing="ij")
    y = iy * lat.h
    x = ix * lat.h
    shape = strip.shape
    if isinstance(shape, HalfPlaneShape):
        member = y <= shape.level
    elif isinstance(shape, GraphShape):
        member = y <= shape.samples(lat.q)[ix % lat.q]
    else:
        member = y <= shape.base.level
        for (cx, cy) in shape.centers:
            dx = np.minimum(np.abs(x - cx) % lat.cells_x,
                            lat.cells_x - np.abs(x - cx) % lat.cells_x)
            member |= dx ** 2 + (y - cy) ** 2 <= shape.radius ** 2
    member &= y >= 1.0
    return member


def oracle_site_member(descriptor, lattice):
    """The wideness predicate: one site at a time, any integer coordinates."""
    h = lattice.h
    if isinstance(descriptor, HalfPlaneShape):
        return lambda ix, iy: iy * h <= descriptor.level
    if isinstance(descriptor, GraphShape):
        f = np.asarray(descriptor.f_samples, float)
        q = lattice.q
        return lambda ix, iy: iy * h <= f[ix % q]
    if isinstance(descriptor, BallsShape):
        base = oracle_site_member(descriptor.base, lattice)
        r2 = descriptor.radius ** 2

        def fn(ix, iy):
            if base(ix, iy):
                return True
            x, y = ix * h, iy * h
            return any((x - cx) ** 2 + (y - cy) ** 2 <= r2
                       for (cx, cy) in descriptor.centers)
        return fn
    cx, cy = descriptor.center
    r2 = descriptor.radius ** 2
    return lambda ix, iy: (ix * h - cx) ** 2 + (iy * h - cy) ** 2 <= r2


def window_shapes(q):
    """One shape of every kind on the 6x6-cell window.

    Each boundary passes through sites at y = L, the smaller of 20 * (1.0 / q)
    and 20 / q.  At q = 6 the two differ in the last bit, so only the rule's
    own expression x = ix * h, y = iy * h reproduces the oracles there.
    """
    level = min(20 * (1.0 / q), 20 / q)
    f = tuple(level + 0.5 * np.sin(2 * np.pi * np.arange(q) / q))
    return {
        "half_plane": HalfPlaneShape(level),
        "graph": GraphShape(f),
        "balls": BallsShape(HalfPlaneShape(level), 1.0 / 3.0,
                            tuple((float(c), level + 0.25) for c in range(7))),
        "disk": DiskShape((3.0, 0.0), level),
    }


KINDS = ("half_plane", "graph", "balls", "disk")


@pytest.mark.parametrize("q", [6, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_masked_window_matches_window_rule(kind, q):
    lat = MagneticLattice(1, q, 6, 6, "masked")
    shape = window_shapes(q)[kind]
    member = make_mask(lat, shape).member
    assert np.array_equal(member, oracle_window_member(lat, shape))
    assert member.any() and not member.all()


@pytest.mark.parametrize("q", [6, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_unbounded_grid_matches_site_predicate(kind, q):
    # 20 sites past the 6x6-cell window on every side
    lat = MagneticLattice(1, q, 6, 6, "masked")
    shape = window_shapes(q)[kind]
    ix, iy = np.meshgrid(np.arange(-20, lat.n_x + 20), np.arange(-20, lat.n_y + 20),
                         indexing="ij")
    got = shape.contains(ix, iy, lat.q)
    member = oracle_site_member(shape, lat)
    want = np.array([[bool(member(int(a), int(b))) for b in iy[0]] for a in ix[:, 0]])
    assert got.shape == ix.shape
    assert np.array_equal(got, want)


def strip_shapes(length):
    f = tuple(0.25 * np.sin(2 * np.pi * np.arange(4) / 4))
    return {
        "flat": None,
        "graph": GraphShape(f),
        "balls_closed": BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0,
                                   tuple((float(c), 1.0) for c in range(length + 1))),
        "balls_open": BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0,
                                 tuple((float(c), 1.0) for c in range(length))),
        "one_ball": BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0, ((0.0, 1.0),)),
    }


@pytest.mark.parametrize("kind", ["flat", "graph", "balls_closed", "balls_open",
                                  "one_ball"])
def test_strip_matches_strip_rule(kind):
    strip = make_strip(1, 4, 16, 48, shape=strip_shapes(48)[kind])
    mask = strip_mask(strip)
    assert np.array_equal(mask.member, oracle_strip_member(strip))


def test_wrap_matters_only_for_ball_sets_not_closed_under_it():
    # 49 centers (x = 0..48, what the CLI builds) are closed under the wrap,
    # 48 centers are not: the ball at x = 0 also covers x = 47.75
    shapes = strip_shapes(48)
    for kind, differs in (("balls_closed", False), ("balls_open", True)):
        strip = make_strip(1, 4, 16, 48, shape=shapes[kind])
        unwrapped = oracle_window_member(strip.lattice, strip.shape)
        unwrapped &= (np.arange(strip.lattice.n_y) * strip.lattice.h >= 1.0)
        assert (not np.array_equal(strip_mask(strip).member, unwrapped)) == differs


@pytest.mark.parametrize("shape", [
    BallsShape(HalfPlaneShape(0.0), 1.0 / 3.0, ((0.0, 1.0),)),
    DiskShape((0.0, 1.0), 1.0 / 3.0),
])
def test_torus_ball_covers_the_seam(shape):
    # 2x2-cell q=4 torus: the site at x = 1.75 is 0.25 from x = 0 across the seam
    lat = MagneticLattice(1, 4, 2, 2, "torus")
    member = make_mask(lat, shape).member
    assert member[1, 4] and member[7, 4]
    assert not oracle_window_member(lat, shape)[7, 4]
    # an open window of the same size has no seam
    assert not make_mask(MagneticLattice(1, 4, 2, 2, "masked"), shape).member[7, 4]


@pytest.mark.parametrize("descriptor", ["explicit", [(0, 0), (1, 1), (2, 2)],
                                        ("strip", None)])
def test_unsupported_descriptor_is_named(descriptor):
    with pytest.raises(UnsupportedShape, match="no membership rule"):
        make_mask(MagneticLattice(1, 4, 2, 2, "masked"), descriptor)


def test_explicit_wideness_without_mask_is_named():
    lat = MagneticLattice(1, 4, 2, 2, "masked")
    with pytest.raises(UnsupportedShape, match="needs its mask"):
        wideness_check([(0, 0), (1, 1), (2, 2)], 1.0, lat)
