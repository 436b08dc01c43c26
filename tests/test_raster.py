import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycam.raster import SilhouetteCanvas


def full_field_capsule(x0, y0, width, height, a, b, radius):
    """The rasteriser before windowing: a distance field over the whole patch."""
    mask = np.zeros((height, width), dtype=bool)
    if radius <= 0:
        return mask
    ys = np.arange(y0, y0 + height, dtype=np.float64)
    xs = np.arange(x0, x0 + width, dtype=np.float64)
    py, px = np.meshgrid(ys + 0.5, xs + 0.5, indexing="ij")
    ay, ax, by, bx = a[1], a[0], b[1], b[0]
    dy, dx = by - ay, bx - ax
    seg_len2 = dy * dy + dx * dx
    if seg_len2 <= 0.0:
        d = np.hypot(py - ay, px - ax)
    else:
        t = np.clip(((py - ay) * dy + (px - ax) * dx) / seg_len2, 0.0, 1.0)
        d = np.hypot(py - (ay + t * dy), px - (ax + t * dx))
    return d <= radius


def full_field_disc(x0, y0, width, height, center, radius):
    mask = np.zeros((height, width), dtype=bool)
    if radius <= 0:
        return mask
    ys = np.arange(y0, y0 + height, dtype=np.float64)
    xs = np.arange(x0, x0 + width, dtype=np.float64)
    py, px = np.meshgrid(ys + 0.5, xs + 0.5, indexing="ij")
    return np.hypot(py - center[1], px - center[0]) <= radius


FRAME_W, FRAME_H = 320, 240

coord = st.floats(-60.0, 380.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
radius = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 40.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, 0.75, 1.0, 2.0]),
)


@st.composite
def patches(draw):
    """A patch clipped to the frame, often touching a frame edge."""
    x0 = draw(st.one_of(st.just(0), st.integers(0, FRAME_W - 1)))
    y0 = draw(st.one_of(st.just(0), st.integers(0, FRAME_H - 1)))
    width = draw(st.one_of(st.just(FRAME_W - x0), st.integers(1, FRAME_W - x0)))
    height = draw(st.one_of(st.just(FRAME_H - y0), st.integers(1, FRAME_H - y0)))
    return x0, y0, width, height


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(["capsule", "point-capsule", "disc"]))
    a = draw(point)
    if kind == "disc":
        return ("disc", a, draw(radius))
    if kind == "point-capsule":
        return ("capsule", a, a, draw(radius))
    # segments that are short, pixel-aligned or long all occur
    b = draw(st.one_of(point, st.tuples(st.just(a[0]), coord), st.tuples(coord, st.just(a[1]))))
    return ("capsule", a, b, draw(radius))


class TestSilhouetteCanvas:
    @settings(max_examples=400, deadline=None)
    @given(patches(), st.lists(shapes(), min_size=1, max_size=6))
    def test_equals_full_field_reference(self, patch, drawn):
        x0, y0, width, height = patch
        canvas = SilhouetteCanvas(x0, y0, width, height)
        expected = np.zeros((height, width), dtype=bool)
        for shape in drawn:
            if shape[0] == "disc":
                _, center, r = shape
                canvas.add_disc(np.array(center), r)
                expected |= full_field_disc(x0, y0, width, height, np.array(center), r)
            else:
                _, a, b, r = shape
                canvas.add_capsule(np.array(a), np.array(b), r)
                expected |= full_field_capsule(
                    x0, y0, width, height, np.array(a), np.array(b), r
                )
        assert np.array_equal(canvas.mask, expected)

    def test_shapes_wholly_outside_paint_nothing(self):
        canvas = SilhouetteCanvas(100, 100, 40, 40)
        canvas.add_capsule(np.array([0.0, 0.0]), np.array([50.0, 20.0]), 5.0)
        canvas.add_disc(np.array([300.0, 300.0]), 30.0)
        assert not canvas.mask.any()

    def test_shape_just_beyond_its_radius_stays_out(self):
        # pixel centre (10.5, 10.5) sits exactly at distance 3 from the disc
        canvas = SilhouetteCanvas(0, 0, 20, 20)
        canvas.add_disc(np.array([10.5, 13.5]), 3.0)
        assert canvas.mask[10, 10]
        canvas = SilhouetteCanvas(0, 0, 20, 20)
        canvas.add_disc(np.array([10.5, 13.5]), math.nextafter(3.0, 0.0))
        assert not canvas.mask[10, 10]

    def test_non_finite_shapes_paint_nothing(self):
        canvas = SilhouetteCanvas(0, 0, 20, 20)
        canvas.add_capsule(np.array([5.0, np.nan]), np.array([10.0, 10.0]), 3.0)
        canvas.add_capsule(np.array([np.inf, 5.0]), np.array([10.0, 10.0]), 3.0)
        canvas.add_disc(np.array([np.nan, 5.0]), 3.0)
        canvas.add_disc(np.array([5.0, 5.0]), float("nan"))
        assert not canvas.mask.any()

    def test_infinite_radius_fills_the_patch(self):
        canvas = SilhouetteCanvas(10, 10, 8, 6)
        canvas.add_capsule(np.array([0.0, 0.0]), np.array([1.0, 1.0]), math.inf)
        assert canvas.mask.all()
