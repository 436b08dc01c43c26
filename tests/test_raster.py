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
    kind = draw(st.sampled_from(["capsule", "point-capsule", "zero-length-capsule", "disc"]))
    a = draw(point)
    if kind == "disc":
        return ("disc", a, draw(radius))
    if kind == "point-capsule":
        return ("capsule", a, a, draw(radius))
    if kind == "zero-length-capsule":
        # distinct ends whose squared length underflows to 0: the test
        # falls back to the distance from `a`, as for a point
        a = (draw(st.sampled_from([0.0, -0.0])), a[1])
        return ("capsule", a, (a[0] + 1e-170, a[1]), draw(radius))
    # segments that are short, pixel-aligned or long all occur
    b = draw(st.one_of(point, st.tuples(st.just(a[0]), coord), st.tuples(coord, st.just(a[1]))))
    return ("capsule", a, b, draw(radius))


def reference(patch, drawn):
    x0, y0, width, height = patch
    expected = np.zeros((height, width), dtype=bool)
    for shape in drawn:
        if shape[0] == "disc":
            _, center, r = shape
            expected |= full_field_disc(x0, y0, width, height, np.array(center), r)
        else:
            _, a, b, r = shape
            expected |= full_field_capsule(x0, y0, width, height, np.array(a), np.array(b), r)
    return expected


def paint(patch_list, tagged):
    """One canvas, one `paint`: each shape goes to the patch it is tagged with."""
    canvas = SilhouetteCanvas()
    ids = [canvas.patch(*patch) for patch in patch_list]
    for index, shape in tagged:
        if shape[0] == "disc":
            canvas.add_disc(ids[index], np.array(shape[1]), shape[2])
        else:
            canvas.add_capsule(ids[index], np.array(shape[1]), np.array(shape[2]), shape[3])
    return canvas.paint()


def paint_one(patch, *drawn):
    return paint([patch], [(0, shape) for shape in drawn])[0]


@st.composite
def patches_and_tagged_shapes(draw):
    patch_list = draw(st.lists(patches(), min_size=1, max_size=4))
    tagged = draw(
        st.lists(
            st.tuples(st.integers(0, len(patch_list) - 1), shapes()), min_size=1, max_size=10
        )
    )
    return patch_list, tagged


class TestSilhouetteCanvas:
    @settings(max_examples=400, deadline=None)
    @given(patches_and_tagged_shapes())
    def test_equals_full_field_reference(self, case):
        # several patches in one pass: a wrong flat offset would paint a
        # shape into a neighbouring patch, or a neighbouring window's row
        patch_list, tagged = case
        masks = paint(patch_list, tagged)
        assert len(masks) == len(patch_list)
        for index, (patch, mask) in enumerate(zip(patch_list, masks)):
            own = [shape for tag, shape in tagged if tag == index]
            assert np.array_equal(mask, reference(patch, own)), index

    def test_shapes_past_one_pass_equal_the_reference(self):
        # more window pixels than one pass holds: the shapes are split
        # over several passes, each patch still gets exactly its own shapes
        rng = np.random.default_rng(3)
        patch_list = [(0, 0, 320, 240), (40, 30, 200, 150), (250, 10, 70, 230)]
        tagged = []
        for _ in range(60):
            a, b = rng.uniform(-20.0, 340.0, 2), rng.uniform(-20.0, 340.0, 2)
            tagged.append((int(rng.integers(3)), ("capsule", tuple(a), tuple(b), rng.uniform(0.5, 12.0))))
            tagged.append((int(rng.integers(3)), ("disc", tuple(a), rng.uniform(0.5, 20.0))))
        masks = paint(patch_list, tagged)
        for index, (patch, mask) in enumerate(zip(patch_list, masks)):
            own = [shape for tag, shape in tagged if tag == index]
            assert np.array_equal(mask, reference(patch, own)), index

    def test_empty_canvas_paints_empty_patches(self):
        assert SilhouetteCanvas().paint() == []
        canvas = SilhouetteCanvas()
        canvas.patch(5, 5, 3, 2)
        (mask,) = canvas.paint()
        assert mask.shape == (2, 3) and not mask.any()

    def test_shapes_wholly_outside_paint_nothing(self):
        mask = paint_one(
            (100, 100, 40, 40),
            ("capsule", (0.0, 0.0), (50.0, 20.0), 5.0),
            ("disc", (300.0, 300.0), 30.0),
        )
        assert not mask.any()

    def test_shape_just_beyond_its_radius_stays_out(self):
        # pixel centre (10.5, 10.5) sits exactly at distance 3 from the disc
        assert paint_one((0, 0, 20, 20), ("disc", (10.5, 13.5), 3.0))[10, 10]
        beyond = paint_one((0, 0, 20, 20), ("disc", (10.5, 13.5), math.nextafter(3.0, 0.0)))
        assert not beyond[10, 10]

    def test_non_finite_shapes_paint_nothing(self):
        mask = paint_one(
            (0, 0, 20, 20),
            ("capsule", (5.0, np.nan), (10.0, 10.0), 3.0),
            ("capsule", (10.0, 10.0), (5.0, np.nan), 3.0),
            ("capsule", (np.inf, 5.0), (10.0, 10.0), 3.0),
            ("disc", (np.nan, 5.0), 3.0),
            ("disc", (5.0, 5.0), float("nan")),
            ("disc", (5.0, 5.0), math.inf * 0.0),
        )
        assert not mask.any()

    def test_infinite_radius_fills_the_patch(self):
        mask = paint_one((10, 10, 8, 6), ("capsule", (0.0, 0.0), (1.0, 1.0), math.inf))
        assert mask.all()
