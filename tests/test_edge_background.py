import math

import numpy as np
import pytest

import proxycam.edge.background as background_module
from proxycam.edge.background import (
    EMA_ALPHA,
    NEVER_SEEN_FILL,
    BackgroundModel,
    erase,
    update_background,
)
from proxycam.errors import ValidationError


def flat(color, h=60, w=80):
    frame = np.empty((h, w, 3), dtype=np.uint8)
    frame[:] = color
    return frame


def layouts(image):
    """Equal copies of an (H, W, ...) array in the layouts a caller may
    pass: C order, Fortran order, negative strides, and a cropped view."""
    h, w = image.shape[:2]
    flipped = np.ascontiguousarray(image[::-1, ::-1])[::-1, ::-1]
    framed = np.zeros((h + 3, w + 2) + image.shape[2:], image.dtype)
    framed[1:-2, 2:] = image
    return [image, np.asfortranarray(image), flipped, framed[1:-2, 2:]]


def mask_forms(mask):
    """One boolean mask as bool and as uint8 0/1, each in every layout."""
    return [form for m in (mask, mask.astype(np.uint8)) for form in layouts(m)]


class TestErase:
    def test_zero_mask_is_identity(self):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        model = BackgroundModel.create(80, 60)
        out = erase(frame, np.zeros((60, 80), bool), model)
        assert np.array_equal(out, frame)

    def test_all_mask_fresh_model_is_mid_gray(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        model = BackgroundModel.create(80, 60)
        out = erase(frame, np.ones((60, 80), bool), model)
        assert np.all(out == 128)

    def test_masked_content_cannot_influence_output(self):
        # forced by the independence contract: identical outside the mask,
        # arbitrary inside
        rng = np.random.default_rng(2)
        frame_a = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        mask = np.zeros((60, 80), bool)
        mask[10:40, 20:60] = True
        frame_b = frame_a.copy()
        frame_b[mask] = rng.integers(0, 256, (int(mask.sum()), 3), dtype=np.uint8)
        model = BackgroundModel(
            accum=rng.uniform(0, 255, (60, 80, 3)),
            seen=rng.random((60, 80)) < 0.5,
        )
        assert np.array_equal(erase(frame_a, mask, model), erase(frame_b, mask, model))

    def test_dimension_mismatch_rejected(self):
        model = BackgroundModel.create(80, 60)
        with pytest.raises(ValidationError):
            erase(flat(10, h=50, w=80), np.zeros((50, 80), bool), model)
        with pytest.raises(ValidationError):
            erase(flat(10), np.zeros((59, 80), bool), model)

    def test_equals_boolean_mask_formula(self):
        # erase gathers the masked pixels once; it must give the bytes of
        # the plain boolean-mask formula it replaces
        def reference(frame, mask, model):
            out = frame.copy()
            vals = np.clip(np.rint(model.accum[mask]), 0, 255).astype(np.uint8)
            vals[~model.seen[mask]] = NEVER_SEEN_FILL
            out[mask] = vals
            return out

        # every frame layout and mask form, 1x1 frames, all- and
        # none-masked frames, and never-seen pixels, fresh models included
        rng = np.random.default_rng(4)
        sizes = [(1, 1), (1, 7), (5, 1)]
        sizes += [(int(rng.integers(1, 90)), int(rng.integers(1, 120))) for _ in range(37)]
        for trial, (h, w) in enumerate(sizes):
            frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            # estimates beyond [0, 255] and at .5 exercise the clip and the rounding
            accum = rng.uniform(-40.0, 300.0, (h, w, 3))
            accum[rng.random((h, w, 3)) < 0.2] = rng.integers(0, 255) + 0.5
            seen = [np.zeros((h, w), bool), rng.random((h, w)) < 0.6][trial % 4 != 0]
            model = BackgroundModel(accum=accum, seen=seen)
            mask = [
                np.zeros((h, w), bool),
                np.ones((h, w), bool),
                rng.random((h, w)) < rng.uniform(0.0, 1.0),
            ][trial % 3]
            expected = reference(frame, mask, model)
            before = accum.copy()
            for frame_view in layouts(frame):
                for mask_form in mask_forms(mask):
                    out = erase(frame_view, mask_form, model)
                    assert out.tobytes() == expected.tobytes(), trial
            assert np.array_equal(model.accum, before)  # the model is only read


class TestUpdateBackground:
    def test_constant_background_is_a_fixed_point(self):
        frame = flat((40, 90, 160))
        model = BackgroundModel.create(80, 60)
        empty = np.zeros((60, 80), bool)
        for _ in range(100):
            update_background(model, frame, empty)
        assert np.all(np.abs(model.accum - frame.astype(np.float64)) <= 1.0)
        assert model.seen.all()

    def test_always_masked_pixel_stays_unseen(self):
        frame = flat(200)
        model = BackgroundModel.create(80, 60)
        mask = np.zeros((60, 80), bool)
        mask[5, 5] = True
        for _ in range(50):
            update_background(model, frame, mask)
        assert not model.seen[5, 5]
        assert model.seen[0, 0]

    def test_step_change_converges_at_the_closed_form_rate(self):
        # EMA error after n updates is 255 * 0.95^n; below one unit needs
        # ceil(log(1/255)/log(0.95)) = 109 updates
        gray, white = flat(0), flat(255)
        model = BackgroundModel.create(80, 60)
        empty = np.zeros((60, 80), bool)
        update_background(model, gray, empty)  # seeds accum at 0
        n = math.ceil(math.log(1 / 255) / math.log(0.95))
        assert n == 109
        for _ in range(n):
            update_background(model, white, empty)
        assert np.all(np.abs(model.accum - 255.0) <= 1.0)

    def test_first_observation_seeds_exactly(self):
        frame = flat((7, 77, 177))
        model = BackgroundModel.create(80, 60)
        update_background(model, frame, np.zeros((60, 80), bool))
        assert np.array_equal(model.accum, frame.astype(np.float64))

    def test_equals_boolean_mask_formula(self, monkeypatch):
        # update_background works in place over the whole frame; it must
        # give the bits of the boolean-mask formula it replaces, at the
        # module's EMA_ALPHA and at other rates put in its place
        def reference(model, frame, mask, alpha):
            observe = ~mask
            first = observe & ~model.seen
            rest = observe & model.seen
            f = frame.astype(np.float64)
            model.accum[first] = f[first]
            model.accum[rest] = (1.0 - alpha) * model.accum[rest] + alpha * f[rest]
            model.seen[first] = True

        # frames and masks in every layout and form, as the erase test
        rng = np.random.default_rng(5)
        sizes = [(1, 1), (1, 7), (5, 1), (3, 3)]
        sizes += [(int(rng.integers(1, 90)), int(rng.integers(1, 120))) for _ in range(16)]
        for trial, (h, w) in enumerate(sizes):
            if trial % 2:
                accum, seen = rng.uniform(-40.0, 300.0, (h, w, 3)), rng.random((h, w)) < 0.6
            else:
                accum, seen = np.zeros((h, w, 3)), np.zeros((h, w), bool)  # fresh
            model = BackgroundModel(accum=accum, seen=seen)
            ref = BackgroundModel(accum=accum.copy(), seen=seen.copy())
            for step in range(6):
                frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
                mask = [
                    np.zeros((h, w), bool),
                    np.ones((h, w), bool),
                    rng.random((h, w)) < rng.uniform(0.0, 1.0),
                ][(trial + step) % 3]
                alpha = [0.0, 1.0, float(rng.random()), EMA_ALPHA][(trial + 2 * step) % 4]
                monkeypatch.setattr(background_module, "EMA_ALPHA", alpha)
                frame_view = layouts(frame)[(trial + step) % 4]
                mask_form = mask_forms(mask)[(trial + 3 * step) % 8]
                assert update_background(model, frame_view, mask_form) is model
                reference(ref, frame, mask, alpha)
                assert model.accum.tobytes() == ref.accum.tobytes(), (trial, step)
                assert np.array_equal(model.seen, ref.seen), (trial, step)

    def test_masked_pixels_never_reach_the_model(self):
        # two frames equal outside the mask, arbitrary inside, must leave
        # byte-identical models, on the first frame and on a later one
        rng = np.random.default_rng(6)
        h, w = 37, 53
        model_a = BackgroundModel.create(w, h)
        model_b = BackgroundModel.create(w, h)
        for step in range(4):
            frame_a = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            mask = rng.random((h, w)) < 0.3
            frame_b = frame_a.copy()
            frame_b[mask] = rng.integers(0, 256, (int(mask.sum()), 3), dtype=np.uint8)
            assert not np.array_equal(frame_a, frame_b)
            update_background(model_a, frame_a, mask)
            update_background(model_b, frame_b, mask)
            assert model_a.accum.tobytes() == model_b.accum.tobytes(), step
            assert np.array_equal(model_a.seen, model_b.seen), step

    def test_model_storage_is_normalised(self, monkeypatch):
        # the update writes through a flat view of accum, so the model keeps
        # it C-contiguous float64 whatever it is built from
        monkeypatch.setattr(background_module, "EMA_ALPHA", 0.5)
        rng = np.random.default_rng(7)
        accum = np.asfortranarray(rng.uniform(0.0, 255.0, (6, 9, 3)).astype(np.float32))
        model = BackgroundModel(accum=accum, seen=np.zeros((9, 6), bool).T)
        assert model.accum.dtype == np.float64 and model.accum.flags.c_contiguous
        assert model.seen.flags.c_contiguous
        frame = rng.integers(0, 256, (6, 9, 3), dtype=np.uint8)
        update_background(model, frame, np.zeros((6, 9), bool))
        assert np.array_equal(model.accum, frame.astype(np.float64))  # all first-seen
        update_background(model, flat(0, h=6, w=9), np.zeros((6, 9), bool))
        assert np.array_equal(model.accum, 0.5 * frame.astype(np.float64))

    def test_malformed_model_rejected(self):
        with pytest.raises(ValidationError):
            BackgroundModel(accum=np.zeros((4, 5)), seen=np.zeros((4, 5), bool))
        with pytest.raises(ValidationError):
            BackgroundModel(accum=np.zeros((4, 5, 3)), seen=np.zeros((5, 4), bool))
