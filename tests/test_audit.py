import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxycam.audit.attack import (
    AttackGallery,
    GalleryActor,
    _wire_features,
    build_gallery,
    identity_attack,
)
from proxycam.audit.independence import mask_independence_audit, random_mask
from proxycam.audit.leakscan import LeakScanResult, _inside_patches, pixel_leak_scan
from proxycam.edge.background import erase
from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.errors import ValidationError
from proxycam.pngio import encode_png
from proxycam.raster import embed
from proxycam.runner import build_tuple
from proxycam.sim.generate import generate_scene
from proxycam.sim.scripts import make_solo_scene

from conftest import joint_mask_of


class TestIndependenceAudit:
    def test_shipped_erase_never_fails(self):
        result = mask_independence_audit(trials=200, seed=5, width=160, height=120)
        assert result.failures == 0
        assert result.trials == 200

    def test_broken_erase_is_caught(self):
        def leaky_erase(frame, joint_mask, model):
            out = erase(frame, joint_mask, model)
            ys, xs = np.nonzero(joint_mask)
            # deliberately copy one masked input pixel through
            out[ys[0], xs[0]] = frame[ys[0], xs[0]]
            return out

        result = mask_independence_audit(
            trials=50, seed=5, width=160, height=120, erase_fn=leaky_erase
        )
        assert result.failures >= 1
        assert result.first_failure_trial is not None

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            mask_independence_audit(trials=0, seed=1)

    def test_masks_have_bounded_coverage(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mask = random_mask(rng, 320, 240)
            assert 0.01 <= mask.mean() <= 0.60

    def test_deterministic_given_seed(self):
        a = mask_independence_audit(trials=50, seed=9, width=160, height=120)
        b = mask_independence_audit(trials=50, seed=9, width=160, height=120)
        assert a == b


def full_image_leak_scan(env, raw, mask):
    """The leak scan as first written: statistics for every 8x8 patch of
    the image, then the peak over the patches lying inside the mask."""
    from numpy.lib.stride_tricks import sliding_window_view

    from proxycam.raster import luminance

    def stats(values):
        windows = sliding_window_view(values, (8, 8))
        flat = windows.reshape(*windows.shape[:2], 64)
        centered = flat - flat.mean(axis=2)[:, :, None]
        return centered, (centered * centered).mean(axis=2)

    inside = sliding_window_view(mask, (8, 8)).all(axis=(2, 3))
    if not inside.any():
        return LeakScanResult(max_correlation=0.0, location=None, patches_scanned=0)
    env_c, env_var = stats(luminance(env))
    raw_c, raw_var = stats(luminance(raw))
    cov = (env_c * raw_c).mean(axis=2)
    denom = np.sqrt(env_var * raw_var)
    corr = np.where(denom > 1e-12, cov / np.maximum(denom, 1e-12), 0.0)
    corr = np.where(inside, corr, -np.inf)
    py, px = np.unravel_index(int(np.argmax(corr)), corr.shape)
    return LeakScanResult(
        max_correlation=float(corr[py, px]),
        location=(int(px), int(py)),
        patches_scanned=int(inside.sum()),
    )


class TestLeakScan:
    def _tuple_with_env(self, env, fid=0):
        from proxycam.transport.model import RepresentationTuple, SyncKey

        return RepresentationTuple(
            key=SyncKey(0, fid, 0),
            env_png=encode_png(env),
            poses=[],
        )

    def test_constant_fill_does_not_correlate(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        env = np.full((60, 80, 3), 128, dtype=np.uint8)
        mask = np.ones((60, 80), bool)
        result = pixel_leak_scan(self._tuple_with_env(env), raw, mask)
        assert result.max_correlation < 0.9
        # a constant env patch has zero variance: correlation 0 by convention
        assert result.max_correlation == 0.0

    def test_unmasked_patches_excluded(self):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        env = raw.copy()  # byte-identical: would correlate perfectly
        mask = np.zeros((60, 80), bool)  # nothing masked: nothing scanned
        result = pixel_leak_scan(self._tuple_with_env(env), raw, mask)
        assert result.patches_scanned == 0
        assert result.max_correlation == 0.0

    def test_identical_textured_patch_detected(self):
        rng = np.random.default_rng(2)
        raw = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        env = raw.copy()
        mask = np.ones((60, 80), bool)
        result = pixel_leak_scan(self._tuple_with_env(env), raw, mask)
        assert result.max_correlation > 0.99

    def test_pipeline_output_is_uncorrelated(self, fall_scene):
        frames, gts = generate_scene(fall_scene)
        state = EdgeState(fall_scene.width, fall_scene.height)
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            out = process_frame(state, frame, gt)
            t = build_tuple(out, 0, i, 0)
            result = pixel_leak_scan(t, frame, joint_mask_of(gt))
            assert result.max_correlation < 0.9, f"frame {i}"

    def test_dimension_mismatch_rejected(self):
        raw = np.zeros((60, 80, 3), dtype=np.uint8)
        env = np.zeros((50, 80, 3), dtype=np.uint8)
        with pytest.raises(ValidationError):
            pixel_leak_scan(self._tuple_with_env(env), raw, np.ones((60, 80), bool))

    def test_equals_full_image_scan(self):
        # the scan scores only patches inside the mask; it must find the
        # same peak, at the same place, as scoring every patch of the image
        rng = np.random.default_rng(3)
        for trial in range(20):
            raw = rng.integers(0, 256, (240, 320, 3), dtype=np.uint8)
            env = raw.copy()
            mask = np.zeros((240, 320), bool)
            for _ in range(rng.integers(1, 5)):
                y, x = rng.integers(0, 200), rng.integers(0, 280)
                mask[y : y + rng.integers(4, 80), x : x + rng.integers(4, 80)] = True
            # partly scrubbed, partly leaking, and flat stretches that tie at 0
            scrub = rng.random((240, 320)) < 0.5
            env[scrub & mask] = rng.integers(0, 256, (int((scrub & mask).sum()), 3))
            env[100:140, 100:200] = 128
            if trial % 4 == 0:
                env[mask] = raw[mask]  # many equal peaks: the first must win
            result = pixel_leak_scan(self._tuple_with_env(env, trial), raw, mask)
            expected = full_image_leak_scan(env, raw, mask)
            assert result == expected, f"trial {trial}"

        # masks that reach the right and bottom borders, strips thinner than
        # a patch, exactly one patch, and a uint8 0/1 mask
        borders = np.zeros((240, 320), bool)
        borders[:, 301:] = True
        borders[229:, :] = True
        strips = np.zeros((240, 320), bool)
        strips[40:47, 10:300] = True
        strips[10:230, 100:107] = True
        strips[120:200, 200:207] = True
        strips[190:197, 150:310] = True
        one_patch = np.zeros((240, 320), bool)
        one_patch[100:108, 41:49] = True
        as_uint8 = np.zeros((240, 320), np.uint8)
        as_uint8[30:90, 17:130] = 1
        as_uint8[60:75, 40:45] = 0
        cases = {
            "borders": borders, "strips": strips, "one patch": one_patch, "uint8": as_uint8
        }
        for trial, (name, mask) in enumerate(cases.items()):
            raw = rng.integers(0, 256, (240, 320, 3), dtype=np.uint8)
            env = raw.copy()
            scrub = (rng.random((240, 320)) < 0.5) & (mask > 0)
            env[scrub] = rng.integers(0, 256, (int(scrub.sum()), 3))
            result = pixel_leak_scan(self._tuple_with_env(env, trial), raw, mask)
            assert result == full_image_leak_scan(env, raw, mask), name
        assert pixel_leak_scan(self._tuple_with_env(env), raw, strips).patches_scanned == 0
        assert pixel_leak_scan(self._tuple_with_env(env), raw, one_patch).patches_scanned == 1

    @pytest.mark.parametrize("height, width", [(6, 40), (40, 6), (7, 7), (1, 1)])
    def test_frame_smaller_than_a_patch_scores_no_patch(self, height, width):
        raw = np.random.default_rng(4).integers(0, 256, (height, width, 3), dtype=np.uint8)
        mask = np.ones((height, width), bool)
        result = pixel_leak_scan(self._tuple_with_env(raw.copy()), raw, mask)
        assert result == LeakScanResult(max_correlation=0.0, location=None, patches_scanned=0)


@st.composite
def patchy_masks(draw):
    """Small masks made of rectangles with a few holes punched in them;
    some are smaller than a patch on one side."""
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    mask = np.zeros((h, w), bool)
    cell = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    rect = st.tuples(cell, st.integers(1, 20), st.integers(1, 20))
    for (y, x), dy, dx in draw(st.lists(rect, max_size=4)):
        mask[y : y + dy, x : x + dx] = True
    for y, x in draw(st.lists(cell, max_size=6)):
        mask[y, x] = False
    return mask


@settings(max_examples=300, deadline=None, derandomize=True)
@given(patchy_masks())
def test_run_test_equals_the_window_reduction(mask):
    from numpy.lib.stride_tricks import sliding_window_view

    inside = _inside_patches(mask)
    h, w = mask.shape
    assert inside.shape == (max(h - 7, 0), max(w - 7, 0))
    if inside.size:
        assert np.array_equal(inside, sliding_window_view(mask, (8, 8)).all(axis=(2, 3)))


class TestIdentityAttack:
    def test_gallery_requires_distinct_appearances(self):
        twin = GalleryActor("x", (100, 100, 100), (200, 180, 160))
        twin2 = GalleryActor("y", (100, 100, 140), (200, 180, 160))
        with pytest.raises(ValidationError):
            AttackGallery(actors=(twin, twin2)).validate()

    def test_two_way_gallery_chance_is_half(self):
        result = identity_attack(build_gallery(2), probe_scenes=12, seed=3)
        assert result.chance == 0.5
        assert result.probes == 12
        assert 0.0 <= result.accuracy <= 1.0

    def test_small_attack_at_chance_with_valid_control(self):
        result = identity_attack(build_gallery(4), probe_scenes=32, seed=21)
        assert result.control_accuracy >= 0.95
        # generous small-sample bound: chance 0.25 plus wide slack
        assert result.accuracy <= 0.25 + 0.2

    def test_wire_features_embed_the_edge_composite(self):
        # the attacker recomputes the embedding from the reconstruction;
        # it must equal the embedding of the edge composite, frame by frame
        gallery = build_gallery(8)
        for seed, actor in enumerate(gallery.actors[:6]):
            scene = make_solo_scene(
                seed=seed, actor_id=actor.actor_id, clothing=actor.clothing,
                skin=actor.skin, frame_count=10,
            )
            frames, gts = generate_scene(scene)
            state = EdgeState(scene.width, scene.height)
            for fid, (frame, gt) in enumerate(zip(frames, gts)):
                out = process_frame(state, frame, gt)
                t = build_tuple(out, 0, fid, fid * 33_333)
                features = _wire_features(t, scene.width, scene.height)
                assert np.array_equal(features[:64], embed(out.composite)), (seed, fid)

    def test_gallery_builder_spacing(self):
        gallery = build_gallery(8)
        gallery.validate()
        assert len(gallery.actors) == 8
