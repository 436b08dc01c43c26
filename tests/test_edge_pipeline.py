import numpy as np
import pytest

from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.errors import StageError
from proxycam.pngio import decode_png
from proxycam.proxy import occlusion_order
from proxycam.raster import SilhouetteCanvas
from proxycam.runner import run_edge
from proxycam.sim.generate import generate_scene
from proxycam.transport.codec import decode

from conftest import joint_mask_of, scene, solo_actor


def run_scene(spec):
    frames, gts = generate_scene(spec)
    state = EdgeState(spec.width, spec.height, seed=3)
    outputs = [process_frame(state, f, gt) for f, gt in zip(frames, gts)]
    return frames, gts, outputs


class TestProcessFrame:
    def test_empty_scene_passes_background_through(self, empty_scene):
        frames, gts, outputs = run_scene(empty_scene)
        out = outputs[0]
        assert np.array_equal(out.desensitized, frames[0])
        assert out.poses == ()
        assert occlusion_order(dict(out.poses)) == []

    def test_single_actor_leaves_no_appearance_pixels(self, fall_scene):
        frames, gts, outputs = run_scene(fall_scene)
        for f in (0, 20, 45, 60):
            mask = joint_mask_of(gts[f])
            raw = frames[f][mask]
            scrubbed = outputs[f].desensitized[mask]
            clean = gts[f].background[mask]
            differs_from_raw = np.any(scrubbed != raw, axis=1)
            equals_clean_bg = np.all(scrubbed == clean, axis=1)
            assert np.all(differs_from_raw | equals_clean_bg)

    def test_three_actors_structural(self):
        actors = [
            solo_actor([(0, 10, "stand")], actor_id="a", trajectory=((0, 60.0, 180.0),)),
            solo_actor(
                [(0, 10, "stand")],
                actor_id="b",
                clothing=(40, 200, 60),
                trajectory=((0, 150.0, 200.0),),
            ),
            solo_actor(
                [(0, 10, "stand")],
                actor_id="c",
                clothing=(40, 60, 200),
                trajectory=((0, 240.0, 220.0),),
            ),
        ]
        _, _, outputs = run_scene(scene(actors, frame_count=10))
        out = outputs[-1]
        assert len(out.poses) == 3
        assert sorted(occlusion_order(dict(out.poses))) == sorted(sid for sid, _ in out.poses)

    def test_raw_frame_never_in_output(self, stand_scene):
        frames, _, outputs = run_scene(stand_scene)
        for frame, out in zip(frames, outputs):
            assert not np.array_equal(out.desensitized, frame)
            assert not np.array_equal(out.composite, frame)

    def test_still_subject_never_reaches_the_wire(self, tmp_path):
        # an actor standing still from the first frame is in every frame a
        # background model sees; a detector that learns the background from
        # the frames themselves never finds it, and its pixels ship raw
        still = solo_actor(
            [(0, 60, "stand")], actor_id="still", trajectory=((0, 230.0, 210.0),)
        )
        walker = solo_actor(
            [(0, 60, "walk")],
            actor_id="walker",
            clothing=(40, 200, 60),
            trajectory=((0, 60.0, 200.0), (59, 150.0, 200.0)),
        )
        spec = scene([still, walker], frame_count=60)
        frames, gts = generate_scene(spec)
        packets = []
        run_edge(
            RunConfig(out_dir=str(tmp_path)), spec, packets.append,
            pregenerated=(frames, gts),
        )
        assert len(packets) == len(frames)
        for f, packet in enumerate(packets):
            env = decode_png(decode(packet).env_png)
            mask = joint_mask_of(gts[f])
            raw = frames[f][mask]
            sent = env[mask]
            clean = gts[f].background[mask]
            ok = np.any(sent != raw, axis=1) | np.all(sent == clean, axis=1)
            assert np.all(ok), f"frame {f} puts {int((~ok).sum())} subject pixels on the wire"

    def test_wrong_resolution_is_a_stage_error(self):
        state = EdgeState(320, 240)
        with pytest.raises(StageError):
            process_frame(state, np.zeros((100, 100, 3), np.uint8))

    def test_oracle_without_gt_fails_in_detect_stage(self):
        state = EdgeState(320, 240)
        with pytest.raises(StageError) as err:
            process_frame(state, np.zeros((240, 320, 3), np.uint8))
        assert err.value.stage == "detect"

    def test_composite_shows_proxies_over_scrub(self, stand_scene):
        _, gts, outputs = run_scene(stand_scene)
        out = outputs[-1]
        # composite differs from the scrubbed frame exactly where proxies sit
        diff = np.any(out.composite != out.desensitized, axis=2)
        assert diff.any()
        mask = joint_mask_of(gts[-1])
        dilated = mask.copy()
        for _ in range(6):
            d = dilated.copy()
            d[1:, :] |= dilated[:-1, :]
            d[:-1, :] |= dilated[1:, :]
            d[:, 1:] |= dilated[:, :-1]
            d[:, :-1] |= dilated[:, 1:]
            dilated = d
        assert not np.any(diff & ~dilated)


class TestEdgeDrawsNothing:
    def test_frames_run_without_the_painter_and_the_composite_needs_it(self, monkeypatch):
        actors = [
            solo_actor(
                [(0, 6, "walk")],
                actor_id="a",
                trajectory=((0, 60.0, 180.0), (5, 80.0, 180.0)),
            ),
            solo_actor(
                [(0, 6, "stand")],
                actor_id="b",
                clothing=(40, 200, 60),
                trajectory=((0, 200.0, 210.0),),
            ),
        ]
        spec = scene(actors, frame_count=6)
        frames, gts = generate_scene(spec)  # the simulator paints its actors

        def no_painting(canvas):
            raise AssertionError("the edge painted")

        monkeypatch.setattr(SilhouetteCanvas, "paint", no_painting)
        state = EdgeState(spec.width, spec.height)
        outputs = [process_frame(state, f, gt) for f, gt in zip(frames, gts)]
        assert [len(out.poses) for out in outputs] == [2] * len(frames)
        with pytest.raises(AssertionError, match="the edge painted"):
            outputs[-1].composite


class TestErasureIndependenceProperty:
    def test_randomized_trials(self):
        # small in-suite version of the audit; the acceptance test runs 10k
        from proxycam.audit.independence import mask_independence_audit

        result = mask_independence_audit(trials=300, seed=99, width=160, height=120)
        assert result.failures == 0
