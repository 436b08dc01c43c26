import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import proxycam
from proxycam.edge import track as track_module
from proxycam.edge.pipeline import detect
from proxycam.edge.track import TrackerState, track_step
from proxycam.errors import ValidationError
from proxycam.geometry import BoundingBox, iou
from proxycam.sim.generate import generate_scene
from proxycam.sim.scripts import make_crossing_scene

from conftest import scene, solo_actor


class TestDetect:
    def test_oracle_empty_scene(self, empty_scene):
        _, gts = generate_scene(empty_scene)
        assert detect(gts[0]) == []

    def test_oracle_passes_gt_boxes_through(self):
        actors = [
            solo_actor([(0, 5, "stand")], actor_id="a"),
            solo_actor(
                [(0, 5, "stand")],
                actor_id="b",
                clothing=(40, 60, 200),
                trajectory=((0, 230.0, 200.0),),
            ),
        ]
        _, gts = generate_scene(scene(actors, frame_count=5))
        boxes = detect(gts[0])
        assert boxes == [a.box for a in gts[0].actors]

    def test_oracle_without_gt_is_a_configuration_error(self):
        with pytest.raises(ValidationError):
            detect(None)


def det(x, y, w=30.0, h=60.0):
    return BoundingBox(x, y, w, h)


class TestTracker:
    def test_tracks_retire_after_miss_timeout(self):
        state = TrackerState()
        track_step(state, [det(10, 10)])
        assert len(state.tracks) == 1
        for _ in range(10):
            track_step(state, [])
        assert len(state.tracks) == 1  # still coasting at 10 misses
        track_step(state, [])
        assert state.tracks == []  # 11th miss retires

    def test_velocity_converges_on_constant_motion(self):
        state = TrackerState()
        live = []
        for step in range(20):
            live = track_step(state, [det(10 + 2.0 * step, 50)])
        assert len(live) == 1
        vx, vy = live[0].velocity
        assert vx == pytest.approx(2.0, abs=0.1)
        assert vy == pytest.approx(0.0, abs=0.1)

    def test_single_subject_keeps_its_id(self):
        state = TrackerState()
        ids = set()
        for step in range(20):
            live = track_step(state, [det(10 + 2.0 * step, 50)])
            ids.update(t.subject_id for t in live)
        assert len(ids) == 1

    def test_each_track_names_the_box_it_took(self):
        state = TrackerState()
        live = track_step(state, [det(10, 50), det(200, 50)])
        assert [(t.subject_id, t.detection) for t in live] == [(1, 0), (2, 1)]
        # listed in the other order, each box keeps its track
        live = track_step(state, [det(201, 50), det(11, 50)])
        assert [(t.subject_id, t.detection) for t in live] == [(1, 1), (2, 0)]
        # subject 2 missed: it coasts and names no box
        live = track_step(state, [det(12, 50)])
        assert [(t.subject_id, t.detection) for t in live] == [(1, 0), (2, None)]

    def test_coasting_prediction_moves_with_velocity(self):
        state = TrackerState()
        for step in range(5):
            track_step(state, [det(10 + 4.0 * step, 50)])
        x_before = state.tracks[0].box.x
        live = track_step(state, [])
        assert live[0].misses == 1
        assert live[0].box.x > x_before

    def test_crossing_actors_keep_identities(self):
        spec = make_crossing_scene()
        _, gts = generate_scene(spec)
        state = TrackerState()
        mapping: dict[int, str] = {}
        switches = 0
        for gt in gts:
            tracks = track_step(state, detect(gt))
            for track in tracks:
                best, best_iou = None, 0.0
                for actor in gt.actors:
                    overlap = iou(track.box, actor.box)
                    if overlap > best_iou:
                        best, best_iou = actor.actor_id, overlap
                if track.subject_id in mapping and mapping[track.subject_id] != best:
                    switches += 1
                mapping[track.subject_id] = best
        assert state.next_id - 1 == 2  # exactly one id per actor, ever
        assert switches == 0


def cost_matrices():
    """Seeded random, integer-tied, all-equal, rectangular and empty costs."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = rng.integers(1, 9, size=2)
        yield rng.random((rows, cols))
        yield rng.integers(0, 3, size=(rows, cols)).astype(np.float64)
        yield np.full((rows, cols), float(rng.integers(0, 2)))
    yield np.zeros((0, 0))
    yield np.zeros((0, 4))
    yield np.zeros((4, 0))
    yield -np.eye(5)[:, :3]


class TestSolver:
    def test_assignments_equal_scipy_optimize(self):
        for cost in cost_matrices():
            ours = track_module.linear_sum_assignment(cost)
            theirs = scipy.optimize.linear_sum_assignment(cost)
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs)), cost
            assert [a.dtype for a in ours] == [b.dtype for b in theirs]

    def test_an_infeasible_matrix_is_refused_alike(self):
        cost = np.array([[np.inf, 1.0], [np.inf, 2.0]])
        with pytest.raises(ValueError):
            scipy.optimize.linear_sum_assignment(cost)
        with pytest.raises(ValueError):
            track_module.linear_sum_assignment(cost)

    def test_importing_the_cli_leaves_scipy_optimize_unloaded(self):
        code = "import json, sys, proxycam.cli; print(json.dumps(sorted(sys.modules)))"
        src = str(Path(proxycam.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded = json.loads(run.stdout)
        assert "proxycam.edge.track" in loaded
        assert "scipy.optimize" not in loaded
