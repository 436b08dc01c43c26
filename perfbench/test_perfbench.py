"""Self-tests of the benchmark: small workloads run to their end, and each check is live.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proxycam.audit.independence
import proxycam.edge.pipeline
from perfbench import calibrate, scenes, workloads
from perfbench.trace import PER_LAYER

REPO = Path(__file__).resolve().parent.parent
real_erase = proxycam.edge.pipeline.erase


def leaky_erase(frame, joint_mask, model):
    """The real scrubber, except that one masked pixel is copied through."""
    out = real_erase(frame, joint_mask, model)
    ys, xs = np.nonzero(joint_mask)
    if len(ys):
        out[ys[0], xs[0]] = frame[ys[0], xs[0]]
    return out


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scenes, "CROWD_FRAMES", 12)
    monkeypatch.setattr(scenes, "FLEET_FRAMES", 8)
    monkeypatch.setattr(scenes, "AUDIT_LEAK_FRAMES", 6)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)


def run(workload, seed=3, trace=False):
    return workloads.run_workload(workload, seed, 0.0, trace)


@pytest.mark.parametrize(
    "workload, attempted",
    [("crowd", 12), ("fleet", 4 * 8), ("audit", 6 * scenes.AUDIT_TRIALS_PER_FRAME + scenes.AUDIT_PROBES + 6)],
)
def test_small_workload_runs_clean(small, workload, attempted):
    result = run(workload)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, attempted)
    names = [name for name, _ in workloads.END_TO_END]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced_outputs(small):
    plain = run("crowd")
    traced = run("crowd", trace=True)
    assert traced["digests"] == plain["digests"]
    assert traced["failed"] == 0
    assert list(traced["metrics"]) == [name for name, _ in PER_LAYER]
    assert traced["metrics"]["edge.proxy.calls_per_frame"]["value"] >= 14.0
    assert Path(traced["trace_file"]).stat().st_size > 0


def test_runs_of_one_seed_agree_and_seeds_differ(small):
    assert run("crowd")["digests"] == run("crowd")["digests"]
    assert run("crowd", seed=4)["digests"] != run("crowd")["digests"]


def test_leaky_scrubber_fails_erasure_check(small, monkeypatch):
    monkeypatch.setattr(proxycam.edge.pipeline, "erase", leaky_erase)
    result = run("crowd")
    assert not result["correct"]
    assert result["failed"] > 0


def test_leaky_scrubber_fails_independence_trials(small, monkeypatch):
    monkeypatch.setattr(proxycam.audit.independence, "erase", leaky_erase)
    result = run("audit")
    assert not result["correct"]
    assert result["failed"] >= 6 * scenes.AUDIT_TRIALS_PER_FRAME - 1


def test_packet_dropped_by_link_fails_its_frame(small, monkeypatch):
    real_link = scenes.fleet_link

    def lossy_link(seed, cameras, frames):
        link = real_link(seed, cameras, frames)
        resent = {(d.camera, d.frame) for d in link if d.duplicate}
        drop = next(d for d in link if (d.camera, d.frame) not in resent)
        return [d for d in link if d != drop]

    monkeypatch.setattr(scenes, "fleet_link", lossy_link)
    result = run("fleet")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_clock_skips_reference_units_and_follows_their_speed(monkeypatch):
    cpu = [0.0]

    def unit(seconds):
        def run():
            cpu[0] += seconds
        return run

    monkeypatch.setattr(calibrate.time, "process_time", lambda: cpu[0])
    monkeypatch.setattr(calibrate, "reference_unit", unit(calibrate.NOMINAL_UNIT_S))
    calibration = calibrate.Calibration()
    start = calibration.clock()
    cpu[0] += 1.0                      # work at the reference speed
    assert calibration.clock() - start == pytest.approx(1.0)
    monkeypatch.setattr(calibrate, "reference_unit", unit(2 * calibrate.NOMINAL_UNIT_S))
    for _ in range(calibrate.WINDOW):  # the core runs at half speed, units included
        calibration.sample()
    start = calibration.clock()
    cpu[0] += 1.0
    assert calibration.clock() - start == pytest.approx(0.5)


def test_link_delivers_every_packet_once_plus_resends():
    link = scenes.fleet_link(3, 4, 50)
    assert sum(d.duplicate for d in link) == round(scenes.DUPLICATE_SHARE * 200)
    assert sorted((d.camera, d.frame) for d in link if not d.duplicate) == sorted(
        (c, f) for c in range(4) for f in range(50)
    )
    # no packet arrives more than one window away from its place
    window = 4 * scenes.LINK_WINDOW
    for position, d in enumerate(link):
        if not d.duplicate:
            assert abs(position - (d.frame * 4 + d.camera)) < window + len(link) - 200


def test_fails_without_the_program(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (REPO / "BENCHMARK.json").exists():
        shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
