import dataclasses
import json
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from proxycam.cli import EXIT_GATE, EXIT_OK, EXIT_VALIDATION, main
from proxycam.config import RunConfig
from proxycam.errors import GateViolationError
from proxycam.pngio import encode_png
import proxycam.runner as runner_module
from proxycam.runner import build_tuple, run_edge
from proxycam.sim.spec import save_scene_spec
from proxycam.skeleton import KeypointSet
from proxycam.transport.replay import read_packets, write_packets

from conftest import scene, solo_actor


@pytest.fixture
def scene_file(tmp_path):
    actor = solo_actor(
        [(0, 12, "stand")], height_px=70, trajectory=((0, 70.0, 100.0),)
    )
    spec = scene([actor], frame_count=12, width=160, height=120)
    path = tmp_path / "scene.json"
    save_scene_spec(spec, path)
    return path


def foreign_env(t):
    """A tuple the privacy gate must refuse: its env image is a valid PNG,
    but not of the stream's 160x120."""
    return dataclasses.replace(t, env_png=encode_png(np.zeros((8, 8, 3), dtype=np.uint8)))


def non_finite_point(t):
    """A tuple `encode` must refuse: one joint point is NaN."""
    sid, kp = t.poses[0]
    points = kp.points.copy()
    points[0, 0] = np.nan
    t.poses[0] = (sid, KeypointSet(points, kp.visible, kp.head_yaw))
    return t


def at_frame_three(change):
    """A `build_tuple` that applies `change` to the tuple of frame 3 only."""

    def build(*args):
        t = build_tuple(*args)
        return change(t) if t.key.frame_id == 3 else t

    return build


@pytest.fixture
def empty_scene_file(tmp_path):
    spec = scene([], frame_count=6, width=160, height=120)
    path = tmp_path / "empty.json"
    save_scene_spec(spec, path)
    return path


class TestSimCommand:
    def test_writes_frames_and_ground_truth(self, tmp_path, scene_file):
        out = tmp_path / "sim"
        assert main(["sim", "--scene", str(scene_file), "--out", str(out)]) == EXIT_OK
        assert len(list((out / "frames").glob("*.png"))) == 12
        gt_lines = (out / "ground_truth.jsonl").read_text().splitlines()
        assert len(gt_lines) == 12
        summary = json.loads((out / "summary.json").read_text())
        for name in summary["files"]:
            assert (out / name).exists()

    def test_seeded_rerun_is_byte_identical(self, tmp_path, scene_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sim", "--scene", str(scene_file), "--out", str(out_a)])
        main(["sim", "--scene", str(scene_file), "--out", str(out_b)])
        for png in sorted((out_a / "frames").glob("*.png")):
            assert png.read_bytes() == (out_b / "frames" / png.name).read_bytes()

    def test_empty_scene_frames_are_background_only(self, tmp_path, empty_scene_file):
        out = tmp_path / "sim"
        assert main(["sim", "--scene", str(empty_scene_file), "--out", str(out)]) == EXIT_OK
        from proxycam.pngio import decode_png

        frame = decode_png((out / "frames" / "frame_000000.png").read_bytes())
        background = decode_png((out / "background.png").read_bytes())
        assert np.array_equal(frame, background)


class TestEdgeCommand:
    def test_emits_one_packet_per_frame(self, tmp_path, scene_file):
        out = tmp_path / "edge"
        assert main(["edge", "--scene", str(scene_file), "--out", str(out)]) == EXIT_OK
        packets = list(read_packets(out / "packets.bin"))
        assert len(packets) == 12

    def test_rerun_is_byte_identical(self, tmp_path, scene_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["edge", "--scene", str(scene_file), "--out", str(out_a), "--seed", "5"])
        main(["edge", "--scene", str(scene_file), "--out", str(out_b), "--seed", "5"])
        assert (out_a / "packets.bin").read_bytes() == (out_b / "packets.bin").read_bytes()

    def test_gate_violation_stops_the_stream(self, tmp_path, scene_file, monkeypatch):
        from proxycam.sim.spec import load_scene_spec

        spec = load_scene_spec(scene_file)
        config = RunConfig(scene=str(scene_file), out_dir=str(tmp_path / "o"))
        sent = []
        monkeypatch.setattr(runner_module, "build_tuple", at_frame_three(foreign_env))
        with pytest.raises(GateViolationError, match="PNG is 8x8, expected 160x120"):
            run_edge(config, spec, sent.append)
        assert len(sent) == 3  # nothing emitted at or after the violation

    def test_gate_violation_exit_code(self, tmp_path, scene_file, monkeypatch):
        monkeypatch.setattr(
            runner_module, "build_tuple", lambda *args: foreign_env(build_tuple(*args))
        )
        out = tmp_path / "o"
        rc = main(["edge", "--scene", str(scene_file), "--out", str(out)])
        assert rc == EXIT_GATE
        records = [json.loads(line) for line in (out / "edge_log.jsonl").read_text().splitlines()]
        assert [(r["event"], r["frame_id"]) for r in records] == [("gate_violation", 0)]
        assert "expected 160x120" in records[0]["error"]

    def test_non_finite_point_is_refused_by_encode(self, tmp_path, scene_file, monkeypatch):
        # the gate has no pose rule; encode validates the tuple first
        monkeypatch.setattr(runner_module, "build_tuple", at_frame_three(non_finite_point))
        out = tmp_path / "o"
        rc = main(["edge", "--scene", str(scene_file), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert len(list(read_packets(out / "packets.bin"))) == 3


class TestCloudCommand:
    def _edge_packets(self, tmp_path, scene_file) -> Path:
        out = tmp_path / "edge"
        main(["edge", "--scene", str(scene_file), "--out", str(out)])
        return out / "packets.bin"

    def test_replay_reports_every_packet(self, tmp_path, scene_file):
        packets_file = self._edge_packets(tmp_path, scene_file)
        out = tmp_path / "cloud"
        rc = main(["cloud", "--replay", str(packets_file), "--out", str(out)])
        assert rc == EXIT_OK
        reports = (out / "reports.jsonl").read_text().splitlines()
        assert len(reports) == 12
        assert len(list((out / "recon").glob("cam0_frame*.png"))) == 12

    def test_shuffled_replay_matches_in_order(self, tmp_path, scene_file):
        packets_file = self._edge_packets(tmp_path, scene_file)
        packets = list(read_packets(packets_file))
        rng = np.random.default_rng(3)
        shuffled = [packets[i] for i in rng.permutation(len(packets))]
        shuffled_file = tmp_path / "shuffled.bin"
        write_packets(shuffled_file, shuffled)

        out_a, out_b = tmp_path / "in_order", tmp_path / "shuffled"
        main(["cloud", "--replay", str(packets_file), "--out", str(out_a)])
        main(["cloud", "--replay", str(shuffled_file), "--out", str(out_b)])
        assert (out_a / "reports.jsonl").read_bytes() == (out_b / "reports.jsonl").read_bytes()
        for png in sorted((out_a / "recon").glob("*.png")):
            assert png.read_bytes() == (out_b / "recon" / png.name).read_bytes()

    def test_deleted_packet_yields_exactly_one_gap(self, tmp_path, scene_file):
        packets_file = self._edge_packets(tmp_path, scene_file)
        packets = list(read_packets(packets_file))
        del packets[2]  # drop frame 2
        gappy = tmp_path / "gappy.bin"
        write_packets(gappy, packets)
        out = tmp_path / "cloud"
        main(["cloud", "--replay", str(gappy), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gap_events"] == [2]

    def test_malformed_packet_skipped_and_counted(self, tmp_path, scene_file):
        packets_file = self._edge_packets(tmp_path, scene_file)
        packets = list(read_packets(packets_file))
        packets[4] = packets[4][:-2] + b"XX"
        broken = tmp_path / "broken.bin"
        write_packets(broken, packets)
        out = tmp_path / "cloud"
        rc = main(["cloud", "--replay", str(broken), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["malformed_packets"] == 1


class TestSocketTransport:
    def test_edge_to_cloud_over_loopback(self, tmp_path, scene_file):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        address = f"127.0.0.1:{port}"
        cloud_out = tmp_path / "cloud"
        results = {}

        def run_cloud():
            results["cloud"] = main(["cloud", "--listen", address, "--out", str(cloud_out)])

        thread = threading.Thread(target=run_cloud, daemon=True)
        thread.start()
        import time

        time.sleep(0.3)
        try:
            rc_edge = main(
                ["edge", "--scene", str(scene_file), "--out", str(tmp_path / "e"),
                 "--connect", address]
            )
        finally:
            if thread.is_alive():
                # unblock accept() if the edge never connected
                try:
                    socket.create_connection(
                        ("127.0.0.1", port), timeout=1
                    ).close()
                except OSError:
                    pass
        thread.join(timeout=30)
        assert rc_edge == EXIT_OK
        assert results.get("cloud") == EXIT_OK
        assert len((cloud_out / "reports.jsonl").read_text().splitlines()) == 12

        # the socket path gives the replay path's outputs byte for byte
        edge_out, replay_out = tmp_path / "edge", tmp_path / "replay"
        assert main(["edge", "--scene", str(scene_file), "--out", str(edge_out)]) == EXIT_OK
        assert main(
            ["cloud", "--replay", str(edge_out / "packets.bin"), "--out", str(replay_out)]
        ) == EXIT_OK
        assert (cloud_out / "reports.jsonl").read_bytes() == (replay_out / "reports.jsonl").read_bytes()
        recon = sorted(p.name for p in (cloud_out / "recon").iterdir())
        assert recon == sorted(p.name for p in (replay_out / "recon").iterdir())
        for name in recon:
            assert (cloud_out / "recon" / name).read_bytes() == (replay_out / "recon" / name).read_bytes()


class TestE2ECommand:
    def test_stand_only_scene_scores_full_accuracy(self, tmp_path, scene_file):
        out = tmp_path / "e2e"
        rc = main(["e2e", "--scene", str(scene_file), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["accuracy"] == 1.0
        assert summary["render_mismatches"] == 0
        for name in summary["files"]:
            assert (out / name).exists(), name

    def test_e2e_writes_the_cloud_fields_of_a_cloud_replay(self, tmp_path, scene_file):
        main(["e2e", "--scene", str(scene_file), "--out", str(tmp_path / "e2e")])
        main(["edge", "--scene", str(scene_file), "--out", str(tmp_path / "edge")])
        main(["cloud", "--replay", str(tmp_path / "edge" / "packets.bin"),
              "--out", str(tmp_path / "cloud")])
        e2e, cloud = (json.loads((tmp_path / run / "summary.json").read_text())
                      for run in ("e2e", "cloud"))
        fields = ("reports", "malformed_packets", "reconstructions_reused",
                  "proxies_drawn", "proxies_reused", "gap_events")
        assert {k: e2e[k] for k in fields} == {k: cloud[k] for k in fields}
        assert e2e["malformed_packets"] == 0

    def test_empty_scene_accuracy_vacuously_one(self, tmp_path, empty_scene_file):
        out = tmp_path / "e2e"
        rc = main(["e2e", "--scene", str(empty_scene_file), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["accuracy"] == 1.0
        assert summary["metrics"]["frames_scored"] == 0

    def test_noise_sigma_from_config_is_a_function_of_the_seed(self, tmp_path, scene_file):
        config = tmp_path / "noise.json"
        config.write_text(json.dumps({"edge": {"noise_sigma": 2.0}}))

        def run(name, seed, *extra):
            out = tmp_path / name
            argv = ["e2e", "--scene", str(scene_file), "--out", str(out), "--seed", seed]
            assert main(argv + list(extra)) == EXIT_OK
            summary = json.loads((out / "summary.json").read_text())
            assert summary["render_mismatches"] == 0
            recon = {p.name: p.read_bytes() for p in sorted((out / "recon").iterdir())}
            return summary["packets_sha256"], (out / "reports.jsonl").read_bytes(), recon

        first = run("a", "5", "--config", str(config))
        assert run("b", "5", "--config", str(config)) == first
        assert run("c", "6", "--config", str(config))[0] != first[0]
        assert run("plain", "5")[0] != first[0]


class TestConnectRetry:
    def test_dead_sink_retries_with_backoff_then_fails(self, tmp_path, scene_file):
        import time

        from proxycam.cli import EXIT_IO

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        started = time.perf_counter()
        rc = main(
            ["edge", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
             "--connect", f"127.0.0.1:{dead_port}"]
        )
        elapsed = time.perf_counter() - started
        assert rc == EXIT_IO
        assert elapsed >= 0.3  # 100 + 200 ms of backoff before giving up


class TestExitCodes:
    def test_missing_scene_is_validation_error(self, tmp_path):
        rc = main(["e2e", "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION

    def test_unwritable_output_dir_is_io_error(self, tmp_path, scene_file):
        from proxycam.cli import EXIT_IO

        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        rc = main(["sim", "--scene", str(scene_file), "--out", str(blocker / "sub")])
        assert rc == EXIT_IO

    def test_nonexistent_scene_file(self, tmp_path):
        rc = main(["sim", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_bad_config_key(self, tmp_path, scene_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scene": str(scene_file), "tpyo": 1}))
        rc = main(["e2e", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION

    def test_removed_mode_flag_is_a_usage_error(self, tmp_path, scene_file):
        # argparse alone would exit 2, the code of a privacy-gate violation
        rc = main(
            ["e2e", "--mode", "oracle", "--scene", str(scene_file),
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["edge", "e2e"])
    def test_removed_dump_flag_is_a_usage_error(self, tmp_path, scene_file, command):
        rc = main(
            [command, "--unsafe-dump-raw", "--scene", str(scene_file),
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "x").exists()

    def test_unknown_subcommand_is_a_usage_error(self):
        assert main(["detect"]) == EXIT_VALIDATION

    def test_help_still_exits_zero(self, capsys):
        assert main(["e2e", "--help"]) == EXIT_OK
        assert "--scene" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "removed",
        [
            {"mode": "oracle"},
            {"edge": {"mode": "oracle"}},
            {"edge": {"detect_threshold": 25}},
            {"edge": {"min_box_area": 100.0}},
            {"edge": {"heuristic_warmup": 30}},
            {"debug": {"dump_raw": True, "unsafe_dump_raw": True}},
            {"reorder": {"gap_seconds": 2.0}},
            {"reorder": {"capacity": 64}},
            {"transport": {"kind": "file"}},
            {"classifier": {"fall_vy_frac": 0.08}},
            {"reorder": {"gap_frames": 30}},
            {"edge": {"background_alpha": 0.05}},
            {"edge": {"tracker": {"iou_threshold": 0.2}}},
        ],
    )
    def test_removed_config_keys_are_rejected(self, tmp_path, scene_file, removed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scene": str(scene_file), **removed}))
        rc = main(["e2e", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION

    def test_cloud_with_both_replay_and_listen_is_refused(self, tmp_path, scene_file):
        packets = tmp_path / "edge" / "packets.bin"
        assert main(["edge", "--scene", str(scene_file), "--out", str(packets.parent)]) == EXIT_OK
        rc = main(
            ["cloud", "--replay", str(packets), "--listen", "127.0.0.1:7700",
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "mistyped",
        [
            {"fps": "30"},
            {"fps": True},
            {"fps": float("nan")},
            {"camera_id": "0"},
            {"camera_id": -1},
            {"camera_id": 2**32},
            {"edge": {"noise_sigma": "2"}},
            {"edge": {"noise_sigma": True}},
            {"seed": "x"},
            {"seed": -1},
            {"seed": 1.5},
            {"transport": {"connect": 5}},
            {"transport": ["connect"]},
            {"edge": 2.0},
            {"out_dir": ["x"]},
        ],
    )
    def test_a_mistyped_config_value_is_a_validation_error(
        self, tmp_path, capsys, scene_file, mistyped
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "x"), **mistyped}))
        rc = main(["edge", "--scene", str(scene_file), "--config", str(config)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_a_transport_flag_keeps_a_mistyped_section_refused(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"transport": "127.0.0.1:7700"}))
        rc = main(["cloud", "--replay", str(tmp_path / "packets.bin"), "--config", str(config),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_a_negative_audit_seed_is_a_validation_error(self, tmp_path, capsys):
        # the audit applies the config's seed rule before it seeds numpy
        rc = main(["audit", "--seed", "-1", "--trials", "2", "--probes", "2", "--gallery", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ['{"scene": ', "[1, 2]", '"scene.json"'])
    def test_config_that_is_not_a_json_object(self, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        rc = main(["e2e", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
