"""Command-line entry points.

    proxycam sim    --scene scene.json --out dir
    proxycam edge   --scene scene.json --out dir [--connect HOST:PORT]
    proxycam cloud  --replay packets.bin --out dir [--listen HOST:PORT]
    proxycam e2e    --scene scene.json --out dir
    proxycam audit  --out dir [--trials N --probes N --gallery N]

Every subcommand also accepts --config PATH; explicit flags override the
file. Exit codes: 0 success, 1 usage error or any other ProxycamError (a
bad config or tuple raises ValidationError), 2 privacy-gate refusal
(GateViolationError), 3 I/O or connection error, 4 audit bound failure.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from contextlib import ExitStack, closing
from pathlib import Path

from .audit.report import run_full_audit
from .config import RunConfig, config_from_dict, read_config
from .errors import GateViolationError, ProxycamError, ValidationError
from .runner import CloudRunner, JsonlLog, run_e2e, run_edge, run_sim, _write_summary
from .sim.spec import load_scene_spec
from .transport.replay import PacketWriter, connect_with_retry, iter_packets

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GATE = 2
EXIT_IO = 3
EXIT_AUDIT = 4


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValidationError(f"address must be HOST:PORT, got '{text}'")
    return host, int(port)


def _resolve_config(args) -> RunConfig:
    data = read_config(args.config) if args.config else {}
    for key in ("scene", "seed", "out_dir"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    flags = {key: getattr(args, key, None) for key in ("connect", "listen", "replay")}
    flags = {key: value for key, value in flags.items() if value}
    transport = data.get("transport")
    if flags and (transport is None or isinstance(transport, dict)):
        data["transport"] = {**(transport or {}), **flags}
    return config_from_dict(data)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run config")
    parser.add_argument("--scene", help="scene spec JSON path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir", help="output directory")


def cmd_sim(args) -> int:
    config = _resolve_config(args)
    if config.scene is None:
        raise ValidationError("sim requires --scene")
    summary = run_sim(config)
    print(f"wrote {summary['frames']} frames to {config.out_dir}")
    return EXIT_OK


def cmd_edge(args) -> int:
    config = _resolve_config(args)
    if config.scene is None:
        raise ValidationError("edge requires --scene")
    scene = load_scene_spec(config.scene)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ["edge_log.jsonl"]

    with ExitStack() as stack:
        log = stack.enter_context(closing(JsonlLog(out / "edge_log.jsonl")))
        if config.transport.connect:
            try:
                sock = connect_with_retry(_parse_address(config.transport.connect))
            except ConnectionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_IO
            write = stack.enter_context(sock).sendall
        else:
            write = stack.enter_context(open(out / "packets.bin", "wb")).write
            files.append("packets.bin")
        stats = run_edge(config, scene, PacketWriter(write).send, log=log)
    _write_summary(
        out,
        {
            "command": "edge",
            "scene": str(config.scene),
            "frames": stats["frames"],
            "packets": stats["packets"],
            "env_png_reused": stats["env_png_reused"],
            "files": files,
        },
    )
    print(f"emitted {stats['packets']} packets")
    return EXIT_OK


def cmd_cloud(args) -> int:
    config = _resolve_config(args)
    if config.transport.listen and config.transport.replay:
        raise ValidationError("cloud takes --replay FILE or --listen HOST:PORT, not both")
    if not (config.transport.listen or config.transport.replay):
        raise ValidationError("cloud needs --replay FILE or --listen HOST:PORT")
    out = Path(config.out_dir)
    recon_dir = out / "recon"
    recon_dir.mkdir(parents=True, exist_ok=True)
    source = config.transport.listen or config.transport.replay

    try:
        with ExitStack() as stack:
            log = stack.enter_context(closing(JsonlLog(out / "cloud_log.jsonl")))
            cloud = CloudRunner(config=config, out_dir=recon_dir, log=log)
            if config.transport.listen:
                server = stack.enter_context(
                    socket.create_server(_parse_address(config.transport.listen))
                )
                conn, _ = server.accept()
                read = stack.enter_context(conn).recv
            else:
                read = stack.enter_context(open(config.transport.replay, "rb")).read
            for packet in iter_packets(read):
                cloud.feed(packet)
            cloud.finish()
        cloud.write_reports(out / "reports.jsonl")
        _write_summary(
            out,
            {
                "command": "cloud",
                "source": source,
                **cloud.summary(),
                "files": ["reports.jsonl", "cloud_log.jsonl"]
                + [f"recon/{name}" for name in cloud.recon_files],
            },
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"processed {len(cloud.reports)} tuples ({cloud.malformed} malformed skipped)")
    return EXIT_OK


def cmd_e2e(args) -> int:
    config = _resolve_config(args)
    if config.scene is None:
        raise ValidationError("e2e requires --scene")
    summary = run_e2e(config)
    metrics = summary["metrics"]
    print(
        f"e2e: {summary['frames']} frames, accuracy {metrics['accuracy']:.3f}, "
        f"fall recall {metrics['fall_recall']:.3f}, "
        f"elapsed {summary['elapsed_s']:.1f}s"
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    # the config's seed rule; numpy would refuse a negative seed with a traceback
    seed = config_from_dict({"seed": args.seed}).seed
    out = Path(args.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    report = run_full_audit(
        seed=seed,
        independence_trials=args.trials,
        gallery_size=args.gallery,
        probes=args.probes,
    )
    path = out / "audit_report.json"
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"audit {'PASSED' if report.passed else 'FAILED'}: {path}")
    for failure in report.failures:
        print(f"  - {failure}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxycam",
        description="privacy-preserving edge-cloud perception pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="render a scene plus ground truth to disk")
    _add_common(p_sim)
    p_sim.set_defaults(fn=cmd_sim)

    p_edge = sub.add_parser("edge", help="run the edge pipeline, emit packets")
    _add_common(p_edge)
    p_edge.add_argument("--connect", help="send packets to HOST:PORT instead of a file")
    p_edge.set_defaults(fn=cmd_edge)

    p_cloud = sub.add_parser("cloud", help="consume packets, write reports and scenes")
    _add_common(p_cloud)
    p_cloud.add_argument("--replay", help="read packets from a file")
    p_cloud.add_argument("--listen", help="accept one packet stream on HOST:PORT")
    p_cloud.set_defaults(fn=cmd_cloud)

    p_e2e = sub.add_parser("e2e", help="edge plus cloud in one process, with metrics")
    _add_common(p_e2e)
    p_e2e.set_defaults(fn=cmd_e2e)

    p_audit = sub.add_parser("audit", help="run the privacy audit suite")
    p_audit.add_argument("--out", dest="out_dir")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--trials", type=int, default=10_000)
    p_audit.add_argument("--probes", type=int, default=400)
    p_audit.add_argument("--gallery", type=int, default=8)
    p_audit.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the gate's code here;
        # --help exits 0
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except GateViolationError as exc:
        print(f"privacy gate violation: {exc}", file=sys.stderr)
        return EXIT_GATE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProxycamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
