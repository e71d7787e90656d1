"""Operator entry points: `doorsim <command> [flags]`.

Flags are long-form only; anything structured lives in a JSON file passed
via --config. Exit codes: 0 success, 1 validation/usage error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

from . import __version__
from .backends import DEFAULT_PROFILES, load_profiles
from .cloud import CloudService
from .cloud.httpd import CloudHTTPServer
from .dataset import GeneratorConfig, generate_dataset, load_manifest, save_manifest
from .errors import DoorsimError, ProtocolError, ValidationError
from .harness import ExperimentConfig, check_profiles, compare_backends, run_experiment
from .model import (FaceCategory, canonical_json, field, list_field, map_field, read_document,
                    refuse_unknown_keys)

log = logging.getLogger("doorsim")

DEFAULT_SERVER = "http://127.0.0.1:8750"


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file for the command")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _read_config(path: str | None, what: str, decode):
    if not path:
        raise ValidationError("--config is required for this command")
    if not Path(path).exists():
        raise ValidationError(f"config file not found: {path}")
    return read_document(path, what, decode)


def _seeded(config, args: argparse.Namespace):
    """``config`` with ``--seed`` as its seed if given."""
    return config if args.seed is None else replace(config, seed=args.seed)


def _experiment_config(data: dict,
                       backend_ids: tuple[str, ...] = ()) -> tuple[ExperimentConfig, dict | None]:
    """The config of ``data`` and the profile registry it names (None: the
    shipped profiles), read with it so that a bad registry is a refused
    config. So is what the runs of ``backend_ids`` (default: the config's
    own) would refuse before their first event."""
    config = ExperimentConfig.from_dict(data)
    profiles = load_profiles(config.profiles_path) if config.profiles_path else None
    check_profiles(DEFAULT_PROFILES if profiles is None else profiles,
                   backend_ids or (config.backend_id,))
    return config, profiles


def _post(server: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        server.rstrip("/") + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"content-type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        # The gateway answers a bad request with a 4xx ok:false envelope.
        with exc:
            message = _error_message(exc.read())
        if message is None or not 400 <= exc.code < 500:
            raise
        raise ValidationError(message) from exc
    if not payload.get("ok"):
        raise DoorsimError(payload.get("error", {}).get("message", "request failed"))
    return payload["data"]


def _error_message(body: bytes) -> str | None:
    """The message of an ``ok: false`` envelope; None if ``body`` is not one."""
    try:
        return str(json.loads(body)["error"]["message"])
    except (ValueError, KeyError, TypeError):
        return None


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    config = _read_config(args.config, "generator config", GeneratorConfig.from_dict)
    config = _seeded(config, args)
    log.info("generating %d positives for %d scenario(s), seed %d",
             config.positives, len(config.scenarios), config.seed)
    frames = generate_dataset(config)
    out = args.out or "dataset.ndjson"
    save_manifest(frames, out)
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config, profiles = _read_config(args.config, "experiment config", _experiment_config)
    report = run_experiment(_seeded(config, args), profiles=profiles)
    summary = {
        "backend_id": report.backend_id,
        "counters": report.counters,
        "latency": report.latency.to_dict(),
    }
    print(canonical_json(summary))
    if args.out:
        Path(args.out).write_text(canonical_json(summary) + "\n", encoding="utf-8")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, profiles = _read_config(args.config, "experiment config", _experiment_config)
    out = args.out or "report.json"
    report = run_experiment(_seeded(config, args), profiles=profiles,
                            partial_trace_path=f"{out}.partial")
    report.write_json(out)
    if args.csv:
        report.write_csv(args.csv)
    overall = report.overall
    print(
        f"{report.backend_id}: accuracy={overall.accuracy:.3f} "
        f"f1={'n/a' if overall.f1 is None else f'{overall.f1:.3f}'} "
        f"mean_latency={report.latency.mean_ms:.1f} ms -> {out}"
    )
    return 0


def _compare_config(data: dict) -> tuple[ExperimentConfig, dict | None, tuple[str, ...]]:
    """An experiment config and its profiles plus ``backend_ids``, the backends to compare."""
    if not isinstance(data, dict):
        raise ProtocolError("the document must be a JSON object")
    rest = {key: value for key, value in data.items() if key != "backend_ids"}
    backend_ids = list_field(data, "backend_ids", str, ())
    return (*_experiment_config(rest, backend_ids), backend_ids)


def cmd_compare(args: argparse.Namespace) -> int:
    config, profiles, backend_ids = _read_config(args.config, "config", _compare_config)
    config = _seeded(config, args)
    if len(backend_ids) < 2:
        raise ValidationError("compare config needs backend_ids with >= 2 entries")
    if not config.dataset:
        raise ValidationError("compare config needs a dataset path")
    dataset = load_manifest(config.dataset)
    reports = []
    for backend_id in backend_ids:
        log.info("evaluating %s", backend_id)
        reports.append(run_experiment(replace(config, backend_id=backend_id), dataset=dataset,
                                      profiles=profiles))
    table = compare_backends(reports)
    out = args.out or "comparison.csv"
    if out.endswith(".json"):
        table.write_json(out)
    else:
        table.write_csv(out)
    for row in table.rows:
        f1 = "n/a" if row["f1"] == "" else f"{row['f1']:.4f}"
        print(
            f"{row['backend']}: f1={f1} mean_latency={row['mean_latency_ms']:.1f} ms "
            f"memory={row['memory_mb']} MB cpu={row['cpu_pct']}%"
        )
    print(f"wrote {out}")
    return 0


def _serve_config(data: dict) -> tuple[str, int, int]:
    refuse_unknown_keys(data, ("host", "port", "seed"))
    port = field(data, "port", int, 8750)
    if not 0 <= port <= 65535:
        raise ValidationError("port must be in [0, 65535]")
    return field(data, "host", str, "127.0.0.1"), port, field(data, "seed", int, 0)


def cmd_serve_cloud(args: argparse.Namespace) -> int:
    host, port, seed = (_read_config(args.config, "config", _serve_config) if args.config
                        else _serve_config({}))
    seed = args.seed if args.seed is not None else seed
    service = CloudService(seed=seed)
    server = CloudHTTPServer((host, port), service)
    host, port = server.server_address[:2]  # the port the OS chose for port 0
    print(f"serving mock cloud on http://{host}:{port} (seed {seed})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def _enroll_config(data: dict) -> tuple[str, str, dict[str, FaceCategory]]:
    refuse_unknown_keys(data, ("server", "collection_id", "faces"))
    return (field(data, "server", str, DEFAULT_SERVER),
            field(data, "collection_id", str, "default"),
            map_field(data, "faces", FaceCategory, {}))


def cmd_enroll(args: argparse.Namespace) -> int:
    server, collection_id, faces = _read_config(args.config, "config", _enroll_config)
    if not faces:
        raise ValidationError("enroll config has no faces")
    for identity, category in sorted(faces.items()):
        data = _post(args.server or server, "/faces/enroll", {
            "collection_id": collection_id,
            "identity": identity,
            "category": category.value,
        })
        print(f"enrolled {identity} as {category.value} ({data['enrolled']} total)")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    server = args.server or DEFAULT_SERVER
    body = {"kind": args.kind.replace("-", "_"), "device_id": args.device}
    # An open end is filled in by the service: from 0, to its current clock.
    if args.from_ms is not None:
        body["from"] = args.from_ms
    if args.to_ms is not None:
        body["to"] = args.to_ms
    data = _post(server, "/query", body)
    print(data["summary"])
    if args.out:
        Path(args.out).write_text(canonical_json(data) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doorsim",
        description="Deterministic device/edge/cloud simulator for doorbell video analytics",
    )
    parser.add_argument("--version", action="version", version=f"doorsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("gen-dataset", help="write a synthetic labeled manifest")
    _common_flags(sub)
    sub.set_defaults(func=cmd_gen_dataset)

    sub = commands.add_parser("simulate", help="run the pipeline once, print counters")
    _common_flags(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("evaluate", help="run an experiment and write the report")
    _common_flags(sub)
    sub.add_argument("--csv", help="also write the per-scenario CSV table")
    sub.set_defaults(func=cmd_evaluate)

    sub = commands.add_parser("compare", help="evaluate several backends side by side")
    _common_flags(sub)
    sub.set_defaults(func=cmd_compare)

    sub = commands.add_parser("serve-cloud", help="serve the mock cloud over HTTP")
    _common_flags(sub)
    sub.set_defaults(func=cmd_serve_cloud)

    sub = commands.add_parser("enroll", help="enroll faces against a running cloud")
    _common_flags(sub)
    sub.add_argument("--server", help=f"cloud base URL (default {DEFAULT_SERVER})")
    sub.set_defaults(func=cmd_enroll)

    sub = commands.add_parser("query", help="ask the cloud about activity")
    _common_flags(sub)
    sub.add_argument("--server", help=f"cloud base URL (default {DEFAULT_SERVER})")
    sub.add_argument("--kind", required=True,
                     choices=["latest-activity", "daily-snapshot", "range-query"])
    sub.add_argument("--device", required=True)
    sub.add_argument("--from", dest="from_ms", type=int)
    sub.add_argument("--to", dest="to_ms", type=int)
    sub.set_defaults(func=cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValidationError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DoorsimError, urllib.error.URLError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
