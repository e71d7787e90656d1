"""doorsim benchmark: host time of seeded experiments and of the gateway.

    python3 perfbench/run.py --workload remote-1dev --seed 1 --seconds 25 --trace 0

Run from the root of a doorsim checkout. Each workload runs in fresh
processes started from here: ``--trace 0`` starts several set-up probes and
one measuring process and prints the end-to-end metrics; ``--trace 1``
starts one tracing process and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, manifest_rows, write_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker(mode: str, name: str, seed: int, seconds: int, full: Path, half: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--full", str(full), "--half", str(half), "--out", str(OUT)]


def setup_probe(cmd: list[str]) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    if code != 0 or not line.startswith("{"):
        raise BenchError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_worker(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics(trace: int) -> set[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    full = OUT / f"{name}-full.ndjson"
    half = OUT / f"{name}-half.ndjson"
    write_manifest(manifest_rows(workload, seed), full)
    write_manifest(manifest_rows(workload, seed, positives=workload.positives // 2), half)

    if trace:
        result = run_worker(_worker("trace", name, seed, seconds, full, half))
    else:
        probes = [setup_probe(_worker("setup", name, seed, seconds, full, half))
                  for _ in range(SETUP_PROBES)]
        result = run_worker(_worker("measure", name, seed, seconds, full, half))
        result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
        result["info"]["setup_probes_s"] = probes

    expected = declared_metrics(trace)
    if expected is not None and expected != set(result["metrics"]):
        raise BenchError(f"{name}: metrics differ from BENCHMARK.json: "
                         f"{sorted(expected ^ set(result['metrics']))}")
    return result


def show(name: str, result: dict) -> None:
    for key, metric in sorted(result["metrics"].items()):
        print(f"{name:12s} {key:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{name:12s} info {json.dumps(result['info'], sort_keys=True)}")
    rate = result["failed"] / result["attempted"]
    print(f"{name:12s} error_rate {rate:.6g} ({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"{name:12s} FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "doorsim" / "__init__.py").is_file():
        print(f"error: no doorsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            show(name, result)
            summary[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
