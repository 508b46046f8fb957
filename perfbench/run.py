"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload runs in a fresh single-threaded child process
(``perfbench/child.py``) with ``PYTHONPATH=src``, ``PYTHONHASHSEED``
set from ``--seed``, observability off and ``REPRO_SLOW_PATH`` unset.
Before the measuring child, ``SETUP_SAMPLES - 1`` set-up-only children
run, so ``setup_s`` is a median of several full set-ups (interpreter
start, imports, input generation, one warm-up op per family).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer wrappers and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run manifest (seeds,
interpreter, CPU, commit, failures by type) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("audit", "resilience", "stream-ingest", "crypto")
SETUP_SAMPLES = 3
#: Every child of one workload must finish within this many seconds.
WORKLOAD_DEADLINE_S = 170.0

#: Unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "obs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result (no program, child failed)."""


def layer_units() -> Dict[str, str]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        return {name: spec["unit"] for name, spec in json.load(handle)["metrics"].items()}


def child_env(seed: int, tmp: str) -> Dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("REPRO_SLOW_PATH", "REPRO_OBS_MODE", "PYTHONPATH")
    }
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": str(seed % 4294967296),
        "TMPDIR": tmp,
        "OMP_NUM_THREADS": "1",
    })
    return env


def run_child(args: List[str], env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "child.py")] + args
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child passed the {WORKLOAD_DEADLINE_S:.0f} s deadline: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(
            f"child exited with {proc.returncode}: {' '.join(args)}\n{stderr.strip()}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed no result: {' '.join(args)}")
    return json.loads(lines[-1])


def machine() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Set up and measure one workload; returns its result record."""
    work = os.path.join(OUT, f"{workload}-{seed}-{trace}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = child_env(seed, tmp)
    base = ["--workload", workload, "--seed", str(seed), "--out", work]
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    try:
        setups: List[float] = []  # raw seconds
        setups_normalised: List[float] = []
        for _ in range(SETUP_SAMPLES - 1 if trace == 0 else 0):
            started = time.monotonic()
            done = run_child(base + ["--seconds", "0", "--setup-only"], env, deadline)
            setups.append(done["setup_end"] - started)
            setups_normalised.append(setups[-1] / done["slowness"])
        started = time.monotonic()
        result = run_child(
            base + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline
        )
        setups.append(result["setup_end"] - started)
        setups_normalised.append(setups[-1] / result["setup_slowness"])
        spans = os.path.join(work, f"{workload}-spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e = result["end_to_end"]
    metrics = {
        "setup_s": statistics.median(setups_normalised),
        "wall_s": e2e["wall_s"],
        "obs_per_s": e2e["obs_per_s"],
        "query_p50_ms": e2e["query_p50_ms"],
        "query_tail_ms": e2e["query_tail"]["value"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result.update({
        "seed": seed,
        "setup_samples_s": setups,
        "setup_samples_normalised_s": setups_normalised,
        "metrics": metrics,
        "error_rate": result["failed"] / result["attempted"],
    })
    return result


def report(result: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics; return them in contract form."""
    workload = result["workload"]
    print(f"== {workload}: {result['rounds']} rounds in {result['measured_s']:.1f} s,"
          f" seed {result['seed']}, correct={result['correct']}")
    if trace:
        units = layer_units()
        chosen = {name: (result["per_layer"][name], units[name]) for name in units}
    else:
        chosen = {name: (result["metrics"][name], unit)
                  for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in chosen.items():
        print(f"   {name:<32} {value:>16.6g} {unit}")
    tail = result["end_to_end"]["query_tail"]
    print(f"   query_tail_ms is p{tail['percentile']:.2f} of {tail['samples']} samples")
    print(f"   error_rate {result['error_rate']:.4f} ratio"
          f" ({result['failed']} of {result['attempted']} ops failed)")
    for kind, where in sorted(result["failures_by_type"].items()):
        print(f"   failure {kind}: {where}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')}"
              " is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    info = machine()
    print(f"# python {info['python']}, {info['cpu']}, nproc {info['nproc']},"
          f" commit {info['commit']}")
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        reported = report(result, args.trace)
        if len(results) == 1:
            metrics = reported
        else:
            metrics.update({f"{result['workload']}.{k}": v for k, v in reported.items()})
        manifest = dict(result, machine=info, trace=args.trace, seconds=args.seconds,
                        env={"REPRO_SLOW_PATH": os.environ.get("REPRO_SLOW_PATH"),
                             "REPRO_OBS_MODE": os.environ.get("REPRO_OBS_MODE")})
        name = f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
