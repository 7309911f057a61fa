"""FT-GEMM benchmark entry point.

One measured run::

    python3 perfbench/run.py --workload gemm-1k --seed 1 --seconds 45 --trace 0

runs the workload in a fresh interpreter (``child.py``) with OpenBLAS
pinned to one thread, then, for ``--trace 0``, repeats only the set-up in
more fresh interpreters so ``setup_s`` is a median. It prints the host
fingerprint, the audit and every metric with its unit and sample count,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}`` carrying the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).

Every workload with both kinds of run, and the per-layer table::

    python3 perfbench/run.py --report [--seed 1] [--seconds 45]

A run that crashes or outlives its time cap is reported with its stderr
and exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from metrics import (CHECKS, END_TO_END, PER_LAYER, RUN_SECONDS,
                     SETUP_SAMPLES, UNGATED, WORKLOADS)
from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: wall-clock cap for one whole invocation (its runs and set-ups)
CAP_S = 170.0


class RunFailed(Exception):
    def __init__(self, what: str, stderr: str = "") -> None:
        super().__init__(what)
        self.stderr = stderr


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread in the workload process and every process it spawns:
    # with two, the interleaved OpenBLAS ratio spreads several percent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left in a finished run's process group and wait
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(workload: str, seed: int, seconds: float, trace: int,
           deadline: float, setup_only: bool = False) -> dict:
    """One fresh interpreter running one workload; returns its result."""
    t_launch = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--launched-at", repr(t_launch)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        out, err = proc.communicate()
        raise RunFailed(f"{workload} exceeded its time cap", err)
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RunFailed(f"{workload} exited with code {proc.returncode}", err)
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{workload} printed no result", err) from None


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """The run plus, untraced, the extra set-ups behind ``setup_s``."""
    doc = launch(workload, seed, seconds, trace, deadline)
    metrics = {name: tuple(v) for name, v in doc["metrics"].items()}
    if trace == 0:
        setups = [doc["setup_s"]] + [
            launch(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics["setup_s"] = (median(setups), len(setups))
    wanted = END_TO_END if trace == 0 else PER_LAYER
    missing = [m.name for m in wanted if m.name not in metrics]
    if missing:
        raise RunFailed(f"{workload} did not report {', '.join(missing)}")
    doc["metrics"] = {m.name: metrics[m.name] for m in wanted}
    return doc


def print_run(workload: str, seed: int, trace: int, doc: dict) -> None:
    audit = doc["audit"]
    print(f"== {workload} seed={seed} trace={trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in doc["host"].items()))
    print("audit: " + ", ".join(
        f"{k}={audit[k]}" for k in ("attempted", "hits", "failed", "refused",
                                    "lost", "duplicated", "wrong")))
    for example in audit.get("examples", []):
        print(f"  wrong answer: {example}")
    for key, value in doc.get("info", {}).items():
        print(f"{key}: {value}")
    specs = END_TO_END if trace == 0 else PER_LAYER
    for m in specs:
        value, samples = doc["metrics"][m.name]
        line = f"  {m.name:32s} {value:14.6g} {m.unit:9s} n={samples:<7d}"
        if m.moves:
            line += f" moves {m.moves}; work: {m.where}"
        print(line)
    if trace == 1:
        name, low, high = CHECKS[workload]
        value = doc["metrics"][name][0]
        ok = value >= low and (high is None or value <= high)
        print(f"check {name} = {value:.3f} within [{low}, {high or 'inf'}]: "
              + ("ok" if ok else "FAILED"))


def result_line(doc: dict, trace: int) -> str:
    specs = END_TO_END if trace == 0 else PER_LAYER
    return json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {m.name: {"value": doc["metrics"][m.name][0], "unit": m.unit}
                    for m in specs},
    })


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted({**WORKLOADS, **UNGATED}))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required (or --report)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    runs = ([(w, t) for w in {**WORKLOADS, **UNGATED} for t in (0, 1)]
            if args.report
            else [(args.workload, args.trace)])
    for workload, trace in runs:
        deadline = time.monotonic() + CAP_S
        try:
            doc = measure(workload, args.seed, args.seconds, trace, deadline)
        except RunFailed as exc:
            print(f"perfbench: run failed: {exc}", file=sys.stderr)
            print(exc.stderr[-4000:], file=sys.stderr)
            return 1
        print_run(workload, args.seed, trace, doc)
        if not args.report:
            print(result_line(doc, trace))
    if args.report:
        print("== metric definitions")
        for m in END_TO_END + PER_LAYER:
            print(f"  {m.name:32s} {m.about}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
