#!/usr/bin/env python3
"""Benchmark of ktsurf, end to end and by layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program runs from its `src/`
directory, so nothing is built.  Workloads, their populations and the
layer table are described in perfbench/spec.json; metric names and units
come from BENCHMARK.json.

With --trace 0 the run first times SETUP_PROBES fresh interpreters that
import ktsurf and build the seven standard spines (setup_s is their median),
then runs whole passes of the workload, each in a fresh interpreter, while
the next pass still fits in S seconds (always at least one).  With
--trace 1 it runs one pass under the outside-in tracer instead and reports
the per-layer metrics; spans are written under .perfbench-trace/.

Every op is checked by its oracle.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit code 0 means the run completed,
correct or not; anything else means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_PROBES = 12
SMOKE_SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10

SETUP_CODE = """\
import time
import ktsurf
for atom in ktsurf.trisection.ATOMS:
    ktsurf.standard(atom)
print(time.monotonic())
print(ktsurf.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment of every child: the checkout's sources, and a fixed hash
    seed so that every run iterates sets of strings in the same order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Run a child process group to completion; return its stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} overran the run time limit")
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(
            f"{' '.join(cmd[1:3])} exited {proc.returncode}: {tail}")
    return out


def setup_times(probes: int, deadline: float) -> list[float]:
    """Seconds from spawning an interpreter to ktsurf imported and the
    standard spines built.  An untimed first probe fills the bytecode cache
    and checks that ktsurf is imported from this checkout."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    where = run_child(cmd, deadline).split("\n")[1]
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ktsurf imported from {where}, not from {SRC}")
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = float(run_child(cmd, deadline).split("\n")[0])
        times.append(done - start)
    return times


def run_pass(workload: str, seed: int, smoke: bool, trace: bool,
             deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-dir", str(TRACE_DIR / f"{workload}-seed{seed}")]
    start = time.monotonic()
    result = json.loads(run_child(cmd, deadline).strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - start
    return result


def tail_latency(latencies: list[float]) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with at least TAIL_BEYOND ops
    beyond it, with that percentile and the number of ops beyond."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_BEYOND


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            started: float) -> tuple[dict, list, list[str], bool]:
    """Untraced run: end-to-end metrics, the ops, the human lines, and
    whether every pass printed the same output."""
    deadline = started + RUN_LIMIT_S
    setups = setup_times(SMOKE_SETUP_PROBES if smoke else SETUP_PROBES,
                         deadline)
    passes = []
    measuring = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, smoke, False, deadline))
        used = time.monotonic() - measuring
        if smoke or used + passes[-1]["process_s"] > seconds:
            break
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["latency"] for op in ops]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)}  "
             f"ops {len(ops)} ({len(ops) // len(passes)} per pass)",
             f"setup_s      {metrics['setup_s'][0]:.4f} s   median of "
             f"{len(setups)} interpreter starts",
             f"wall_s       {metrics['wall_s'][0]:.4f} s   median of "
             f"{len(walls)} passes",
             f"op_p50_s     {metrics['op_p50_s'][0]:.4f} s   median of "
             f"{len(latencies)} ops"]
    if workload == "census-warm":
        tail = tail_latency(latencies)
        if tail:
            lines.append(f"op_tail_s    {tail[0]:.4f} s   p{tail[1]:.1f}, "
                         f"{tail[2]} of {len(latencies)} ops beyond")
    if workload == "lemmas-cap4":
        for name, k in (("lemma_cold_s", 0), ("lemma_warm_s", 1)):
            values = [p["ops"][k]["latency"] for p in passes]
            lines.append(f"{name:12s} {statistics.median(values):.4f} s   "
                         f"{passes[0]['ops'][k]['label']}, median of "
                         f"{len(values)} passes")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    digests = {p["digest"] for p in passes}
    lines.append(f"output digest {' '.join(sorted(digests))}")
    if len(digests) > 1:
        lines.append("passes over the same inputs printed different output")
    return metrics, ops, lines, len(digests) == 1


def measure_traced(workload: str, seed: int, smoke: bool, started: float,
                   layer_names: list[str]) -> tuple[dict, list, list[str]]:
    """Traced run: one pass under the tracer, per-layer metrics."""
    deadline = started + RUN_LIMIT_S
    setup_times(0, deadline)
    result = run_pass(workload, seed, smoke, True, deadline)
    values = layer_metrics(result["stats"])
    values["trace.wall_s"] = result["wall_s"]
    missing = [n for n in layer_names if n not in values]
    if missing:
        raise BenchError(f"tracer produced no value for {', '.join(missing)}")
    lines = [f"workload {workload}  seed {seed}  traced pass  "
             f"ops {len(result['ops'])}  wall {result['wall_s']:.4f} s",
             f"output digest {result['digest']}"]
    lines += [f"  {n:52s} {values[n]:.6g}" for n in layer_names]
    return values, result["ops"], lines


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(
        description="ktsurf benchmark; see the module docstring")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one pass, for the benchmark's tests")
    args = ap.parse_args(argv)
    consistent = True
    try:
        if not (SRC / "ktsurf" / "__init__.py").is_file():
            raise BenchError(f"no ktsurf sources under {SRC}")
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, ops, lines = measure_traced(
                args.workload, args.seed, args.smoke, started, list(units))
            metrics = {n: (values[n], u) for n, u in units.items()}
        else:
            metrics, ops, lines, consistent = measure(
                args.workload, args.seed, args.seconds, args.smoke, started)
            wanted = [m["name"] for m in spec["end_to_end"]]
            if sorted(metrics) != sorted(wanted):
                raise BenchError(f"end-to-end metrics {sorted(metrics)} do "
                                 f"not match BENCHMARK.json {sorted(wanted)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [op for op in ops if op["problems"]]
    lines.append(f"fail_share   {len(failed) / len(ops):.4f}   "
                 f"{len(failed)} of {len(ops)} ops failed")
    for op in failed[:10]:
        lines.append(f"  FAILED {op['label']}: {'; '.join(op['problems'])}")
    correct = consistent and not failed
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
