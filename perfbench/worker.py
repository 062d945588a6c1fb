"""One pass of one workload, in a fresh interpreter.

Usage:  python3 perfbench/worker.py WORKLOAD SEED [--smoke] [--trace-dir DIR]

Prints one JSON object as its last line: per-op labels, latencies and
problems, the pass wall time, peak resident memory, a digest of every
certificate or lemma report produced, and, with --trace-dir, the tracer's
raw stats.  Spans go to files under DIR.  The pass wall time is the sum of
the op latencies: the ops run back to back, and the oracle's checks between
them are not counted.

census-warm and lemmas-cap4 run their ops in this process.  cli-cold starts
one `ktsurf invariant` process per op and checks its output here; traced,
each of those processes runs under trace_cli.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, merge_stats

HERE = Path(__file__).resolve().parent


def _run_cli(item: dict, trace_files: tuple[Path, Path] | None):
    """Run one `ktsurf invariant` process; return exit code, stdout, stderr,
    latency and the process's peak resident memory."""
    if trace_files:
        cmd = [sys.executable, str(HERE / "trace_cli.py"),
               str(trace_files[0]), str(trace_files[1])]
    else:
        cmd = [sys.executable, "-m", "ktsurf.cli"]
    cmd += ["invariant", item["label"]]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err, latency, usage.ru_maxrss / 1024


def cli_pass(items, trace_dir: Path | None, tag: str) -> dict:
    ops, texts, rss, stats = [], [], 0.0, []
    for k, item in enumerate(items):
        files = None
        if trace_dir:
            files = (trace_dir / f"{tag}-op{k}.stats.json",
                     trace_dir / f"{tag}-op{k}.spans.jsonl")
        code, out, err, latency, peak = _run_cli(item, files)
        rss = max(rss, peak)
        try:
            problems = workloads.check_cli(item, code, out)
        except Exception as exc:  # an unparsable output is a failed op
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems and err.strip():
            problems.append(err.strip().splitlines()[-1])
        ops.append({"label": item["label"], "latency": latency,
                    "problems": problems})
        texts.append(out)
        if files:
            stats.append(json.loads(files[0].read_text(encoding="utf-8")))
    result = {"ops": ops, "wall_s": sum(op["latency"] for op in ops),
              "rss_mb": rss, "digest": workloads.digest(texts)}
    if trace_dir:
        result["stats"] = merge_stats(stats)
    return result


def in_process_pass(workload: str, items, trace_dir: Path | None,
                    tag: str) -> dict:
    if workload == "census-warm":
        op, check, text_of = (workloads.census_op, workloads.check_census,
                              workloads.census_text)
    else:
        op, check, text_of = (workloads.lemma_op, workloads.check_lemma,
                              workloads.lemma_text)
    # Traced, the tracer is installed around each op only, so the oracle's
    # own calls into ktsurf never show in the layer metrics.
    tracer = Tracer() if trace_dir else None
    ops, texts = [], []
    for k, item in enumerate(items):
        if tracer:
            tracer.op = k
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = op(item)
        except Exception as exc:  # a raising op is a failed op
            result = exc
        finally:
            latency = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if isinstance(result, Exception):
            problems = [f"{type(result).__name__}: {result}"]
        else:
            problems = check(item, result)
            texts.append(text_of(result))
        ops.append({"label": item["label"], "latency": latency,
                    "problems": problems})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": ops, "wall_s": sum(op["latency"] for op in ops),
              "rss_mb": peak_kib / 1024,
              "digest": workloads.digest(texts)}
    if tracer:
        result["stats"] = tracer.stats()
        tracer.write_spans(trace_dir / f"{tag}.spans.jsonl")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-dir", type=Path)
    args = ap.parse_args(argv)
    items = workloads.make_inputs(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace_dir:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli-cold":
        result = cli_pass(items, args.trace_dir, tag)
    else:
        result = in_process_pass(args.workload, items, args.trace_dir, tag)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
