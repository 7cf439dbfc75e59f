"""Layered Monte Carlo benchmark for adelic-diffusion.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kernel_bridge --seed 1 --seconds 30 --trace 0

The launcher starts one worker process that sets up (imports, inputs, one
untimed warm-up request), prints READY, runs whole rounds of requests for
--seconds, checks every output and reports.  Set-up time is the time from
spawning a process to its READY line, taken as the median of that worker
and two more processes that only set up.  With --trace 1 the worker runs
one round traced, the rest untraced, and reports per-layer metrics instead.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("kernel_bridge", "schrodinger_events", "adelic_cli")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 175.0
IMPORT_SAMPLES = 3


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("launcher", "worker", "setup"), default="launcher",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- launcher ----------------------------------------------------------------


def _spawn(cmd: list[str], env: dict, timeout: float):
    """Run a worker; return (its RESULT document or None, seconds to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0:
        print(f"worker exited with code {code}", file=sys.stderr)
        return None, None
    return result, ready


def launch(args) -> int:
    if not (SRC / "adelic_diffusion" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result, ready = _spawn(base + ["--role", "worker"], env, TIME_LIMIT_S)
    if result is None or ready is None:
        return 1
    if not args.trace:
        setups = [ready]
        for _ in range(SETUP_SAMPLES - 1):
            _, ready = _spawn(base + ["--role", "setup"], env,
                              TIME_LIMIT_S - (time.perf_counter() - start))
            if ready is None:
                return 1
            setups.append(ready)
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


# -- worker ------------------------------------------------------------------


def _rounds(wl, seconds: float, first: int = 0) -> list:
    """Whole rounds, closed loop, until `seconds` have passed (at least one)."""
    records, r, t0 = [], first, time.perf_counter()
    while True:
        records += wl.run_round(r)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return records


def _served(records) -> list:
    return [rec for rec in records if rec.kind == "request" and rec.ok]


def _paths_per_s(records) -> float:
    done = _served(records)
    return sum(rec.paths for rec in done) / sum(rec.seconds for rec in done) if done else 0.0


def _peak_rss_mib(children_only: bool) -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_only:
        return kids / 1024.0
    return max(kids, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0


def _end_to_end(wl, records) -> dict:
    done = _served(records)
    metrics = {}
    if done:
        metrics = {
            "paths_per_s": (_paths_per_s(records), "1/s"),
            "request_s_p50": (statistics.median(rec.seconds for rec in done), "s"),
            "time_to_1pct_s": (statistics.median(
                rec.seconds * (rec.se / (0.01 * abs(rec.value))) ** 2 for rec in done), "s"),
        }
    metrics["peak_rss_mib"] = (_peak_rss_mib(wl.RSS_CHILDREN_ONLY), "MiB")
    return metrics


def _import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import adelic_diffusion.cli; "
            "print(time.perf_counter() - t0)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def _traced(wl, seconds: float):
    import layers
    import workloads
    from spans import Tracer

    tracer, meter = Tracer(), layers.CacheMeter()
    is_cli = isinstance(wl, workloads.AdelicCli)
    if is_cli:
        command = tracer.span("cli.command", workloads.run_cli_in_process)

        def in_process(argv):
            meter.clear(layers.PROCESS_CACHES)
            return command(argv)

        wl.in_process, wl.bytes_written = in_process, 0
    layers.install(tracer, meter)
    meter.start()
    t0 = time.perf_counter()
    try:
        traced = wl.run_round(0)
    finally:
        meter.read()
        tracer.uninstall()
    if is_cli:
        wl.in_process = None
        tracer.counts["cli.output_bytes"] = wl.bytes_written
    untraced = _rounds(wl, seconds - (time.perf_counter() - t0), first=1)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}.npz")
    per_layer = layers.report(tracer, meter)
    per_layer["cli.import_s"] = _import_seconds() if is_cli else 0.0
    fast, slow = _paths_per_s(untraced), _paths_per_s(traced)
    per_layer["trace.paths_per_s"] = slow
    per_layer["trace.untraced_paths_per_s"] = fast
    per_layer["trace.overhead_ratio"] = fast / slow if slow else 0.0
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return traced + untraced, {name: (per_layer[name], units[name]) for name in units}


def work(args) -> int:
    import workloads

    if args.trace and args.workload == "adelic_cli":
        import adelic_diffusion.cli  # noqa: F401  (traced in-process commands)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.warm_up()
    print("READY", flush=True)
    if args.role == "setup":
        return 0
    if args.trace:
        records, metrics = _traced(wl, args.seconds)
    else:
        records = _rounds(wl, args.seconds)
        metrics = _end_to_end(wl, records)
    failures = wl.check(records)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    failed = [rec for rec in records if not rec.ok]
    kinds = sorted({rec.kind for rec in records})
    print(f"{args.workload} seed={args.seed}: {len(records)} operations "
          f"({', '.join(f'{sum(r.kind == k for r in records)} {k}' for k in kinds)}), "
          f"{len(failed)} failed; medians over {len(_served(records))} requests")
    for rec in failed:
        print(f"failed {rec.kind}: {rec.info}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
                    if math.isfinite(v)},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.role == "launcher":
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
