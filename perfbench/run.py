"""Benchmark for smalldiv: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload summatory --seed 1 --seconds 25 --trace 0

Run from the repository root (or any copy of it holding src/smalldiv). The
last line of stdout is a JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. The full result, and the spans of a traced run, are also written
under perfbench/runs/. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

# Workload names, metric names and units come from the benchmark's declaration.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5
BARE_SAMPLES = 5
WORKER_GRACE_S = 60


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


ENV = _env()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _worker(workload: str, seed: int, seconds: int, trace: bool, setup_only: bool, importtime: bool = False):
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "setup_only": setup_only}
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(HERE / "worker.py")]
    proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        fail(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout), proc.stderr


def _cli_process(argv: list[str], importtime: bool = False):
    """One CLI invocation; returns (seconds, output or None when over the time limit)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "smalldiv.cli", *argv]
    t = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT,
                              timeout=inputs.CLI_TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t, None
    return perf_counter() - t, {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def import_split(stderr: str) -> tuple[bool, float, float]:
    """(numpy imported, numpy ms, smalldiv ms excluding numpy) from -X importtime output.

    Entries come children first, each indented under its parent; a smalldiv*
    entry is charged its cumulative time minus the numpy imported inside it.
    """
    pending: list[tuple[int, int, int]] = []  # depth, numpy us, smalldiv us
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        depth, name = len(field) - len(field.lstrip()), field.strip()
        numpy_us = smalldiv_us = 0
        while pending and pending[-1][0] > depth:
            _, child_numpy, child_smalldiv = pending.pop()
            numpy_us += child_numpy
            smalldiv_us += child_smalldiv
        if name == "numpy":
            numpy_us = int(cumulative)
        if name == "smalldiv" or name.startswith("smalldiv."):
            smalldiv_us = int(cumulative) - numpy_us
        pending.append((depth, numpy_us, smalldiv_us))
    numpy_us = sum(p[1] for p in pending)
    return numpy_us > 0, numpy_us / 1e3, sum(p[2] for p in pending) / 1e3


def _startup_metrics(import_logs: list[str]) -> dict:
    splits = [import_split(log) for log in import_logs]
    bare = []
    for _ in range(BARE_SAMPLES):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=ENV, cwd=ROOT)
        bare.append((perf_counter() - t) * 1e3)
    numpy_ms = [ms for loaded, ms, _ in splits if loaded]
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.numpy_loaded_ops": sum(loaded for loaded, _, _ in splits),
        "cli.import_numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
        "cli.import_smalldiv_ms": statistics.median(ms for _, _, ms in splits),
    }


def run_inprocess(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up probes in fresh processes, then one worker that runs the timed loop."""
    probes = [_worker(workload, seed, seconds, trace, True, importtime=trace) for _ in range(SETUP_SAMPLES - 1)]
    result, _ = _worker(workload, seed, seconds, trace, False)
    result["setup_samples"] = [p["setup_s"] for p, _ in probes] + [result["setup_s"]]
    if trace:
        result["startup"] = _startup_metrics([log for _, log in probes])
    return result


def run_cli(seed: int, seconds: int, trace: bool) -> dict:
    """cli-scalar: one `python -m smalldiv.cli` child at a time, in whole rounds.

    The traced run instead times each command of the first round under
    -X importtime, then runs the loop in-process through smalldiv.cli.run.
    """
    warmup = [_cli_process(inputs.WARMUP["cli-scalar"]) for _ in range(SETUP_SAMPLES)]
    if any(out is None or out["code"] != 0 for _, out in warmup):
        fail(f"warm-up command failed: {warmup[-1][1]}")
    setup_samples = [t for t, _ in warmup]
    if trace:
        logs = []
        for op in inputs.round_ops("cli-scalar", seed, 0):
            if str(inputs.SLOW_PRIME) in op["argv"]:
                continue
            _, out = _cli_process(op["argv"], importtime=True)
            logs.append(out["stderr"] if out else "")
        result, _ = _worker("cli-scalar", seed, seconds, True, False)
        result["setup_samples"] = setup_samples
        result["startup"] = _startup_metrics(logs)
        return result

    latencies, outputs = [], []
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds:
        for op in inputs.round_ops("cli-scalar", seed, r):
            t, out = _cli_process(op["argv"])
            latencies.append(t)
            outputs.append(out)
        r += 1
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"latencies": latencies, "outputs": outputs, "peak_rss_kb": peak_kb, "setup_samples": setup_samples}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in CONTRACT["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "smalldiv" / "__init__.py").is_file():
        fail(f"no smalldiv package under {ROOT / 'src'}")
    trace = bool(args.trace)

    if args.workload == "cli-scalar":
        result = run_cli(args.seed, args.seconds, trace)
    else:
        result = run_inprocess(args.workload, args.seed, args.seconds, trace)

    # The measured processes have all ended; only now load the oracles.
    import checks

    outputs = result["outputs"]
    ops = inputs.all_ops(args.workload, args.seed, len(outputs))
    failures = checks.check_run(args.workload, ops, outputs)
    for message in failures[:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    completed = [t for t, out in zip(result["latencies"], outputs) if out is not None]
    attempted, failed = len(outputs), len(outputs) - len(completed)
    if not completed:
        fail("no operation completed")

    # Timings not in BENCHMARK.json go to the run's file only: the host's CPU
    # speed drifts, and over ten runs the median's spread reached 0.37 and the
    # throughput's 0.34 (see README.md).
    ms = sorted(t * 1e3 for t in completed)
    timing = {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "ops_per_s": len(completed) / sum(result["latencies"]),
    }
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    if trace:
        done = {i for i, out in enumerate(outputs) if out is not None}
        metrics = spans.layer_metrics(list(units), result["spans"], attempted, done)
        metrics.update(result["startup"])
    else:
        metrics = dict(timing, peak_rss_mb=result["peak_rss_kb"] / 1024,
                       setup_s=statistics.median(result["setup_samples"]))
    ungated = {name: value for name, value in timing.items() if name not in units}
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(line, ungated=ungated, setup_samples=result["setup_samples"], check_failures=failures[:100])
    (runs / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        with open(runs / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as f:
            for span in result["spans"]:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "attrs"), span))) + "\n")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
