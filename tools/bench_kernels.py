"""Per-kernel, per-subcommand and import timings of two smalldiv trees, side by side.

    python tools/bench_kernels.py PARENT_DIR CHANGE_DIR OUT.json

Each DIR is a checkout holding src/smalldiv. Every measurement runs in a fresh
interpreter with PYTHONPATH=DIR/src, and the two trees alternate for ROUNDS
rounds, which side goes first alternating too. The JSON holds, per side, the
median and quartiles of the samples pooled over all rounds, and the median of
the per-round medians ("round_median"). All samples of a round come from one
child, so a burst of load from other processes moves a whole round together;
in round_median that burst is one of ROUNDS samples, not one of 20 or more.
The samples are:

  kernels      in-process milliseconds of one call. Every lru_cache in
               smalldiv is cleared before each call, so a call pays for the
               tables it builds, as a fresh CLI run does. A kernel is called
               5 times a round, or FAST_CALLS times when one of those calls
               took under FAST_MS, so a fast kernel's median is not read from
               a few samples that other processes can disturb. "series-scan
               op" is the perfbench series-scan operation on a fresh N in
               [10**5, 1.25*10**5) after one warm-up operation, caches kept,
               FAST_CALLS times a round.
  subcommands  wall milliseconds and ru_maxrss (MB) of `python -m smalldiv.cli`
               children, from os.wait4.
  imports      milliseconds of interpreter start-up alone, and of importing
               smalldiv, smalldiv.cli and numpy in a fresh interpreter.

It also records, per subcommand, whether numpy and dataclasses are loaded
after it ran.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter

ROUNDS = 5
FAST_CALLS = 20
FAST_MS = 10.0
LOADED_MODULES = ("numpy", "dataclasses")
KERNELS = {
    "partial_dirichlet a N=1e5": "d.partial_dirichlet(d.Series.A, 1.5, 10**5)",
    "partial_dirichlet b N=1e5": "d.partial_dirichlet(d.Series.B, 3.0, 10**5)",
    "partial_dirichlet a N=1e7": "d.partial_dirichlet(d.Series.A, 1.5, 10**7)",
    "partial_dirichlet b N=1e7": "d.partial_dirichlet(d.Series.B, 3.0, 10**7)",
    "zeta_bracket s=2.5": "d.zeta_bracket(2.5)",
    "zeta_bracket s=1.000001": "d.zeta_bracket(1.000001)",
    "euler_product_b N=1e5": "d.euler_product_b(3.0, 10**5)",
    "small_divisor_sums_upto 1e6": "core.small_divisor_sums_upto(10**6)",
    "b_values_upto 1e6": "core.b_values_upto(10**6)",
    "summatory_brute_prefix 1e6": "summatory.summatory_brute_prefix(10**6)",
    "summatory_exact x=1.1e10": "summatory.summatory_exact(11 * 10**9)",
    "sigma_summatory_exact x=1.1e10": "summatory.sigma_summatory_exact(11 * 10**9)",
    "summatory_exact x=1e12": "summatory.summatory_exact(10**12)",
}
SUBCOMMANDS = {
    **{f"{name} N={label}": [*argv, "--terms", str(n)]
       for name, argv in (("dirichlet", ["dirichlet", "--series", "a", "--sigma", "2.5"]),
                          ("sandwich", ["sandwich", "--sigma", "2.5"]))
       for label, n in (("1e5", 10**5), ("1e7", 10**7))},
    **{f"summatory x={label} {method}": ["summatory", "--x", str(x), "--method", method]
       for label, x, method in (("1e2", 10**2, "brute"), ("1e5", 10**5, "both"), ("1e6", 10**6, "brute"))},
}

_KERNEL_CHILD = """
import json, random, sys
from time import perf_counter
import smalldiv
from smalldiv import core, summatory
from smalldiv import dirichlet as d

def clear():
    for module in (smalldiv.primes, smalldiv.core, d):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

def series_op(n):
    d.partial_dirichlet(d.Series.A, 1.5, n); d.divergence_lower_bound(n)
    d.partial_dirichlet(d.Series.A, 1.75, n); d.convergence_upper_bound(1.75)
    d.partial_dirichlet(d.Series.B, 3.0, n); d.euler_product_b(3.0, n)
    d.sandwich_check(2.5, n)

fast_calls, fast_ms = json.loads(sys.argv[3])
out = {}
for name, call in json.loads(sys.argv[1]).items():
    times = []
    while len(times) < 5 or (len(times) < fast_calls and min(times) < fast_ms):
        clear()
        start = perf_counter()
        eval(call)
        times.append((perf_counter() - start) * 1e3)
    out[name] = times
series_op(90_000)
rng = random.Random(int(sys.argv[2]))
times = []
for _ in range(fast_calls):
    n = rng.randrange(10**5, 125_000)
    start = perf_counter()
    series_op(n)
    times.append((perf_counter() - start) * 1e3)
out["series-scan op"] = times
print(json.dumps(out))
"""

_IMPORT_CHILD = """
import sys
from time import perf_counter
start = perf_counter()
__import__(sys.argv[1])
print((perf_counter() - start) * 1e3)
"""

_LOADED_CHILD = """
import contextlib, io, json, sys
from smalldiv import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(json.loads(sys.argv[1])) == 0
print(json.dumps({module: module in sys.modules for module in json.loads(sys.argv[2])}))
"""


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def _child(tree: str, *argv: str) -> str:
    return subprocess.run([sys.executable, *argv], env=_env(tree), capture_output=True, text=True,
                          check=True).stdout


def _wall_and_rss(tree: str, argv: list[str]) -> tuple[float, float]:
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=_env(tree), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait again
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def measure_round(tree: str, seed: int) -> dict[str, list[float]]:
    kernels = _child(tree, "-c", _KERNEL_CHILD, json.dumps(KERNELS), str(seed), json.dumps([FAST_CALLS, FAST_MS]))
    samples = {f"kernel {k}": v for k, v in json.loads(kernels).items()}
    for name, argv in SUBCOMMANDS.items():
        wall, rss = _wall_and_rss(tree, ["-m", "smalldiv.cli", *argv])
        samples[f"subcommand {name} wall_ms"] = [wall]
        samples[f"subcommand {name} maxrss_mb"] = [rss]
    samples["import interpreter_ms"] = [_wall_and_rss(tree, ["-c", "pass"])[0]]
    for module in ("smalldiv", "smalldiv.cli", "numpy"):
        samples[f"import {module}_ms"] = [float(_child(tree, "-c", _IMPORT_CHILD, module))]
    return samples


def summarize(rounds: list[list[float]]) -> dict:
    values = [v for samples in rounds for v in samples]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3), "n": len(values),
            "round_median": round(statistics.median(map(statistics.median, rounds)), 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    args = parser.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    samples: dict[str, dict[str, list[list[float]]]] = {side: {} for side in trees}
    for r in range(ROUNDS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            for name, values in measure_round(trees[side], seed=r).items():
                samples[side].setdefault(name, []).append(values)
    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "rounds": ROUNDS,
        "metrics": {name: {side: summarize(samples[side][name]) for side in trees}
                    for name in samples["parent"]},
    }
    loaded = {side: {name: json.loads(_child(tree, "-c", _LOADED_CHILD, json.dumps(argv), json.dumps(LOADED_MODULES)))
                     for name, argv in SUBCOMMANDS.items()}
              for side, tree in trees.items()}
    for module in LOADED_MODULES:
        result[f"{module} loaded after"] = {side: {name: flags[module] for name, flags in loaded[side].items()}
                                            for side in trees}
    with open(args.out, "w") as f:
        # one line per metric
        f.write(re.sub(r"\n {3,}(?=\S)|\n  (?=\})", " ", json.dumps(result, indent=1)) + "\n")


if __name__ == "__main__":
    main()
