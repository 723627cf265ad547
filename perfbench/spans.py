"""Spans around calls into the package's public functions, recorded from outside.

install() wraps each function in TARGETS in every smalldiv module that holds
it, so a call is seen whichever module looks the name up (core.is_prime as
well as primes.is_prime). A span is [name, start, end, parent, op, attrs]:
parent is the index of the enclosing span or None, op the operation id the
benchmark set before the call. Tracing starts after the warm-up, so every span
belongs to a timed operation. Spans stay in memory until the run ends.
layer_metrics() turns them into the per-layer numbers.
"""

import functools
import inspect
import statistics
import sys
from time import perf_counter

TARGETS = {
    "primes": ("prime_flags", "primes_upto", "is_prime"),
    "core": (
        "factorize", "small_divisor_sum", "b_via_square_divisors", "small_divisor_sum_factored",
        "small_divisor_sums_upto", "b_values_upto",
    ),
    "summatory": ("summatory_exact", "sigma_summatory_exact", "residual_report", "sigma_summatory_report"),
    "dirichlet": ("partial_dirichlet", "zeta_bracket", "euler_product_b", "sandwich_check"),
    "witness": ("supermult_check", "random_coprime_pairs"),
    "cli": ("run",),
}


def _attrs_for(name: str):
    """What a span records besides its timing, for the functions that need it."""
    if name == "primes.prime_flags":
        return lambda bound, result: {"bytes": bound.arguments["limit"] + 1}
    if name == "primes.primes_upto":
        return lambda bound, result: {"count": len(result)}
    if name in ("core.small_divisor_sums_upto", "core.b_values_upto"):
        return lambda bound, result: {"bytes": int(result.nbytes)}
    if name == "core.factorize":
        return lambda bound, result: {"factors": len(result.factors)}
    if name == "core.small_divisor_sum_factored":
        return lambda bound, result: {"divisors": bound.arguments["f"].tau()}
    if name == "dirichlet.partial_dirichlet":
        return lambda bound, result: {"terms": bound.arguments["n_terms"]}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = _attrs_for(name)
        signature = inspect.signature(fn) if attrs else None
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            hits = fn.cache_info().hits if cached else 0
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            extra = attrs(signature.bind(*args, **kwargs), result) if attrs else {}
            if cached:
                extra["hit"] = fn.cache_info().hits > hits
            span[5] = extra or None
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace every target, in every loaded smalldiv module that binds it."""
    modules = [m for key, m in list(sys.modules.items()) if key == "smalldiv" or key.startswith("smalldiv.")]
    for short, names in TARGETS.items():
        home = sys.modules.get(f"smalldiv.{short}")
        if home is None:
            continue
        for name in names:
            original = getattr(home, name)
            wrapped = tracer.wrap(f"{short}.{name}", original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)


def layer_metrics(names: list[str], spans: list[list], ops: int, completed_ops: set[int]) -> dict[str, float]:
    """The per-layer metrics in names, from the spans of the timed loop.

    Calls, hits, bytes, milliseconds and work counts are means per attempted
    operation; cli.command_ms is the median cli.run time of completed ones.
    The cli.* start-up numbers come from separate processes and are added by
    the caller.
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent is not None:
            child_ms[parent] += end - start
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    command_ms = []
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        dur = (end - start) * 1e3
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + dur
        self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[i] * 1e3
        extra = extra or {}  # an operation stopped at its time limit leaves none
        if extra.get("hit"):
            add(f"{name}.hits", 1)
        elif "bytes" in extra:
            add(f"{name}.bytes", extra["bytes"])
        if name == "core.factorize":
            add("factors", extra.get("factors", 0))
        if name == "core.small_divisor_sum_factored":
            add("core.divisors_enumerated", extra.get("divisors", 0))
        if name == "dirichlet.partial_dirichlet":
            add("dirichlet.terms_summed", extra.get("terms", 0))
        if name == "primes.primes_upto" and parent is not None and spans[parent][0] == "dirichlet.euler_product_b":
            add("dirichlet.euler_primes_used", extra.get("count", 0))
        if name == "cli.run" and op in completed_ops:
            command_ms.append(dur)

    out = {}
    per_kind = {"calls": calls, "ms": ms, "self_ms": self_ms}
    for metric in names:
        if metric.startswith("cli."):
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls_per_factor":
            out[metric] = calls.get(base, 0) / sums["factors"] if sums.get("factors") else 0.0
        elif kind in per_kind:
            out[metric] = per_kind[kind].get(base, 0) / ops
        else:
            out[metric] = sums.get(metric, 0) / ops
    out["cli.command_ms"] = statistics.median(command_ms) if command_ms else 0.0
    return out
