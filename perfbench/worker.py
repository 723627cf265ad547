"""The measured process: imports smalldiv, warms it up, runs the timed loop.

Reads one JSON job from stdin and writes one JSON result to stdout. It never
imports an oracle library, so its peak resident memory is the program's own.
Inputs are rebuilt here from (workload, seed, round) by inputs.py; the
checker rebuilds the same ones to verify the outputs.
"""

import contextlib
import io
import json
import resource
import signal
import sys
from time import perf_counter

import inputs


class OpTimeout(BaseException):
    """Raised by the interval timer when an operation passes its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def _profile(smalldiv, op):
    core, witness = smalldiv.core, smalldiv.witness
    n = op["n"]
    a = core.small_divisor_sum(n)
    b = core.b_via_square_divisors(n)
    f = core.factorize(n)
    m, k = witness.random_coprime_pairs(1, inputs.PAIR_MAX, op["pair_seed"])[0]
    chk = witness.supermult_check(m, k)
    return {
        "a": a, "b": b, "factors": [list(pe) for pe in f.factors],
        "sigma": core.sigma(f), "tau": core.tau(f), "a_factored": core.small_divisor_sum_factored(f),
        "pair": [m, k], "lhs": chk.lhs, "rhs": chk.rhs, "holds": chk.holds,
    }


def _summatory(smalldiv, op):
    s = smalldiv.summatory.residual_report(op["x"])
    g = smalldiv.summatory.sigma_summatory_report(op["x"])
    return {
        "s": s.s_exact, "main": s.main_term, "residual": s.residual, "normalized": s.normalized_residual,
        "sigma_s": g.s_exact, "sigma_main": g.main_term, "sigma_residual": g.residual, "ratio": g.ratio,
    }


def _series(smalldiv, op):
    d = smalldiv.dirichlet
    n = op["n"]
    div = d.partial_dirichlet(d.Series.A, 1.5, n)
    lower = d.divergence_lower_bound(n)
    conv = d.partial_dirichlet(d.Series.A, 1.75, n)
    upper = d.convergence_upper_bound(1.75)
    bser = d.partial_dirichlet(d.Series.B, 3.0, n)
    euler = d.euler_product_b(3.0, n)
    sw = d.sandwich_check(2.5, n)
    return {
        "a15": div.value, "lower": lower, "a175": conv.value, "upper": upper,
        "b3": bser.value, "euler": euler,
        "lower_ok": sw.lower_ok, "upper_ok": sw.upper_ok,
        "product": [sw.zeta_product.lo, sw.zeta_product.hi],
        "l": [sw.l_bracket.lo, sw.l_bracket.hi],
        "zeta_upper": [sw.zeta_upper.lo, sw.zeta_upper.hi],
    }


def _clear_caches(smalldiv):
    """Drop every lru_cache table, so each in-process command starts as cold as a new process."""
    for module in (smalldiv.primes, smalldiv.core):
        for value in vars(module).values():
            # A traced wrapper hides the lru_cache one level down.
            for candidate in (value, getattr(value, "__wrapped__", None)):
                if hasattr(candidate, "cache_clear"):
                    candidate.cache_clear()
                    break


def _cli(smalldiv, op):
    _clear_caches(smalldiv)
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, inputs.CLI_TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = smalldiv.cli.run(op["argv"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


OPERATIONS = {"number-profile": _profile, "summatory": _summatory, "series-scan": _series, "cli-scalar": _cli}


def main() -> None:
    job = json.load(sys.stdin)
    workload = job["workload"]
    run = OPERATIONS[workload]
    warmup = inputs.WARMUP[workload]
    if workload == "cli-scalar":
        signal.signal(signal.SIGALRM, _on_alarm)
        warmup = {"argv": warmup}

    t0 = perf_counter()
    import smalldiv

    if workload == "cli-scalar":
        import smalldiv.cli
    run(smalldiv, warmup)
    setup_s = perf_counter() - t0
    if job["setup_only"]:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    latencies, outputs = [], []
    start = perf_counter()
    r = 0
    while perf_counter() - start < job["seconds"]:
        for op in inputs.round_ops(workload, job["seed"], r):
            if tracer:
                tracer.op = len(outputs)
            t = perf_counter()
            try:
                out = run(smalldiv, op)
            except OpTimeout:
                out = None
            latencies.append(perf_counter() - t)
            outputs.append(out)
        r += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    json.dump({
        "setup_s": setup_s, "latencies": latencies, "outputs": outputs, "peak_rss_kb": peak_kb,
        "spans": tracer.spans if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
