"""Shows that the checker accepts the program's outputs and rejects perturbed ones.

    python3 perfbench/selftest.py

For each workload it runs a few operations in-process, checks them, then
perturbs one value at a time (S(x) + 1, a(n) + 1, a partial sum off by one
part in 10^6, a flipped verdict, a changed CLI row, ...) and requires the
checker to reject every perturbed copy. Exits 1 on the first surprise.
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import smalldiv  # noqa: E402
import smalldiv.cli  # noqa: E402
import worker  # noqa: E402


def _bump_last_row(text: str) -> str:
    *head, last = text.splitlines()
    first, _, rest = last.partition(",")
    return "\n".join([*head, f"{first}1,{rest}"]) + "\n"


PERTURBATIONS = {
    "number-profile": [
        ("a + 1", lambda o: o.update(a=o["a"] + 1)),
        ("b + 1", lambda o: o.update(b=o["b"] + 1)),
        ("sigma - 1", lambda o: o.update(sigma=o["sigma"] - 1)),
        ("tau + 1", lambda o: o.update(tau=o["tau"] + 1)),
        ("exponent + 1", lambda o: o["factors"][0].__setitem__(1, o["factors"][0][1] + 1)),
        ("a(mn) + 1", lambda o: o.update(lhs=o["lhs"] + 1)),
        ("holds false", lambda o: o.update(holds=False)),
    ],
    "summatory": [
        ("S(x) + 1", lambda o: o.update(s=o["s"] + 1)),
        ("sum of sigma - 1", lambda o: o.update(sigma_s=o["sigma_s"] - 1)),
        ("residual + 16", lambda o: o.update(residual=o["residual"] + 16)),
        ("ratio * (1 + 1e-12)", lambda o: o.update(ratio=o["ratio"] * (1 + 1e-12))),
    ],
    "series-scan": [
        ("a-sum at 3/2 * (1 + 1e-6)", lambda o: o.update(a15=o["a15"] * (1 + 1e-6))),
        ("b-sum at 3 * (1 - 1e-6)", lambda o: o.update(b3=o["b3"] * (1 - 1e-6))),
        ("divergence bound + 1e-6", lambda o: o.update(lower=o["lower"] + 1e-6)),
        ("Euler product * (1 + 1e-9)", lambda o: o.update(euler=o["euler"] * (1 + 1e-9))),
        ("lower_ok false", lambda o: o.update(lower_ok=False)),
        ("L bracket shifted", lambda o: o.update(l=[o["l"][1], o["l"][1] + 1.0])),
    ],
    "cli-scalar": [
        ("digit appended to the first field of the last row", lambda o: o.update(stdout=_bump_last_row(o["stdout"]))),
        ("header twice", lambda o: o.update(stdout=o["stdout"].splitlines()[0] + "\n" + o["stdout"])),
        ("exit code 3", lambda o: o.update(code=3)),
        ("stderr text", lambda o: o.update(stderr="warning\n")),
    ],
}


def main() -> None:
    for workload, perturbations in PERTURBATIONS.items():
        ops = [op for op in inputs.all_ops(workload, 0, 24) if str(inputs.SLOW_PRIME) not in op.get("argv", [])]
        ops = ops[:6] if workload != "cli-scalar" else ops[:18]
        outputs = [worker.OPERATIONS[workload](smalldiv, op) for op in ops]
        failures = checks.check_run(workload, ops, outputs)
        if failures:
            sys.exit(f"{workload}: honest outputs rejected: {failures}")
        for name, perturb in perturbations:
            for i, (op, out) in enumerate(zip(ops, outputs)):
                bad = copy.deepcopy(out)
                perturb(bad)
                if not checks.check_run(workload, ops[i : i + 1], [bad]):
                    sys.exit(f"{workload}: perturbation {name!r} of {op} was accepted")
        print(f"{workload}: {len(ops)} honest outputs accepted, {len(perturbations)} perturbations rejected on each")


if __name__ == "__main__":
    main()
