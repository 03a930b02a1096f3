"""A fixed reference workload that measures the machine's current speed.

On a shared machine the speed of the hardware drifts with what other
tenants run, for minutes at a time.  run.py times this reference in every
pass interpreter, before the package is imported, and scales the run's
timings by how its best time compares with REFERENCE_S.  The reference
is pure Python of the same kind as the package (small tuple trees,
recursion, dict memo lookups) and touches nothing of the package, so no
change to the program can move it.

    python3 perfbench/calibrate.py     # prints the reference's best time
"""

from __future__ import annotations

import random
import time

PIECES = 1500
# the reference's best time (sum over pieces of each piece's best) on the
# reference machine in its fast phases; timings are scaled to this speed
REFERENCE_S = 0.12


def _tree(rng: random.Random, size: int) -> tuple:
    if size <= 1:
        return ("v", rng.randrange(4))
    k = rng.randrange(1, size)
    return (rng.choice(("and", "or", "imp")), _tree(rng, k), _tree(rng, size - k))


def _eval(t: tuple, env: int, memo: dict) -> bool:
    r = memo.get((t, env))
    if r is not None:
        return r
    op = t[0]
    if op == "v":
        r = bool(env >> t[1] & 1)
    elif op == "and":
        r = _eval(t[1], env, memo) and _eval(t[2], env, memo)
    elif op == "or":
        r = _eval(t[1], env, memo) or _eval(t[2], env, memo)
    else:
        r = not _eval(t[1], env, memo) or _eval(t[2], env, memo)
    memo[(t, env)] = r
    return r


def reference_ns() -> list[int]:
    """The wall time in ns of each piece of the reference: one truth table
    of a random formula tree of size 12, over four variables."""
    rng = random.Random(12345)
    trees = [_tree(rng, 12) for _ in range(PIECES)]
    times = []
    for t in trees:
        t0 = time.perf_counter_ns()
        memo: dict = {}
        sum(_eval(t, env, memo) for env in range(16))
        times.append(time.perf_counter_ns() - t0)
    return times


if __name__ == "__main__":
    best = [min(p) for p in zip(*(reference_ns() for _ in range(10)))]
    print(f"reference best of 10: {sum(best) / 1e9:.4f} s (REFERENCE_S = {REFERENCE_S})")
