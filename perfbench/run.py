"""Benchmark of certified-verdict throughput and latency for epist2int.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The workload's seeded corpus is built
(timed as setup_s, together with importing the package) and written to
.bench_out/ as text.  Then a fixed number of passes over the corpus run
one after another, each in a fresh interpreter, so that every pass
starts as cold as the first: no pass sees caches that an earlier pass
warmed.  The number of passes and set-ups per run is fixed per workload
and scaled by --seconds (see PLAN), never by how fast the program is.
Within a pass, queries run one at a time from one process and thread
(closed loop, one client).  Set-up is repeated in fresh interpreters
spread over the run.  Every verdict is checked against its known answer
or a re-checked certificate; a wrong verdict, a rejected certificate or
an exception counts as a failed query and is named in the output.

--trace 0 prints the end-to-end metrics.  Each query's time is its best
over the run's cold passes, and the timings are taken over those best
times (see end_to_end).  --trace 1 alternates untraced and traced
passes, prints the per-layer metrics and the ten slowest queries, and
writes the spans of the first traced pass under .bench_out/.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# workload: (set-ups per run, seconds of --seconds per pass).  A run makes
# round(seconds / that) passes, at least MIN_PASSES; the figures on the
# reference machine are about one pass's wall time with interpreter start.
PLAN = {"soundness": (3, 20.0), "certify": (12, 2.9), "godel": (16, 2.8)}
MIN_PASSES = 3
SETUP_GROUP = 4            # set-ups per group (see setup_seconds)
DEADLINE_S = 150           # start no pass or set-up after this (runs end in 180 s)
# named here rather than read from workloads.py, whose import is timed set-up
WORKLOADS = ("soundness", "certify", "godel")


def setup(workload: str, seed: int, sizes: dict | None = None):
    """Import the package and build the corpus; returns (the seconds of
    each piece of set-up, corpus).  The pieces are the import and each
    piece of corpus generation (see workloads.py); they sum to the whole."""
    laps = [time.perf_counter()]
    import workloads

    laps.append(time.perf_counter())
    corpus = workloads.build(workload, seed, sizes, lap=lambda: laps.append(time.perf_counter()))
    laps.append(time.perf_counter())
    return [b - a for a, b in zip(laps, laps[1:])], corpus


def digest(corpus) -> str:
    text = "\n".join(f"{q.kind}\t{q.ctx}\t{q.text}" for q in corpus)
    return hashlib.sha256(text.encode()).hexdigest()


def child(*args: str) -> dict:
    """Run this script with `args` in a fresh interpreter (its own hash
    seed); returns the JSON object on its last output line."""
    out = subprocess.run([sys.executable, str(Path(__file__)), *args],
                         capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])


def run_pass(corpus, tracer=None):
    """One pass over the corpus; returns each query's wall time in ns and
    the failures as (query index, reason)."""
    import workloads
    from spans import direct

    call = tracer.call if tracer is not None else direct
    times, failures = [], []
    for i, q in enumerate(corpus):
        fn = workloads.QUERY_FNS[q.kind]
        if tracer is not None:
            tracer.qid = i
        t0 = time.perf_counter_ns()
        try:
            err = call("query", fn, call, q)
        except Exception as exc:  # a failed query is counted and named, not fatal
            err = f"{type(exc).__name__}: {str(exc)[:200]}"
        times.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.settle()
        if err is not None:
            failures.append((i, err))
    return times, failures


def tail_report(corpus, slowest) -> list[dict]:
    return [{"ms": round(ns / 1e6, 3), "work": work,
             "label": corpus[qid].label, "query": corpus[qid].text}
            for ns, qid, work in slowest]


def write_spans(path: Path, meta: dict, tail: list, tracer) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta, "slowest": tail, "span_fields":
                             ["query", "name", "start_ns", "end_ns", "parent"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def one_pass(corpus_path: Path, traced: bool, spans_path: Path | None) -> dict:
    """The body of a pass interpreter: the reference workload, before the
    package is imported, then one pass over the saved corpus."""
    from calibrate import reference_ns

    ref_ns = reference_ns()
    import workloads
    from spans import Tracer

    corpus = [workloads.Query(*row) for row in json.loads(corpus_path.read_text())]
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    times, failures = run_pass(corpus, tracer)
    wall_s = time.perf_counter() - t0
    out = {"wall_s": wall_s, "times_ns": times, "ref_ns": ref_ns,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "failures": failures}
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spans_path is not None:
            write_spans(spans_path, {"corpus": corpus_path.name},
                        tail_report(corpus, out["trace"]["slowest"]), tracer)
    return out


def run_for(argv: list[str], corpus_path: Path, n_passes: int, n_setups: int,
            traced: bool, setups: list, spans_path: Path, started: float) -> list[dict]:
    """`n_passes` passes, each in a fresh interpreter, with the set-ups
    still to make (up to `n_setups` in all) in fresh interpreters between
    them, spread evenly over the run, so that set-ups and passes sample
    the same machine phases.  Traced runs alternate untraced and traced
    passes, starting untraced.  Past DEADLINE_S from `started` no more
    pass or set-up starts once MIN_PASSES passes are made.
    """
    passes: list[dict] = []
    for j in range(n_passes):
        late = time.perf_counter() - started > DEADLINE_S
        if late and len(passes) >= MIN_PASSES:
            break
        while not late and len(setups) < n_setups and len(setups) * n_passes < (j + 1) * n_setups:
            setups.append(child("--setup-only", *argv))
        trace = traced and j % 2 == 1
        args = ["--pass-of", str(corpus_path), "--trace", str(int(trace))]
        if trace and j == 1:
            args += ["--spans", str(spans_path)]
        passes.append(child(*args, *argv) | {"traced": trace})
    return passes


def count_profile(workload: str, seed: int, sizes: dict | None = None) -> dict:
    """Verdicts and exact counts of one traced pass (for the determinism test)."""
    from spans import Tracer

    _, corpus = setup(workload, seed, sizes)
    tracer = Tracer()
    _, failures = run_pass(corpus, tracer)
    return {"digest": digest(corpus), "failures": failures,
            "verdicts": tracer.verdicts, "counts": tracer.counts}


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_table(rows) -> None:
    print(f"{'metric':<34} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"{name:<34} {value:>14.6g}  {unit:<6} {samples}")


def describe_failures(corpus, passes) -> list[str]:
    seen: dict = {}
    for p in passes:
        for i, err in p["failures"]:
            seen.setdefault(i, err)
    return [f"query {i} [{corpus[i].label}] {corpus[i].text}: {err}"
            for i, err in sorted(seen.items())]


def best_times_ns(passes: list, key: str = "times_ns") -> list[int]:
    """Each query's (or reference piece's) best wall time over the passes, in ns."""
    return [min(t) for t in zip(*(p[key] for p in passes))]


def setup_seconds(setups: list, group: int) -> float:
    """setup_s from the piece times of a run's set-ups.  Set-up k falls in
    group k mod (number of groups), so a group's members lie spread over
    the run; a group's figure is the sum over pieces of each piece's best
    over its members, and setup_s is the median over groups."""
    groups = max(1, len(setups) // group)
    return statistics.median(sum(min(piece) for piece in zip(*setups[g::groups]))
                             for g in range(groups))


def slowdown(passes: list) -> float:
    """How much slower than calibrate.REFERENCE_S the machine ran: the
    reference's best time over the passes, piece by piece, over it."""
    from calibrate import REFERENCE_S

    return sum(best_times_ns(passes, "ref_ns")) / 1e9 / REFERENCE_S


def end_to_end(setups: list, passes: list) -> dict:
    """End-to-end metric values, at the reference speed.

    Every pass decides the same corpus from a cold start, so each query
    is timed once per pass; its figure is its best time over the run's
    passes.  queries_per_s is the corpus size over the sum of those best
    times (the length of one cold pass with every query at its best), and
    the latencies are percentiles of them.  On a shared machine other
    tenants only slow a query down, in bursts that can halve the speed
    for seconds at a time; a query's best over passes spread across the
    run tracks the program's own speed, and since the number of passes is
    fixed by PLAN, a faster program gets no more chances at a low minimum.
    setup_s is measured the same way, piece by piece over groups of
    set-ups (see setup_seconds).  The machine's speed also drifts for
    minutes at a time, longer than a run, so every timing is divided by
    the run's slowdown: the reference workload's best time, measured the
    same way in every pass, against calibrate.REFERENCE_S.  peak_rss_mb
    is the median over passes.
    """
    slow = slowdown(passes)
    best_ms = [ns / 1e6 / slow for ns in best_times_ns(passes)]
    return {
        "setup_s": setup_seconds(setups, SETUP_GROUP) / slow,
        "queries_per_s": len(best_ms) / (sum(best_ms) / 1e3),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_p99_ms": statistics.quantiles(best_ms, n=100)[98],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: time one set-up and print it as JSON")
    ap.add_argument("--pass-of", type=Path,
                    help="internal: make one pass over this saved corpus and print it as JSON")
    ap.add_argument("--spans", type=Path, help="internal: where --pass-of writes its spans")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "epist2int" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'epist2int'}; "
              "run from the root of an epist2int checkout", file=sys.stderr)
        return 2
    if args.pass_of is not None:
        print(json.dumps(one_pass(args.pass_of, args.trace == 1, args.spans)))
        return 0

    started = time.perf_counter()
    pieces_s, corpus = setup(args.workload, args.seed)
    ours = digest(corpus)
    if args.setup_only:
        print(json.dumps({"pieces_s": pieces_s, "digest": ours}))
        return 0
    import workloads

    # one table of metric names and units: BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    corpus_path = stem.with_suffix(".corpus.json")
    corpus_path.write_text(json.dumps([list(q) for q in corpus]))
    child_argv = ["--workload", args.workload, "--seed", str(args.seed)]
    setups: list = [{"pieces_s": pieces_s, "digest": ours}]
    n_setups, pass_cost_s = PLAN[args.workload]
    n_passes = max(MIN_PASSES, round(args.seconds / pass_cost_s))
    passes = run_for(child_argv, corpus_path, n_passes, n_setups, args.trace == 1,
                     setups, stem.with_suffix(".spans.jsonl"), started)
    problems = [f"set-up in a fresh interpreter built a different corpus ({s['digest'][:12]})"
                for s in setups if s["digest"] != ours]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "corpus_queries": len(corpus),
        "corpus_sizes": workloads.SIZES[args.workload], "corpus_digest": ours,
        "passes": len(passes), "passes_planned": n_passes, "setups": len(setups),
        "pass_s": [round(p["wall_s"], 4) for p in passes],
        "setup_s": [round(sum(s["pieces_s"]), 4) for s in setups],
    }
    attempted = len(corpus) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    samples = f"{len(passes)} passes x {len(corpus)} queries"
    if args.trace == 0:
        values = end_to_end([s["pieces_s"] for s in setups], passes)
        rows = [(n, v, units[n], f"{len(setups)} set-ups" if n == "setup_s" else samples)
                for n, v in values.items()]
        rows.append(("error_rate", failed / attempted, "share", f"{attempted} queries"))
        slow = slowdown(passes)
        rows += [("slowdown (not gated)", slow, "x", samples),
                 ("raw queries_per_s (not gated)", values["queries_per_s"] / slow, "1/s", samples),
                 ("median_pass_queries_per_s (not gated)",
                  len(corpus) / statistics.median(p["wall_s"] for p in passes), "1/s", samples)]
    else:
        from spans import layer_metrics

        traced = [p for p in passes if p["traced"]]
        summaries = [p["trace"] for p in traced]
        for s in summaries[1:]:
            if s["counts"] != summaries[0]["counts"] or s["verdicts"] != summaries[0]["verdicts"]:
                problems.append("a traced pass did not repeat the first pass's counts")
                break
        values = layer_metrics(
            summaries,
            sum(best_times_ns(traced)) / 1e9,
            sum(best_times_ns([p for p in passes if not p["traced"]])) / 1e9)
        rows = [(n, v, units.get(n, "?"), f"{len(traced)} traced passes")
                for n, v in values.items()]
    if set(values) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}

    print("meta " + json.dumps(meta))
    print_table(rows)
    if args.trace == 1:
        query_s = values["trace.query_s"]
        print("layer shares of traced query time:")
        for name, v in values.items():
            if units.get(name) == "s" and name != "trace.query_s" and v > 0:
                print(f"  {name:<32} {v / query_s:7.1%}")
        print("slowest queries of the first traced pass (ms, nodes+steps, context, query):")
        for t in tail_report(corpus, summaries[0]["slowest"]):
            print(f"  {t['ms']:10.3f} {t['work']:9d}  {t['label']}  {t['query']}")
    for line in problems + describe_failures(corpus, passes)[:20]:
        print("FAIL " + line)

    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
