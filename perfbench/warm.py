"""The degree-warm library session: one process, tables filled once.

    python3 perfbench/warm.py <seed> <seconds> [<spans.json>]

imports scrollflex, runs the warm-up pass (the set-up a library user pays
before the first warm query), then makes whole timed passes over the query
mix until ``seconds`` have elapsed.  It prints one JSON object: set-up
seconds, pass walls, query latencies by pass, and the problems found when
checking the first pass against the references and later passes against
the first.  Times are scaled to the reference host speed by calibration
samples taken before and after the warm-up and each pass.

Given a spans file, the session is traced instead: the span wrappers of
``spans.py`` are installed before the warm-up, so its first-time table
builds are seen, exactly one pass is made, and the spans
are written to that file.
"""

import json
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def run_query(query: dict):
    """One library call; names are looked up on the module at call time."""
    from scrollflex import scroll

    setup = scroll.ScrollSetup(*query["setup"])
    kind = query["kind"]
    if kind == "symbolic":
        preset = scroll.BASE_PRESETS[query["preset"]]
        return scroll.symbolic_degree(setup, preset.assignments(), preset.slots)
    if kind == "numeric":
        data = scroll.BASE_PRESETS[query["preset"]].numerical(**query["values"])
        return scroll.degree_of_inflection(setup, data)
    return scroll.degree_class(setup)


def session(seed: int, seconds: float, tracer: Tracer | None = None) -> dict:
    clock = calibrate.Clock()
    start = time.perf_counter()
    reference = load_reference()
    queries = workloads.warm_queries(seed, reference)
    for query in queries:
        run_query(query)
    setup = time.perf_counter() - start
    setup *= clock.factor(setup)
    latencies, passes, problems, first = [], [], [], None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        latencies.append([])
        for query in queries:
            if tracer:
                tracer.request = query["id"]
            t0 = time.perf_counter()
            results.append(run_query(query))
            latencies[-1].append(time.perf_counter() - t0)
        wall = time.perf_counter() - pass_start
        factor = clock.factor(wall)
        passes.append(wall * factor)
        latencies[-1] = [t * factor for t in latencies[-1]]
        digests = [check.digest(check.warm_content(r)) for r in results]
        if first is None:
            first = digests
            for query, result in zip(queries, results):
                problem = check.check_warm(query, result, reference)
                if problem:
                    problems.append(f"{query['id']}: {problem}")
        elif digests != first:
            problems.append("a warm result changed between passes")
        if tracer or time.perf_counter() - start >= seconds:
            break
    return {"setup_s": setup, "passes": passes, "latencies": latencies,
            "problems": problems}


def main() -> None:
    seed, seconds = int(sys.argv[1]), float(sys.argv[2])
    if len(sys.argv) < 4:
        print(json.dumps(session(seed, seconds)))
        return
    tracer = Tracer()
    tracer.install()
    tracer.request = "warm-up"
    try:
        result = session(seed, seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(sys.argv[3])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
