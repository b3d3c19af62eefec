"""Regenerate ``reference.json``, the digests pinned at the parent commit.

Run from the repository root with ``python3 perfbench/pin.py``.  Only rerun
it when an output is meant to change; the benchmark compares every output
that has no independent reference against these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from scrollflex import jets, verify  # noqa: E402
from scrollflex.scroll import (BASE_PRESETS, ScrollSetup, chern_wu_reduce,  # noqa: E402
                               degree_class, expected_codim, inflection_class,
                               scroll_ring, symbolic_degree)

import check  # noqa: E402
import workloads as wl  # noqa: E402

# Ladder rungs that finish within a minute at the parent commit.
PINNED_RUNGS = 4


def class_payload(n, m, k, N) -> dict:
    setup = ScrollSetup(n, m, k, N)
    codim = expected_codim(setup)
    cls = inflection_class(setup, scroll_ring(n, m))
    return {"codim": codim.codim, "in_range": codim.in_range,
            "class": cls.to_payload(),
            "reduced": chern_wu_reduce(cls, setup.fiber_rank).to_payload()}


def main() -> None:
    ref = {"class": {}, "degree_class": {}, "base": {}, "minors": {}}
    setups = sorted(set(wl.COLD_SETUPS) | set(wl.WARM_CLASS_SETUPS)
                    | {s for group in wl.WARM_SETUPS.values() for s in group})
    for n, m, k in setups:
        for N in wl.ambient_range(n, m, k):
            ref["class"][wl.key(n, m, k, N)] = check.class_digest(
                class_payload(n, m, k, N))
            cls = degree_class(ScrollSetup(n, m, k, N))
            content = check.graded_content(cls)
            ref["degree_class"][wl.key(n, m, k, N)] = {
                "digest": check.digest(content), **content}
            for preset in wl.PRESETS_BY_DIM.get(m, ()):
                p = BASE_PRESETS[preset]
                poly = symbolic_degree(ScrollSetup(n, m, k, N),
                                       p.assignments(), p.slots)
                ref["base"][wl.key(preset, n, m, k, N)] = check.digest(
                    check.poly_content(poly))
        print("pinned", (n, m, k), flush=True)
    for item in wl.ladder_requests()[:PINNED_RUNGS]:
        n, m, k, N = map(int, item["key"].split(","))
        ref["class"][item["key"]] = check.class_digest(class_payload(n, m, k, N))
        print("pinned rung", item["key"], flush=True)
    for name, size in wl.MINOR_REQUESTS:
        spec = jets.BUNDLED_PROBES[name].build()
        report = jets.inflection_equations(spec, size).to_payload()
        ref["minors"][wl.key(name, size)] = check.minors_digest(
            report, spec.variables)
        print("pinned minors", name, flush=True)
    ref["verify_ids"] = sorted(ident for ident, _ in verify.build_checks())
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
