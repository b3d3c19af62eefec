"""Workload definitions and seeded input generation.

Every input a run uses is derived from ``--seed`` here: the codimension of
each setup, the numbers in ``--data`` files, the preset drawn for
``degree --base``, the sampling seed of the jet probe files and the order
of the warm query mix.  The same seed gives byte-identical files and lists.
"""

from __future__ import annotations

import json
import random
from math import comb, lcm
from pathlib import Path

WORKLOADS = ("class-cold", "degree-warm", "jet-minors", "verify-table")

# (n, m, k) of the cold pool: surfaces, threefolds and fourfolds, k = 2..4.
COLD_SETUPS = [(2, 1, 2), (2, 1, 3), (2, 1, 4),
               (3, 2, 2), (3, 2, 3), (3, 2, 4),
               (4, 2, 2), (4, 2, 3), (4, 2, 4),
               (4, 3, 2), (4, 3, 3)]
# (n, m, k) of the warm mix per base dimension; k = 4 over threefolds is
# left out because its cold table alone takes about 5.5 s of set-up.
WARM_SETUPS = {2: [(3, 2, 2), (3, 2, 3), (3, 2, 4)],
               3: [(4, 3, 2), (4, 3, 3)]}
WARM_CLASS_SETUPS = [(5, 4, 2)]
# Frontier ladder of class setups at codimension one, cheapest first.
# (5, 4, 2), at 0.53 s, is left out so that a budget under a second can
# keep a factor of two from every rung.
LADDER = [(4, 3, 2), (6, 5, 2), (7, 6, 2), (5, 4, 3), (5, 3, 4),
          (6, 5, 3), (6, 4, 4), (7, 6, 3), (8, 7, 2)]
# Seconds each rung may take, interpreter start included.  At the parent
# commit the first rung takes 0.23 s and the second 2.4 s, so no rung
# finishes within a factor of two of this budget, and a run spends about a
# second on the ladder.
RUNG_BUDGET_S = 0.8
# (probe, minor size) requests of the jet workload.
MINOR_REQUESTS = [("bordiga", 9), ("flag-threefold", 8), ("p1-cube", 7),
                  ("two-summand-plane-scroll", 9), ("cubic-surface-scroll", 5)]
RANK_TRIALS = 64
PRESETS_BY_DIM = {2: ["abelian-surface", "bxp1", "fe", "k3", "p2"],
                  3: ["abelian-threefold", "p3", "q3"]}


def max_rank(n: int, m: int, k: int) -> int:
    return (n - m) * comb(m + k - 1, k - 1) + comb(m + k, k)


def ambient_range(n: int, m: int, k: int) -> range:
    """Ambient dimensions N for which the class formula is asserted."""
    rk = max_rank(n, m, k)
    return range(rk - 1, rk + n - 1)


def key(*parts) -> str:
    return ",".join(str(p) for p in parts)


def base_monomials(m: int, r: int) -> list[str]:
    """Canonical weight-m monomials in c_1..c_m and v_1..v_min(r, m)."""
    names = [(f"c{i}", i) for i in range(1, m + 1)]
    names += [(f"v{i}", i) for i in range(1, min(r, m) + 1)]
    out = []

    def walk(start, left, picked):
        if left == 0:
            out.append(picked)
            return
        for j in range(start, len(names)):
            if names[j][1] <= left:
                walk(j, left - names[j][1], picked + [names[j][0]])

    walk(0, m, [])
    keys = []
    for picked in out:
        parts = []
        for name in dict.fromkeys(picked):
            e = picked.count(name)
            parts.append(name if e == 1 else f"{name}^{e}")
        keys.append("*".join(parts))
    return sorted(keys)


def pair(terms, names, values) -> "Fraction":
    """Pair a pinned degree class (exponent rows) against monomial values."""
    from fractions import Fraction

    total = Fraction(0)
    for exps, num, den in terms:
        parts = []
        for name, e in zip(names, exps):
            if e:
                parts.append(name if e == 1 else f"{name}^{e}")
        total += Fraction(num, den) * values["*".join(parts)]
    return total


def data_payload(rng: random.Random, ref: dict, m: int, r: int) -> dict:
    """Seeded intersection numbers on which the pinned degree is integral."""
    scale = lcm(*(den for _, _, den in ref["terms"])) if ref["terms"] else 1
    monos = base_monomials(m, r)
    values = {mono: rng.randint(1, 40) * scale for mono in monos}
    return {"dimension": m, "assignments": values}


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def cold_pool(seed: int, ref: dict, workdir: Path) -> list[dict]:
    """class and degree requests, each meant for a fresh CLI process."""
    rng = random.Random(f"class-cold:{seed}")
    pool = []
    for n, m, k in COLD_SETUPS:
        dims = ["--n", str(n), "--m", str(m), "--k", str(k)]
        N = rng.choice(ambient_range(n, m, k))
        pool.append({"id": f"class-{n}{m}{k}", "kind": "class",
                     "key": key(n, m, k, N),
                     "argv": ["class", *dims, "--N", str(N)]})
        N = rng.choice(ambient_range(n, m, k))
        path = workdir / f"data-{n}{m}{k}.json"
        payload = data_payload(rng, ref["degree_class"][key(n, m, k, N)],
                               m, n - m + 1)
        _write(path, payload)
        pool.append({"id": f"degree-data-{n}{m}{k}", "kind": "degree-data",
                     "key": key(n, m, k, N), "data": payload,
                     "argv": ["degree", *dims, "--N", str(N),
                              "--data", str(path)]})
        if m in PRESETS_BY_DIM:
            preset = rng.choice(PRESETS_BY_DIM[m])
            N = rng.choice(ambient_range(n, m, k))
            pool.append({"id": f"degree-base-{n}{m}{k}", "kind": "degree-base",
                         "key": key(preset, n, m, k, N),
                         "argv": ["degree", *dims, "--N", str(N),
                                  "--base", preset]})
    for item in pool:
        item["argv"] += ["--format", "structured"]
    return pool


def ladder_requests() -> list[dict]:
    out = []
    for n, m, k in LADDER:
        N = ambient_range(n, m, k)[0]
        out.append({"id": f"rung-{n}{m}{k}", "kind": "class",
                    "key": key(n, m, k, N),
                    "argv": ["class", "--n", str(n), "--m", str(m), "--k", str(k),
                             "--N", str(N), "--format", "structured"]})
    return out


def jet_pool(seed: int, workdir: Path) -> list[dict]:
    """jet requests on probe files written from the bundled charts.

    The short rank requests are spread between the long minor requests, so
    that their latencies sample the whole pass rather than its last seconds.
    """
    from scrollflex.jets import BUNDLED_PROBES

    for name in BUNDLED_PROBES:
        payload = BUNDLED_PROBES[name].build().to_payload()
        payload["seed"] = seed
        _write(workdir / f"probe-{name}.json", payload)
    ranks = [{"id": f"rank-{name}", "kind": "jet-rank", "probe": name,
              "argv": ["jet", str(workdir / f"probe-{name}.json"),
                       "--trials", str(RANK_TRIALS)]}
             for name in BUNDLED_PROBES]
    pool = []
    for i, (name, size) in enumerate(MINOR_REQUESTS):
        pool += ranks[i::len(MINOR_REQUESTS)]
        pool.append({"id": f"minors-{name}", "kind": "jet-minors",
                     "probe": name, "size": size,
                     "argv": ["jet", str(workdir / f"probe-{name}.json"),
                              "--minors", str(size)]})
    for item in pool:
        item["argv"] += ["--format", "structured"]
    return pool


def verify_pool() -> list[dict]:
    """The whole regression table; it takes no seeded input."""
    return [{"id": "verify", "kind": "verify",
             "argv": ["verify", "--format", "structured"]}]


def warm_queries(seed: int, ref: dict) -> list[dict]:
    """The in-process query mix of one degree-warm pass, in seeded order.

    Every in-range N of every setup is queried, so the work of a pass does
    not depend on the seed; the seed draws the numeric base data and the
    order.  The m = 4 class queries come twice so that they make up more
    than a twentieth of the mix and the 95th percentile falls among them.
    """
    rng = random.Random(f"degree-warm:{seed}")
    queries = []
    for m, setups in WARM_SETUPS.items():
        numeric = "p2" if m == 2 else "p3"
        for n, _, k in setups:
            for N in ambient_range(n, m, k):
                for preset in PRESETS_BY_DIM[m]:
                    queries.append({"kind": "symbolic", "preset": preset,
                                    "setup": [n, m, k, N],
                                    "key": key(preset, n, m, k, N)})
                values = _integral_values(
                    rng, ref["degree_class"][key(n, m, k, N)], numeric)
                queries.append({"kind": "numeric", "preset": numeric,
                                "values": values, "setup": [n, m, k, N],
                                "key": key(n, m, k, N)})
    for n, m, k in WARM_CLASS_SETUPS:
        for N in ambient_range(n, m, k):
            queries += [{"kind": "degree_class", "setup": [n, m, k, N],
                         "key": key(n, m, k, N)} for _ in range(2)]
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = f"q{i:02d}-{q['kind']}"
    return queries


def _integral_values(rng: random.Random, ref: dict, preset: str) -> dict:
    """Slot values of a numeric preset on which the degree is an integer."""
    from scrollflex.scroll import BASE_PRESETS

    slots = BASE_PRESETS[preset].slots
    while True:
        values = {s: rng.randint(1, 12) for s in slots}
        numbers = BASE_PRESETS[preset].numerical(**values).assignments
        if pair(ref["terms"], ref["names"], numbers).denominator == 1:
            return values
