"""Output checks: independent references first, pinned digests elsewhere.

A digest covers canonical math content only: variable names, and each
term as (exponent tuple, numerator, denominator), sorted.  Term order,
pretty printing, timing fields and the echoed config do not enter it.
Checks run outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import key, max_rank, pair


def digest(content) -> str:
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def terms_content(names, terms) -> dict:
    """Canonical form of (exponents, numerator, denominator) rows."""
    rows = sorted([list(map(int, e)), int(num), int(den)] for e, num, den in terms)
    return {"names": list(names), "terms": rows}


def class_content(payload: dict) -> dict:
    """Canonical content of a GradedClass payload."""
    names = [v[0] for v in payload["ring"]["variables"]]
    return terms_content(names, payload["terms"])


def graded_content(cls) -> dict:
    return terms_content(cls.ring.names, [
        (e, c.numerator, c.denominator) for e, c in cls.terms.items()])


def poly_content(poly) -> dict:
    return terms_content(poly.vars, [
        (e, c.numerator, c.denominator) for e, c in poly.terms.items()])


def poly_text_content(text: str, names) -> dict:
    from scrollflex.exactpoly import parse_poly

    return poly_content(parse_poly(text, tuple(names)))


def class_digest(result: dict) -> str:
    return digest({"codim": result["codim"], "in_range": result["in_range"],
                   "class": class_content(result["class"]),
                   "reduced": class_content(result["reduced"])})


def minors_digest(minors: dict, names) -> str:
    return digest({"size": minors["size"],
                   "nonzero": minors["nonzero_minors"],
                   "content": poly_text_content(minors["content"], names),
                   "minors": [poly_text_content(m, names)
                              for m in minors["minors"]]})


def formula_class(n: int, m: int, k: int, N: int):
    """Closed-form class from the transcription registry, where one exists."""
    from scrollflex import formulas
    from scrollflex.scroll import scroll_ring

    codim = N + 2 - max_rank(n, m, k)
    ring = scroll_ring(n, m)
    if k == 2 and codim == 1 and 2 <= m < n:
        return formulas.divisor_class(n, m, ring)
    if (n, m, k) == (3, 2, 2) and codim in (1, 2, 3):
        return formulas.threefold_surface_class(codim, ring)
    if (n, m, k) == (4, 3, 2) and codim in (2, 3, 4):
        return formulas.fourfold_threefold_class(codim, ring)
    return None


def has_class_reference(item: dict, ref: dict) -> bool:
    n, m, k, N = map(int, item["key"].split(","))
    return item["key"] in ref["class"] or formula_class(n, m, k, N) is not None


def output_digest(item: dict, stdout: bytes) -> str | None:
    """Digest of a CLI output's math content, or None when it has none.

    Two outputs of one request must agree on this digest; timing fields,
    notes and the echoed config may differ between them.
    """
    try:
        result = json.loads(stdout)["result"]
        kind = item["kind"]
        if kind == "class":
            return class_digest(result)
        if kind == "degree-data":
            return digest([class_content(result["symbolic"]),
                           str(Fraction(result["degree"]))])
        if kind == "degree-base":
            return digest(poly_text_content(result["degree_polynomial"],
                                            result["slots"]))
        if kind in ("jet-minors", "jet-rank"):
            minors = result.get("minors")
            return digest([result["rank"], result["per_trial"], minors and
                           minors_digest(minors, result["spec"]["variables"])])
        if kind == "verify":
            return digest([result["passed"], sorted(
                [r["id"], r["ok"]] for r in result["results"])])
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
        return None
    return None


def check_cold(item: dict, stdout: bytes, ref: dict) -> str | None:
    """Return None when a CLI output is right, else what is wrong."""
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return "output is not a structured result"
    kind = item["kind"]
    if kind == "class":
        got = class_digest(result)
        want = ref["class"].get(item["key"])
        n, m, k, N = map(int, item["key"].split(","))
        oracle = formula_class(n, m, k, N)
        if oracle is not None and class_content(result["class"]) != graded_content(oracle):
            return f"class {item['key']} differs from the closed form"
        if want is None and oracle is None:
            return f"no reference for class {item['key']}"
        if want is not None and got != want:
            return f"class {item['key']} digest {got}, pinned {want}"
        return None
    if kind == "degree-data":
        pinned = ref["degree_class"][item["key"]]
        if digest(class_content(result["symbolic"])) != pinned["digest"]:
            return f"degree class {item['key']} differs from the pinned digest"
        want = pair(pinned["terms"], pinned["names"], item["data"]["assignments"])
        if Fraction(result["degree"]) != want:
            return f"degree {result['degree']}, independent pairing gives {want}"
        return None
    if kind == "degree-base":
        got = digest(poly_text_content(result["degree_polynomial"], result["slots"]))
        if got != ref["base"][item["key"]]:
            return f"degree polynomial {item['key']} differs from the pinned digest"
        return None
    if kind in ("jet-minors", "jet-rank"):
        from scrollflex.jets import BUNDLED_PROBES

        probe = BUNDLED_PROBES[item["probe"]]
        if result["rank"] != probe.expected_rank:
            return f"{item['probe']} rank {result['rank']}, expected {probe.expected_rank}"
        if kind == "jet-rank":
            return None
        names = result["spec"]["variables"]
        minors = result["minors"]
        if minors_digest(minors, names) != ref["minors"][key(item["probe"], item["size"])]:
            return f"{item['probe']} minors differ from the pinned digest"
        return _minor_contents(item["probe"], minors, names)
    if kind == "verify":
        rows = result["results"]
        bad = [r["id"] for r in rows if not r["ok"]]
        if bad or not result["passed"]:
            return f"verify rows failed: {bad}"
        if sorted(r["id"] for r in rows) != ref["verify_ids"]:
            return f"verify ran {len(rows)} rows, want {len(ref['verify_ids'])}"
        return None
    return f"unknown request kind {kind}"


def _minor_contents(probe: str, minors: dict, names) -> str | None:
    """The minor facts that ``verify`` asserts: v^3, v and y | minor."""
    from scrollflex.exactpoly import parse_poly, Poly

    names = tuple(names)
    content = parse_poly(minors["content"], names)
    if probe == "two-summand-plane-scroll":
        if content != Poly.variable(names, "v") ** 3:
            return f"plane scroll content {content}, want v^3"
    elif probe == "cubic-surface-scroll":
        if content != Poly.variable(names, "v"):
            return f"cubic scroll content {content}, want v"
    elif probe == "bordiga":
        if dict(zip(names, content.monomial_content())).get("y", 0) < 1:
            return f"bordiga content {content} has no factor y"
    return None


def warm_content(result):
    """Canonical content of a warm query's result, for pass-to-pass checks."""
    if hasattr(result, "vars"):
        return poly_content(result)
    if hasattr(result, "symbolic"):
        return [result.value, graded_content(result.symbolic)]
    return graded_content(result)


def check_warm(query: dict, result, ref: dict) -> str | None:
    kind = query["kind"]
    if kind == "symbolic":
        if digest(poly_content(result)) != ref["base"][query["key"]]:
            return f"symbolic degree {query['key']} differs from the pinned digest"
        return None
    pinned = ref["degree_class"][query["key"]]
    cls = result.symbolic if kind == "numeric" else result
    if digest(graded_content(cls)) != pinned["digest"]:
        return f"degree class {query['key']} differs from the pinned digest"
    if kind == "numeric":
        from scrollflex.scroll import BASE_PRESETS

        numbers = BASE_PRESETS[query["preset"]].numerical(**query["values"]).assignments
        want = pair(pinned["terms"], pinned["names"], numbers)
        if result.value != want:
            return f"degree {result.value}, independent pairing gives {want}"
    return None
