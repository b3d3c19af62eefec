"""Command-line front end.

Commands: ``rank``, ``class``, ``degree``, ``scan``, ``jet``, ``verify``.
Output is either a human-readable report (default) or a structured JSON
document (``--format structured``).  Exit status is 0 exactly when the
requested operation succeeded and, for ``verify``, every check passed.
Every command imports ``scroll`` with ``chern``, ``exactpoly`` and ``errors``;
``jet`` adds ``jets`` and ``linalg``, ``scan`` adds ``scans`` and
``formulas``, and ``verify`` imports all of these.  Records are plain
slotted classes, so start-up generates no code and imports no ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import InvalidInputError, ScrollflexError, load_json
from .scroll import (BASE_PRESETS, SCAN_FAMILIES, NumericalBaseData,
                     ScrollSetup, chern_wu_reduce, degree_class,
                     degree_of_inflection, expected_codim, inflection_class,
                     max_rank, rank_breakdown, scroll_ring, symbolic_degree)

DATA_DIR_ENV = "SCROLLFLEX_DATA_DIR"


def _resolve_path(name: str) -> str:
    if os.path.exists(name):
        return name
    root = os.environ.get(DATA_DIR_ENV)
    if root and not os.path.isabs(name):
        candidate = os.path.join(root, name)
        if os.path.exists(candidate):
            return candidate
    return name


def _emit(config: argparse.Namespace, payload: dict, pretty_lines: list[str]) -> None:
    if config.format == "structured":
        options = {name: value for name, value in vars(config).items()
                   if value is not None}
        print(json.dumps({"config": options, "result": payload},
                         indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)


def _cmd_rank(config: argparse.Namespace) -> int:
    breakdown = rank_breakdown(config.n, config.m, config.k)
    value = max_rank(config.n, config.m, config.k)
    lines = [f"maximal generic jet rank: {value}"]
    lines += [f"  order {h}: {count} rows" for h, count in breakdown]
    _emit(config, {"rank": value, "breakdown": breakdown}, lines)
    return 0


def _cmd_class(config: argparse.Namespace) -> int:
    setup = ScrollSetup(config.n, config.m, config.k, config.N)
    codim = expected_codim(setup)
    ring = scroll_ring(setup.n, setup.m)
    cls = inflection_class(setup, ring)
    reduced = chern_wu_reduce(cls, setup.fiber_rank)
    # each class is printed or serialized, whichever format was asked for
    if config.format == "structured":
        _emit(config, {"codim": codim.codim, "in_range": codim.in_range,
                       "range": [codim.range_lo, codim.range_hi],
                       "class": cls.to_payload(), "reduced": reduced.to_payload()}, [])
        return 0
    lines = []
    if not codim.in_range:
        lines.append(
            f"warning: N={setup.N} is outside [{codim.range_lo}, {codim.range_hi}]; "
            "the class formula is not asserted for this setup (formal result follows)"
        )
    lines += [
        f"codimension: {codim.codim} ({'in range' if codim.in_range else 'out of range'})",
        f"class:   {cls}",
        f"reduced: {reduced}",
    ]
    _emit(config, {}, lines)
    return 0


def _cmd_degree(config: argparse.Namespace) -> int:
    setup = ScrollSetup(config.n, config.m, config.k, config.N)
    if config.data is not None:
        data = NumericalBaseData.from_payload(load_json(_resolve_path(config.data)))
        result = degree_of_inflection(setup, data)
        lines = [f"degree: {result.value}", f"symbolic: {result.symbolic}"]
        payload = {
            "degree": result.value,
            "symbolic": result.symbolic.to_payload(),
            "in_range": result.asserted,
        }
        _emit(config, payload, _formal(setup, lines))
        return 0
    if config.base is not None:
        preset = BASE_PRESETS[config.base]
        if preset.dimension != setup.m:
            raise InvalidInputError(f"preset {config.base} of dimension "
                                    f"{preset.dimension} does not match m={setup.m}")
        poly = symbolic_degree(setup, preset.assignments(), preset.slots)
        lines = [
            f"degree over {config.base}: {poly}",
            f"legend: {preset.legend}",
        ]
        payload = {"degree_polynomial": str(poly), "legend": preset.legend,
                   "slots": list(preset.slots), "in_range": setup.in_range}
        _emit(config, payload, _formal(setup, lines))
        return 0
    cls = degree_class(setup)
    lines = [f"degree in base intersection numbers: {cls}"]
    _emit(config, {"symbolic": cls.to_payload(), "in_range": setup.in_range},
          _formal(setup, lines))
    return 0


def _formal(setup: ScrollSetup, lines: list[str]) -> list[str]:
    """A degree report's lines, after a warning when N is out of range."""
    if setup.in_range:
        return lines
    return ["warning: setup out of range; value is formal"] + lines


def _cmd_scan(config: argparse.Namespace) -> int:
    from . import scans

    params = {name: getattr(config, name) for name in ("ell", "e", "q")
              if getattr(config, name) is not None}
    report = scans.run_family(config.family, **params)
    lines = [f"family {report.family} {report.params}: {report.verdict}",
             f"candidates examined: {report.candidates}"]
    for name, bound in report.bounds.items():
        lines.append(f"  bound {name} in [{bound.lo}, {bound.hi}]: {bound.reason}")
    if report.survivors:
        lines.append("survivors:")
        for s in report.survivors:
            mark = f"  {s.point}"
            if s.annotation:
                mark += f"  -- {s.annotation}"
            lines.append(mark)
    if report.excluded:
        lines.append("excluded integer points:")
        for point, why in report.excluded:
            lines.append(f"  {point}  -- {why}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(config, report.to_payload(), lines)
    return 0


def _cmd_jet(config: argparse.Namespace) -> int:
    from . import jets

    path = _resolve_path(config.spec)
    spec = jets.JetProbeSpec.load(path)
    if config.seed is not None or config.trials is not None:
        spec = jets.JetProbeSpec(
            spec.variables, spec.coordinates, spec.order,
            config.trials if config.trials is not None else spec.trials,
            config.seed if config.seed is not None else spec.seed,
            spec.height,
        )
    scan_result = jets.probe_rank(spec)
    payload = scan_result.to_payload()
    lines = [
        f"generic jet rank (order {spec.order}): {scan_result.rank}",
        f"rows: {scan_result.rows}, trials: {spec.trials}, seed: {spec.seed}",
        scan_result.note,
    ]
    if config.minors is not None:
        report = jets.inflection_equations(spec, config.minors)
        if config.format == "structured":  # pretty output never shows the minors
            payload["minors"] = report.to_payload()
        lines.append(f"common content of {config.minors}x{config.minors} minors: "
                     f"{report.content}")
        lines.append(f"reduced locus: {report.reduced_locus}")
    _emit(config, payload, lines)
    return 0


def _cmd_verify(config: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_checks(filter=config.filter)
    if not results:
        raise ScrollflexError(f"no check id contains {config.filter!r}")
    ok = all(r.ok for r in results)
    lines = [r.row() for r in results]
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    payload = {
        "results": [
            {"id": r.identifier, "ok": r.ok, "detail": r.detail,
             "elapsed_ms": round(r.elapsed_ms, 3)} for r in results
        ],
        "passed": ok,
    }
    _emit(config, payload, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollflex",
        description="Exact degeneracy classes, degrees, jet ranks and "
                    "integer-point scans for projective-bundle scrolls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dims(p, ambient=True):
        p.add_argument("--n", type=int, required=True, help="dimension of the scroll")
        p.add_argument("--m", type=int, required=True, help="dimension of the base")
        p.add_argument("--k", type=int, required=True, help="osculation order")
        if ambient:
            p.add_argument("--N", type=int, required=True,
                           help="ambient projective dimension")

    def fmt(p):
        p.add_argument("--format", choices=("pretty", "structured"),
                       default="pretty")

    p = sub.add_parser("rank", help="maximal generic jet rank and its breakdown")
    dims(p, ambient=False)
    fmt(p)

    p = sub.add_parser("class", help="degeneracy class, raw and reduced")
    dims(p)
    fmt(p)

    p = sub.add_parser("degree", help="degree of the degeneracy locus")
    dims(p)
    p.add_argument("--base", choices=sorted(BASE_PRESETS),
                   help="bundled base preset (symbolic slots)")
    p.add_argument("--data", help="JSON file of intersection numbers")
    fmt(p)

    p = sub.add_parser("scan", help="integer-point scan of a base family")
    p.add_argument("family", choices=SCAN_FAMILIES)
    p.add_argument("--l", dest="ell", type=int, help="codimension (P3/Q3)")
    p.add_argument("--e", type=int, help="Hirzebruch invariant (Fe)")
    p.add_argument("--q", type=int, help="base curve genus (ProductsBxP1)")
    fmt(p)

    p = sub.add_parser("jet", help="generic jet rank of a probe spec file")
    p.add_argument("spec", help="JSON probe specification")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--minors", type=int,
                   help="also report the common content of minors of this size")
    fmt(p)

    p = sub.add_parser("verify", help="run the full regression table")
    p.add_argument("--filter", help="only run checks whose id contains this")
    fmt(p)
    return parser


_DISPATCH = {
    "rank": _cmd_rank,
    "class": _cmd_class,
    "degree": _cmd_degree,
    "scan": _cmd_scan,
    "jet": _cmd_jet,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # library warnings print as plain lines, without a source location
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if None not in (getattr(args, "base", None), getattr(args, "data", None)):
                raise ScrollflexError("--base and --data conflict; give exactly one")
            return _DISPATCH[args.command](args)
        except (ScrollflexError, OSError) as exc:
            error = exc
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
