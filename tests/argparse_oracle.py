"""The ``argparse`` parser the command line used before ``cli.COMMANDS``.

``tests/test_cli_parser.py`` holds ``cli.parse_args`` to it: the same config
for every valid command line, exit status 2 with a usage line for every
invalid one.
"""

import argparse

from scrollflex.scroll import BASE_PRESETS, SCAN_FAMILIES


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
