"""Command-line front end.

Commands: ``rank``, ``class``, ``degree``, ``scan``, ``jet``, ``verify``.
Output is either a human-readable report (default) or a structured JSON
document (``--format structured``).  Exit status is 0 exactly when the
requested operation succeeded and, for ``verify``, every check passed.
Every command imports ``scroll`` with ``chern``, ``exactpoly`` and ``errors``;
``jet`` adds ``jets`` and ``linalg``, ``scan`` adds ``scans`` and
``formulas``, and ``verify`` imports all of these.  Records are plain
slotted classes, so start-up generates no code and imports no ``inspect``.

One table, ``COMMANDS``, lists every command's handler and arguments;
``parse_args`` reads argv against it and builds the help text and the usage
errors from it.  Parsing needs no argument-parsing library: importing and
setting one up cost about 5 ms, more than the engine spends on most
requests.  Usage errors exit with status 2 and ``-h`` with status 0.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from types import SimpleNamespace

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


def _emit(config: SimpleNamespace, payload: dict, pretty_lines: list[str]) -> None:
    if config.format == "structured":
        options = {name: value for name, value in vars(config).items()
                   if value is not None}
        print(json.dumps({"config": options, "result": payload},
                         indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)


def _cmd_rank(config: SimpleNamespace) -> int:
    breakdown = rank_breakdown(config.n, config.m, config.k)
    value = max_rank(config.n, config.m, config.k)
    lines = [f"maximal generic jet rank: {value}"]
    lines += [f"  order {h}: {count} rows" for h, count in breakdown]
    _emit(config, {"rank": value, "breakdown": breakdown}, lines)
    return 0


def _cmd_class(config: SimpleNamespace) -> int:
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


def _cmd_degree(config: SimpleNamespace) -> int:
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


def _cmd_scan(config: SimpleNamespace) -> int:
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


def _cmd_jet(config: SimpleNamespace) -> int:
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


def _cmd_verify(config: SimpleNamespace) -> int:
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


# The command table: each command's handler, help line, positionals and
# options.  An argument is (flag, dest, type, choices, required, help); a
# positional's flag is its dest.  Parsing, help, usage errors and dispatch
# all read this table.
_DIMS = (("--n", "n", int, None, True, "dimension of the scroll"),
         ("--m", "m", int, None, True, "dimension of the base"),
         ("--k", "k", int, None, True, "osculation order"))
_AMBIENT = ("--N", "N", int, None, True, "ambient projective dimension")
_FORMAT = ("--format", "format", str, ("pretty", "structured"), False,
           "human-readable report (the default) or a JSON document")
_HELP = ("--help", "help", None, None, False, "show this help message and exit")

COMMANDS = {
    "rank": (_cmd_rank, "maximal generic jet rank and its breakdown", (),
             (*_DIMS, _FORMAT)),
    "class": (_cmd_class, "degeneracy class, raw and reduced", (),
              (*_DIMS, _AMBIENT, _FORMAT)),
    "degree": (_cmd_degree, "degree of the degeneracy locus", (), (
        *_DIMS, _AMBIENT,
        ("--base", "base", str, tuple(sorted(BASE_PRESETS)), False,
         "bundled base preset (symbolic slots)"),
        ("--data", "data", str, None, False, "JSON file of intersection numbers"),
        _FORMAT)),
    "scan": (_cmd_scan, "integer-point scan of a base family",
             (("family", "family", str, SCAN_FAMILIES, True, "base family to scan"),), (
        ("--l", "ell", int, None, False, "codimension (P3/Q3)"),
        ("--e", "e", int, None, False, "Hirzebruch invariant (Fe)"),
        ("--q", "q", int, None, False, "base curve genus (ProductsBxP1)"),
        _FORMAT)),
    "jet": (_cmd_jet, "generic jet rank of a probe spec file",
            (("spec", "spec", str, None, True, "JSON probe specification"),), (
        ("--seed", "seed", int, None, False, "sampling seed, in place of the file's"),
        ("--trials", "trials", int, None, False,
         "number of sample points, in place of the file's"),
        ("--minors", "minors", int, None, False,
         "also report the common content of minors of this size"),
        _FORMAT)),
    "verify": (_cmd_verify, "run the full regression table", (), (
        ("--filter", "filter", str, None, False,
         "only run checks whose id contains this"),
        _FORMAT)),
}
_DESCRIPTION = ("Exact degeneracy classes, degrees, jet ranks and integer-point scans\n"
                "for projective-bundle scrolls.")


def _word(argument: tuple) -> str:
    """An argument as usage and help write it: its flag, then its metavar."""
    flag, dest, _, choices, _, _ = argument
    if choices:
        metavar = "{" + ",".join(choices) + "}"
    else:
        metavar = dest if flag == dest else dest.upper()
    return metavar if flag == dest else f"{flag} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: scrollflex [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [_word(a) for a in positionals]
    words += [_word(a) if a[4] else f"[{_word(a)}]" for a in options]
    return " ".join([f"usage: scrollflex {command} [-h]", *words])


def _help(command: str | None) -> str:
    """The usage line, a summary and one row per command or argument."""
    if command is None:
        summary, heading = _DESCRIPTION, "commands:"
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
        closing = ["", "scrollflex <command> -h lists the arguments of a command."]
    else:
        (_, summary, positionals, options), heading = COMMANDS[command], "arguments:"
        rows = [("-h, --help", _HELP[5])]
        rows += [(_word(a), a[5]) for a in positionals + options]
        closing = []
    lines = [_usage(command), "", summary, "", heading]
    for left, text in rows:
        lines += ([f"  {left:<20}  {text}"] if len(left) <= 20
                  else [f"  {left}", f"{'':24}{text}"])
    return "\n".join(lines + closing)


def _refuse(command: str | None, message: str):
    """Print the usage line and ``message`` to stderr and exit with status 2."""
    prog = "scrollflex" if command is None else f"scrollflex {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(arg: str, flags: dict, command: str):
    """What a word of argv names: None for a value, else (argument, flag,
    inline value), where argument is None for an unknown option.

    A word names an option by its exact flag, then as ``--flag=value``, then
    by a unique prefix of a long flag.  Failing those, ``-`` alone, a
    negative number or a word with a space in it is a value, and any other
    word that starts with ``-`` is an unknown option.
    """
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return flags[arg], arg, None
    head, eq, inline = arg.partition("=")
    value = inline if eq else None
    if eq and head in flags:
        return flags[head], head, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(head)]
        if len(matches) > 1:
            _refuse(command, f"ambiguous option: {arg} could match "
                             f"{', '.join(matches)}")
        if matches:
            return flags[matches[0]], matches[0], value
    if arg[1:2].isdecimal() or arg[1:2] == "." and arg[2:3].isdecimal() or " " in arg:
        return None
    return None, arg, None


def _store(config: dict, command: str, argument: tuple, value: str) -> None:
    flag, dest, kind, choices, _, _ = argument
    try:
        value = kind(value)
    except ValueError:
        _refuse(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
    if choices is not None and value not in choices:
        _refuse(command, f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    config[dest] = value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The config of one command line, read against ``COMMANDS``.

    It holds ``command`` and every argument of that command under its dest:
    ``None`` for an absent option, ``"pretty"`` for an absent ``--format``
    and the last value of a repeated option.  ``-h`` prints help and exits
    with status 0; a usage error prints the usage line and
    ``scrollflex <command>: error: ...`` to stderr and exits with status 2.
    """
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command, *args = argv
    if command in ("-h", "--h", "--he", "--hel", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if command not in COMMANDS:
        _refuse(None, f"argument command: invalid choice: {command!r} "
                      f"(choose from {', '.join(map(repr, COMMANDS))})")
    _, _, positionals, options = COMMANDS[command]
    flags = {"-h": _HELP, "--help": _HELP, **{a[0]: a for a in options}}
    config = {"command": command, **dict.fromkeys(a[1] for a in positionals + options),
              "format": "pretty"}
    # every word after a "--" is a value
    cut = args.index("--") if "--" in args else len(args)
    words = ([(arg, _option(arg, flags, command)) for arg in args[:cut]]
             + [(arg, None) for arg in args[cut + 1:]])
    pending, extras = list(positionals), []
    i = 0
    while i < len(words):
        arg, found = words[i]
        i += 1
        if found is None:
            if pending:
                _store(config, command, pending.pop(0), arg)
            else:
                extras.append(arg)
            continue
        argument, flag, value = found
        if argument is None:
            extras.append(arg)
        elif argument is _HELP:
            if value is not None:
                _refuse(command, f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help(command))
            raise SystemExit(0)
        else:
            if value is None:
                if i == len(words) or words[i][1] is not None:
                    _refuse(command, f"argument {flag}: expected one argument")
                value = words[i][0]
                i += 1
            _store(config, command, argument, value)
    missing = [a[0] for a in positionals + options if a[4] and config[a[1]] is None]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**config)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # library warnings print as plain lines, without a source location
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if None not in (getattr(args, "base", None), getattr(args, "data", None)):
                raise ScrollflexError("--base and --data conflict; give exactly one")
            return COMMANDS[args.command][0](args)
        except (ScrollflexError, OSError) as exc:
            error = exc
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
