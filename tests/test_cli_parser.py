"""``cli.parse_args`` against the argparse oracle, on seeded command lines.

Valid command lines use every form the command line accepts: ``--opt value``
and ``--opt=value``, exact flags and unique prefixes of long flags, values
that look like negative numbers, positionals before, between or after the
options (or after ``--``) and repeated options.  Both parsers must give the
same config.  Invalid command lines must make both exit with status 2 and a
usage line, and ``-h``/``--help`` must exit with status 0 and list every
argument of the table.
"""

import random

import pytest

from scrollflex import cli

from .argparse_oracle import build_parser

CASES = 300
_ORACLE = build_parser()
_STRINGS = {"data": ("data.json", "é-1", ""), "spec": ("probe.json", "é-1", ""),
            "filter": ("class", "", "é-1")}


def _outcome(parse, argv, capsys):
    """(config, exit status, stdout, stderr) of one parse."""
    try:
        config, code = vars(parse(argv)), None
    except SystemExit as exit:
        config, code = None, exit.code
    out = capsys.readouterr()
    return config, code, out.out, out.err


def _spelling(rng, command, flag):
    """The flag itself or a prefix of it that names it and no other flag."""
    flags = ["--help", *(a[0] for a in cli.COMMANDS[command][3])]
    prefixes = [flag[:j] for j in range(3, len(flag) + 1)
                if flag[:j] == flag or flag[:j] not in flags
                and [f for f in flags if f.startswith(flag[:j])] == [flag]]
    return rng.choice(prefixes)


def _value(rng, argument):
    _, dest, kind, choices, _, _ = argument
    if choices:
        return rng.choice(choices)
    if kind is int:
        return str(rng.randint(-60, 120))
    return rng.choice(_STRINGS[dest])


def _words(rng, command, argument, value):
    flag = _spelling(rng, command, argument[0])
    return [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]


def _valid_argv(rng):
    command = rng.choice(sorted(cli.COMMANDS))
    _, _, positionals, options = cli.COMMANDS[command]
    groups = []
    for argument in options:
        if argument[4] or rng.random() < 0.5:
            for _ in range(1 + (rng.random() < 0.2)):  # the last one wins
                groups.append(_words(rng, command, argument, _value(rng, argument)))
    rng.shuffle(groups)
    tail = []
    for argument in positionals:
        value = _value(rng, argument)
        if rng.random() < 0.15:
            tail = ["--", value]
        else:
            groups.insert(rng.randint(0, len(groups)), [value])
    return [command, *(word for group in groups for word in group), *tail]


@pytest.mark.parametrize("case", range(CASES))
def test_valid_command_lines_give_the_oracle_config(case, capsys):
    argv = _valid_argv(random.Random(20261020 + case))
    got = _outcome(cli.parse_args, argv, capsys)
    expected = _outcome(_ORACLE.parse_args, argv, capsys)
    assert expected[1] is None, (argv, expected)
    assert got == expected, argv


def _invalid_argv(rng, kind):
    argv = _valid_argv(rng)
    command = argv[0]
    _, _, positionals, options = cli.COMMANDS[command]
    at = rng.randint(1, len(argv))
    if kind == "no-command":
        return []
    if kind == "unknown-command":
        return [rng.choice(["frobnicate", "Class", "ranks", "-5", "--n"]), *argv[1:]]
    if kind == "unknown-option":
        return argv[:at] + [rng.choice(["--bogus", "-x", "--formats"])] + argv[at:]
    if kind == "missing-option":
        if command == "rank" or command == "class" and rng.random() < 0.5:
            return [command, "--n", "3", "--m", "2", "--format", "pretty"]
        if command in ("class", "degree"):
            return [command, "--n", "3", "--m", "2", "--k", "2"]
        if positionals:
            return [command]
        return [rng.choice(["rank", "class", "degree"])]
    if kind == "missing-value":
        flag = rng.choice(options)[0]
        follow = [] if rng.random() < 0.5 else [rng.choice(["--format", "-h"]), "pretty"]
        return argv + [flag, *follow]
    if kind == "non-integer":
        ints = [a[0] for a in options if a[2] is int]
        if not ints:
            return ["class", "--n", "3", "--m", "2", "--k", "2", "--N", "8", "--n", "x"]
        bad = rng.choice(["x", "1.5", "", "3e2", "--", "0x10"])
        flag = rng.choice(ints)
        return argv + ([f"{flag}={bad}"] if bad == "--" else [flag, bad])
    if kind == "bad-choice":
        choice = rng.choice([("--format", "xml"), ("--format", ""), ("--base", "nope"),
                             ("family", "P4"), ("family", "p3")])
        if choice[0] == "--base":
            return ["degree", "--n", "3", "--m", "2", "--k", "2", "--N", "8", *choice]
        if choice[0] == "family":
            return ["scan", choice[1], "--l", "2"]
        return argv + list(choice)
    if kind == "extra-positional":
        return argv[:at] + [rng.choice(["extra", "P3", "7"])] + argv[at:]
    raise AssertionError(kind)


_INVALID = ("no-command", "unknown-command", "unknown-option", "missing-option",
            "missing-value", "non-integer", "bad-choice", "extra-positional")


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("kind", _INVALID)
def test_invalid_command_lines_exit_with_status_2_as_the_oracle_does(kind, case,
                                                                     capsys):
    argv = _invalid_argv(random.Random(case * 31 + _INVALID.index(kind)), kind)
    for parse in (cli.parse_args, _ORACLE.parse_args):
        config, code, out, err = _outcome(parse, argv, capsys)
        assert (config, code, out) == (None, 2, ""), (parse, argv, config)
        assert err.startswith("usage: scrollflex"), (parse, argv, err)
        assert "error: " in err and "Traceback" not in err, (parse, argv, err)


def test_usage_errors_name_the_command_and_the_fault(capsys):
    cases = {
        ("class", "--n", "x", "--m", "2", "--k", "2", "--N", "8"):
            "scrollflex class: error: argument --n: invalid int value: 'x'",
        ("class", "--n", "3", "--m", "2", "--k", "2"):
            "scrollflex class: error: the following arguments are required: --N",
        ("degree", "--n", "3", "--m", "2", "--k", "2", "--N", "8", "--base", "nope"):
            "scrollflex degree: error: argument --base: invalid choice: 'nope' "
            "(choose from 'abelian-surface', 'abelian-threefold', 'bxp1', 'fe', "
            "'k3', 'p2', 'p3', 'q3')",
        ("jet",): "scrollflex jet: error: the following arguments are required: spec",
        ("verify", "--f", "x"):
            "scrollflex verify: error: ambiguous option: --f could match "
            "--filter, --format",
        ("jet", "p.json", "--seed"):
            "scrollflex jet: error: argument --seed: expected one argument",
        ("rank", "--n", "3", "--m", "2", "--k", "2", "extra", "--zz"):
            "scrollflex rank: error: unrecognized arguments: extra --zz",
        ("frobnicate",): "scrollflex: error: argument command: invalid choice: "
                         "'frobnicate' (choose from 'rank', 'class', 'degree', "
                         "'scan', 'jet', 'verify')",
        (): "scrollflex: error: the following arguments are required: command",
    }
    for argv, message in cases.items():
        config, code, out, err = _outcome(cli.parse_args, list(argv), capsys)
        usage = cli._usage(argv[0] if argv and argv[0] in cli.COMMANDS else None)
        assert (code, out, err) == (2, "", f"{usage}\n{message}\n"), argv


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_exits_0_and_lists_every_argument(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    for parse in (_ORACLE.parse_args, cli.parse_args):
        config, code, out, err = _outcome(parse, argv, capsys)
        assert (config, code, err) == (None, 0, ""), parse
        assert out.startswith("usage: scrollflex")
    if command is None:
        names = list(cli.COMMANDS)
    else:
        _, _, positionals, options = cli.COMMANDS[command]
        names = [a[0] for a in options] + [a[5] for a in (*positionals, *options)]
    assert all(name in out for name in names), out


def test_help_comes_before_any_later_fault(capsys):
    # words are read left to right: help after a valid prefix of the line
    # exits 0, a fault before it exits 2
    assert _outcome(cli.parse_args, ["class", "--n", "3", "-h", "--n", "x"],
                    capsys)[1] == 0
    assert _outcome(cli.parse_args, ["class", "--n", "x", "-h"], capsys)[1] == 2
