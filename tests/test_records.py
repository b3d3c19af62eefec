"""Value semantics of the package's records and seeded payload round trips.

Every record compares field by field, prints as ``Name(field=value, ...)``
in constructor order, and is read-only and hashed by its fields, so a
record holding a list or a dict is unhashable.  A record that only stores
its fields binds its arguments to ``__slots__`` as a signature would.
"""

import json
import random
from fractions import Fraction

import pytest

from scrollflex.chern import GradedVariable
from scrollflex.cli import _emit, parse_args
from scrollflex.exactpoly import Poly
from scrollflex.jets import (BundledProbe, JetProbeSpec, MinorReport,
                             ProductRankCheck, RankScan)
from scrollflex.scans import (Bound, Constraint, ExceptionalCondition,
                              ScanProblem, ScanReport, Survivor)
from scrollflex.scroll import (BasePreset, CodimResult, DegreeResult,
                               NumericalBaseData, ScrollSetup, base_ring,
                               canonical_monomial)
from scrollflex.verify import CheckResult

CASES = 300


def _build(*args):
    return args


def _holds(point):
    return True


_U = ("u",)
_SPEC = JetProbeSpec(_U, ("1", "u"), 2)
_CONTENT = Poly.variable(_U, "u")


# (factory of variant i, field names in constructor order, hashable);
# factory(0) twice gives two equal records, factory(1) differs from it in
# one field
RECORDS = [
    (lambda i: GradedVariable("L", 1 + i), ("name", "weight", "sector"),
     True),
    (lambda i: ScrollSetup(3, 2, 2, 8 + i), ("n", "m", "k", "N"), True),
    (lambda i: CodimResult(1 + i, True, 8, 10),
     ("codim", "in_range", "range_lo", "range_hi"), True),
    (lambda i: NumericalBaseData(2, {"c1^2": 9, "c2": 3 + i}),
     ("dimension", "assignments"), False),
    (lambda i: BasePreset("p", 2, ("v",), f"legend {i}", _build),
     ("name", "dimension", "slots", "legend", "_table"), True),
    (lambda i: JetProbeSpec(_U, ("1", "u"), 2, seed=i),
     ("variables", "coordinates", "order", "trials", "seed", "height"),
     True),
    (lambda i: BundledProbe("probe", _build, 4 + i, "a chart"),
     ("name", "build", "expected_rank", "description", "scroll_dims"),
     True),
    (lambda i: Constraint("positive", f"reason {i}", _holds),
     ("name", "reason", "holds"), True),
    (lambda i: Bound(2, 12 + i, "window"), ("lo", "hi", "reason"), True),
    (lambda i: DegreeResult(6 + i, base_ring(2, 2).zero(),
                            ScrollSetup(3, 2, 2, 10), True),
     ("value", "symbolic", "setup", "asserted"), True),
    (lambda i: RankScan(_SPEC, 2 - i, (2, 2 - i), 6),
     ("spec", "rank", "per_trial", "rows", "note"), True),
    (lambda i: MinorReport(_SPEC, 2, [_CONTENT], _CONTENT, 1 - i),
     ("spec", "size", "minors", "content", "nonzero_minors"), False),
    (lambda i: ProductRankCheck(2, 3, 7, 7 + i),
     ("base_rank_low", "base_rank_high", "predicted", "direct"), True),
    (lambda i: ScanProblem("P2_N9", {}, _CONTENT, ("u",), "u",
                           {"u": Bound(2, 9, "window")}, (), _holds,
                           notes=("note",) * i),
     ("family", "params", "equation", "sweep", "solve", "bounds",
      "constraints", "annotate", "notes", "exceptional"), False),
    (lambda i: Survivor({"v": 4, "d": 10 + i}), ("point", "annotation"),
     False),
    (lambda i: ScanReport("P2_N9", {}, 10 + i, [], [], "empty", {}, ()),
     ("family", "params", "candidates", "survivors", "excluded", "verdict",
      "bounds", "notes"), False),
    (lambda i: ExceptionalCondition("Fe", "9d - 32 = 20(b - e)", i == 0),
     ("family", "relation", "verified"), True),
    (lambda i: CheckResult("class-x", i == 0, "= 1", 0.5),
     ("identifier", "ok", "detail", "elapsed_ms"), True),
]
_IDS = [type(factory(0)).__name__ for factory, *_ in RECORDS]


@pytest.mark.parametrize("factory, fields, hashable", RECORDS, ids=_IDS)
def test_records_compare_field_by_field(factory, fields, hashable):
    a, twin, other = factory(0), factory(0), factory(1)
    assert a is not twin
    assert a == twin and not a != twin
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, name) for name in fields)


@pytest.mark.parametrize("factory, fields, hashable", RECORDS, ids=_IDS)
def test_records_print_their_fields_in_order(factory, fields, hashable):
    a = factory(0)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"


@pytest.mark.parametrize("factory, fields, hashable", RECORDS, ids=_IDS)
def test_records_are_read_only_or_unhashable(factory, fields, hashable):
    a, twin, other = factory(0), factory(0), factory(1)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == twin
    if hashable:
        assert hash(a) == hash(twin)
        assert len({a, twin, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


# the records that only store their fields, with the values their optional
# fields take when left out
STORAGE_ONLY = [
    (CodimResult, {}),
    (DegreeResult, {}),
    (BasePreset, {}),
    (RankScan, {"note": "generic rank with confidence: sampled"}),
    (MinorReport, {}),
    (ProductRankCheck, {}),
    (BundledProbe, {"scroll_dims": None}),
    (Constraint, {}),
    (Bound, {}),
    (ScanProblem, {"notes": (), "exceptional": None}),
    (Survivor, {"annotation": None}),
    (ScanReport, {}),
    (ExceptionalCondition, {}),
    (CheckResult, {"elapsed_ms": 0.0}),
]


@pytest.mark.parametrize("cls, defaults", STORAGE_ONLY,
                         ids=[cls.__name__ for cls, _ in STORAGE_ONLY])
def test_storage_only_records_bind_arguments_to_their_slots(cls, defaults):
    assert "__init__" not in vars(cls)
    fields = cls.__slots__
    values = [object() for _ in fields]
    keywords = dict(zip(fields, values))
    for record in (cls(*values), cls(**keywords),
                   cls(*values[:1], **dict(zip(fields[1:], values[1:])))):
        assert all(getattr(record, name) is value
                   for name, value in keywords.items())
    required = len(fields) - len(defaults)
    assert set(fields[required:]) == set(defaults)
    filled = cls(*values[:required])
    assert all(getattr(filled, name) == value for name, value in defaults.items())
    with pytest.raises(TypeError, match=f"missing argument {fields[required - 1]!r}"):
        cls(*values[:required - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values[:required], bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {fields[0]!r}"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} arguments but "
                                        f"{len(fields) + 1} were given"):
        cls(*values, None)


def test_record_reprs_spell_out_each_field():
    assert repr(ScrollSetup(3, 2, 2, 8)) == "ScrollSetup(n=3, m=2, k=2, N=8)"
    assert repr(Bound(1, 2, "r")) == "Bound(lo=1, hi=2, reason='r')"
    assert (repr(GradedVariable("C1", 1, "base"))
            == "GradedVariable(name='C1', weight=1, sector='base')")
    assert (repr(NumericalBaseData(1, {"v1": 3}))
            == "NumericalBaseData(dimension=1, assignments={'v1': 3})")


# -- seeded payload round trips ------------------------------------------------


# each command's positional arguments and options, as argv builders
_DIMS = ("n", "m", "k")
_COMMANDS = {
    "rank": ((), _DIMS),
    "class": ((), _DIMS + ("N",)),
    "degree": ((), _DIMS + ("N", "base", "data")),
    "scan": (("family",), ("ell", "e", "q")),
    "jet": (("spec",), ("seed", "trials", "minors")),
    "verify": ((), ("filter",)),
}
_REQUIRED = set(_DIMS) | {"N"}
_STRINGS = {"base": ("p2", "k3"), "data": ("data.json", "é-1", ""),
            "family": ("Fe", "P3"), "spec": ("probe.json", "é-1"),
            "filter": ("class", "", "é-1")}


def test_run_config_payload_round_trip(capsys):
    # structured output's config is exactly the options given
    rng = random.Random(20261018)
    for case in range(CASES):
        command = rng.choice(sorted(_COMMANDS))
        positional, options = _COMMANDS[command]
        fields = {"command": command}
        argv = [command]
        for name in positional:
            fields[name] = rng.choice(_STRINGS[name])
            argv.append(fields[name])
        for name in options:
            if name in _REQUIRED or rng.random() < 0.4:
                value = (rng.choice(_STRINGS[name]) if name in _STRINGS
                         else rng.randint(-3, 120))
                fields[name] = value
                flag = "--l" if name == "ell" else f"--{name}"
                argv += [flag, str(value)]
        fields["format"] = "structured"
        _emit(parse_args(argv + ["--format", "structured"]), {}, [])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"config": fields, "result": {}}, f"case {case}"


def _random_poly(rng, names):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in names)
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
        terms[exps] = coeff
    poly = Poly(names, terms)
    return poly if not poly.is_zero() else Poly.variable(names, names[0])


def test_jet_probe_payload_round_trip():
    rng = random.Random(20261019)
    for case in range(CASES):
        names = tuple(rng.sample(("u1", "u2", "t", "x", "y", "w"),
                                 rng.randint(1, 3)))
        coords = [Poly.const(names, rng.randint(1, 5))]
        coords += [_random_poly(rng, names) for _ in range(rng.randint(1, 4))]
        rng.shuffle(coords)
        spec = JetProbeSpec(names, coords, rng.randint(1, 4),
                            rng.randint(1, 64), rng.randrange(10 ** 6),
                            rng.randint(1, 1000))
        payload = json.loads(json.dumps(spec.to_payload()))
        again = JetProbeSpec.from_payload(payload)
        assert again == spec, f"case {case}"
        assert again.to_payload() == payload, f"case {case}"


def _weight_monomials(m, r):
    """Weight-m monomials in c1..cm, v1..v_min(r, m), as factor lists."""
    names = [(f"c{i}", i) for i in range(1, m + 1)]
    names += [(f"v{i}", i) for i in range(1, min(r, m) + 1)]
    out = []

    def walk(start, left, picked):
        if left == 0:
            out.append(picked)
        for j in range(start, len(names)):
            if names[j][1] <= left:
                walk(j, left - names[j][1], picked + [names[j][0]])

    walk(0, m, [])
    return out


def test_base_data_payload_round_trip():
    rng = random.Random(20261020)
    for case in range(CASES):
        m, r = rng.randint(1, 4), rng.randint(1, 4)
        monomials = _weight_monomials(m, r)
        assignments, want = {}, {}
        for factors in rng.sample(monomials, rng.randint(1, len(monomials))):
            # a non-canonical spelling: shuffled factors, powers written out
            factors = list(factors)
            rng.shuffle(factors)
            key = "*".join(factors)
            value = rng.randint(-50, 50)
            assignments[key] = value
            want[canonical_monomial(key)] = value
        divisors = {}
        if rng.random() < 0.5:
            divisors["H"] = {"H*v1": rng.randint(1, 9)}
        data = NumericalBaseData(m, assignments)
        payload = json.loads(json.dumps(data.to_payload()))
        assert payload == {"dimension": m, "assignments": want}, f"case {case}"
        # a file that still carries pairing data for divisors loads the same
        again = NumericalBaseData.from_payload({**payload, "divisors": divisors})
        assert again == data, f"case {case}"
        assert again.to_payload() == payload, f"case {case}"
