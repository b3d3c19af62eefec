"""Jet matrices, generic ranks and local equations of inflectional loci.

A probe is a local polynomial parameterization of an embedded variety: a
list of coordinate functions in named chart variables.  The order-k jet
matrix at a point stacks all partial derivatives of order <= k (rows, in
graded-lex order of multi-indices) of every coordinate (columns).  Generic
rank is the largest rank over random rational points ``p/q``: each row is
evaluated already multiplied by ``prod_v q_v^d_v``, where ``d_v`` is the
row's largest exponent in ``v``, so integer charts give integer rows and the
rank, which no nonzero row scaling changes, is found without fractions.  A
fraction-free symbolic mode certifies small charts over the function field.
"""

from __future__ import annotations

import itertools
import random
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul
from typing import Sequence

from ._record import Record, set_field
from .errors import (InvalidInputError, ResourceLimitError, load_json,
                     require_fields, require_integer)
from .exactpoly import Poly, _NAME_RE, as_scalar, common_divisor, parse_poly
from .linalg import iter_minors, rank_poly, rank_rational

DEFAULT_TRIALS = 8
DEFAULT_HEIGHT = 100
# Largest jet matrix a probe may ask for, in rows (multi-indices).  8 trials
# at the limit of 13 monomial coordinates in one or two variables, or of the
# 32 of p1-fifth at order 11 (4368 rows), take 0.1-0.2 s (Python 3.11,
# 2-vCPU x86 host); the bundled probes need at most 21 rows.
MAX_JET_ROWS = 5000
# Largest jet rows times coordinate terms a trial may evaluate, which also
# bounds the terms the build differentiates.  At the limit 8 trials of two
# coordinates 1, (u + 2v + 1)^40 (861 rows), or of 13 such at the 20th power
# (231 rows), take about 1 s on the same host; the bundled probes need at
# most 672 (p1-fifth, 21 rows of 32 terms).
MAX_JET_TERMS = 10 ** 6


class JetProbeSpec(Record):
    """A chart to probe: variables, coordinate functions, order and sampling.

    ``variables`` is a list or tuple of names the polynomial parser reads
    (``[A-Za-z_][A-Za-z_0-9]*``) and ``coordinates`` one of polynomials or
    strings parsed over those names.  More sampled rows (trials times jet
    rows) than ``DEFAULT_TRIALS`` trials of a ``MAX_JET_ROWS``-row matrix
    are refused with ``ResourceLimitError``, and so, before any jet is built,
    are more evaluated terms (at least ``DEFAULT_TRIALS`` trials times jet
    rows times coordinate terms) than ``DEFAULT_TRIALS * MAX_JET_TERMS``.
    """

    __slots__ = ("variables", "coordinates", "order", "trials", "seed", "height")

    def __init__(self, variables: Sequence[str], coordinates: Sequence[Poly | str],
                 order: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                 height: int = DEFAULT_HEIGHT):
        if not (isinstance(variables, (list, tuple))
                and all(isinstance(v, str) for v in variables)):
            raise InvalidInputError("variables must be a list of names")
        for v in variables:
            if not _NAME_RE.fullmatch(v):
                raise InvalidInputError(f"variable name {v!r} is not a plain name")
        if not isinstance(coordinates, (list, tuple)):
            raise InvalidInputError("coordinates must be a list")
        require_integer(order, "jet order must be an integer >= 1", 1)
        require_integer(trials, "need at least one trial", 1)
        require_integer(seed, "seed must be an integer")
        require_integer(height, "sampling height must be an integer >= 1", 1)
        if not coordinates:
            raise InvalidInputError("need at least one coordinate function")
        rows = comb(len(variables) + order, order)
        if trials * rows > MAX_JET_ROWS * DEFAULT_TRIALS:
            raise ResourceLimitError(
                f"{trials} trials of {rows} rows are over the limit of "
                f"{MAX_JET_ROWS * DEFAULT_TRIALS} sampled jet rows")
        variables = tuple(variables)
        coords = []
        for c in coordinates:
            if isinstance(c, str):
                c = parse_poly(c, variables)
            elif not isinstance(c, Poly):
                raise InvalidInputError(
                    f"coordinate {c!r} is neither a polynomial nor a string")
            if c.vars != variables:
                raise InvalidInputError("coordinate over the wrong variables")
            if c.is_zero():
                raise InvalidInputError("coordinate functions must be nonzero")
            coords.append(c)
        terms = sum(len(c.terms) for c in coords)
        sampled = max(trials, DEFAULT_TRIALS)
        if sampled * rows * terms > MAX_JET_TERMS * DEFAULT_TRIALS:
            raise ResourceLimitError(
                f"{sampled} trials of {rows} jet rows over coordinates of {terms} "
                f"terms need an estimated {sampled * rows * terms} evaluated terms, "
                f"over the limit {MAX_JET_TERMS * DEFAULT_TRIALS}")
        set_field(self, "variables", variables)
        set_field(self, "coordinates", tuple(coords))
        set_field(self, "order", order)
        set_field(self, "trials", trials)
        set_field(self, "seed", seed)
        set_field(self, "height", height)
        if not any(c.is_constant() for c in coords):
            # rank is still chart-invariant wherever some coordinate is a
            # unit, which covers blown-up parameterizations
            warnings.warn(
                "no constant coordinate; the chart in "
                f"({', '.join(variables)}) is not normalized",
                stacklevel=_caller_stacklevel())

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def with_order(self, order: int) -> "JetProbeSpec":
        return JetProbeSpec(self.variables, self.coordinates, order,
                            self.trials, self.seed, self.height)

    def to_payload(self) -> dict:
        return {
            "variables": list(self.variables),
            "coordinates": [str(c) for c in self.coordinates],
            "order": self.order,
            "trials": self.trials,
            "seed": self.seed,
            "height": self.height,
        }

    @classmethod
    def from_payload(cls, payload) -> "JetProbeSpec":
        require_fields(payload, ("variables", "coordinates", "order"), "probe spec")
        return cls(
            payload["variables"],
            payload["coordinates"],
            payload["order"],
            payload.get("trials", DEFAULT_TRIALS),
            payload.get("seed", 0),
            payload.get("height", DEFAULT_HEIGHT),
        )

    @classmethod
    def load(cls, path) -> "JetProbeSpec":
        return cls.from_payload(load_json(path))


def _caller_stacklevel() -> int:
    """``warnings`` stacklevel of the nearest caller outside this module.

    Counted from the function that calls this helper; frames of this module
    are skipped, so a warning names the code that built the spec even
    through ``load``.
    """
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def multi_indices(dimension: int, order: int) -> list[tuple[int, ...]]:
    """All derivative multi-indices of total order <= order, graded-lex.

    Refuses with ``ResourceLimitError`` past ``MAX_JET_ROWS`` indices.
    """
    rows = comb(dimension + order, order)
    if rows > MAX_JET_ROWS:
        raise ResourceLimitError(
            f"order-{order} jets in {dimension} variables need {rows} rows, "
            f"over the limit {MAX_JET_ROWS}"
        )
    return [exps for total in range(order + 1)
            for exps in _order_block(dimension, total)]


def _order_block(dimension: int, total: int):
    """Multi-indices of one total order, in descending lex order."""
    if dimension <= 1:  # one variable takes the whole order, none only order 0
        if dimension or total == 0:
            yield (total,) * dimension
        return
    for head in range(total, -1, -1):
        for tail in _order_block(dimension - 1, total - head):
            yield (head, *tail)


JetMatrix = tuple[tuple[Poly, ...], ...]


def symbolic_jet_matrix(spec: JetProbeSpec) -> JetMatrix:
    """Rows: derivatives of order <= k; columns: coordinate functions.

    Partial derivatives commute, so row alpha is its parent row alpha - e_v,
    v the last variable alpha differentiates, with each entry differentiated
    once in v; a zero entry stays zero.
    """
    indices = multi_indices(spec.dimension, spec.order)
    rows = {indices[0]: spec.coordinates}
    for alpha in indices[1:]:
        v = max(i for i, e in enumerate(alpha) if e)
        name = spec.variables[v]
        parent = rows[alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:]]
        rows[alpha] = tuple(g.diff(name) if g.terms else g for g in parent)
    return tuple(rows.values())


def _shared_jet_matrix(spec: JetProbeSpec) -> JetMatrix:
    """The symbolic jet matrix, built once per (variables, coordinates, order).

    Sampling settings are not part of the key, so a rank probe and the
    minors of the same chart share one build.  The matrix is immutable;
    callers that eliminate in place copy it first.
    """
    return _chart_jet_matrix(spec.variables, spec.coordinates, spec.order)


@lru_cache(maxsize=64)
def _chart_jet_matrix(variables: tuple[str, ...], coordinates: tuple[Poly, ...],
                      order: int) -> JetMatrix:
    # the fields come from a checked spec, so the chart skips the checks
    chart = object.__new__(JetProbeSpec)
    Record.__init__(chart, variables, coordinates, order, DEFAULT_TRIALS, 0,
                    DEFAULT_HEIGHT)
    return symbolic_jet_matrix(chart)


def jet_matrix(spec: JetProbeSpec, point: Sequence[Fraction]) -> list[list[Fraction]]:
    """The exact jet matrix at a chart point of ints and Fractions."""
    if len(point) != spec.dimension:
        raise InvalidInputError("point dimension does not match the chart")
    values = {name: as_scalar(p) for name, p in zip(spec.variables, point)}
    return [[entry.eval_at(values) for entry in row]
            for row in _shared_jet_matrix(spec)]


def _scaled_layout(matrix: JetMatrix):
    """The matrix's terms, in layers, against its distinct scaled monomials.

    An entry ``sum c x^e`` in a row whose largest exponents are ``d``,
    evaluated at ``x_v = p_v/q_v`` and multiplied by ``prod q_v^d_v``, is
    ``sum c prod p_v^e_v q_v^(d_v - e_v)``.  Returns two parts:

    * each row as term layers.  Layer t is a pair of tuples as wide as the
      row: the coefficient of each entry's term t and that term's monomial
      index, with coefficient 0 and monomial 0 where the entry has t terms
      or fewer.  A zero row is one such layer of zeros (monomial 0 exists,
      as the first row holds the nonzero coordinates);
    * the factors ``p_v^e_v q_v^(d_v - e_v)`` as (v, e_v, d_v - e_v), the
      number of distinct monomials, and for each variable v the factor index
      of v in each monomial, so a monomial is the product of one factor per
      variable.
    """
    factors: dict[tuple, int] = {}
    monomials: dict[tuple, int] = {}

    def monomial(exps, top):
        key = tuple(factors.setdefault((v, e, d - e), len(factors))
                    for v, (e, d) in enumerate(zip(exps, top)))
        return monomials.setdefault(key, len(monomials))

    rows = []
    for row in matrix:
        top = tuple(map(max, zip(*(e for entry in row for e in entry.terms))))
        depth = max(1, *(len(entry.terms) for entry in row))
        layers = [([0] * len(row), [0] * len(row)) for _ in range(depth)]
        for j, entry in enumerate(row):
            for (coeffs, slots), (e, c) in zip(layers, entry.terms.items()):
                coeffs[j] = c
                slots[j] = monomial(e, top)
        rows.append(tuple((tuple(coeffs), tuple(slots)) for coeffs, slots in layers))
    return tuple(rows), (tuple(factors), len(monomials), tuple(zip(*monomials)))


@lru_cache(maxsize=64)
def _chart_layout(variables: tuple[str, ...], coordinates: tuple[Poly, ...],
                  order: int):
    """``_scaled_layout`` of the chart's shared jet matrix, under its key."""
    return _scaled_layout(_chart_jet_matrix(variables, coordinates, order))


def _scaled_rows(layout, monomials, point: Sequence[Fraction]) -> list[list]:
    """The jet matrix at ``point`` with each row scaled as in ``_scaled_layout``.

    A row is the sum of its layers, each the products of its coefficients
    with the values of its monomials, so every entry adds its terms in order.
    """
    factors, count, columns = monomials
    nums = [p.numerator for p in point]
    dens = [p.denominator for p in point]
    factor = [nums[v] ** e * dens[v] ** f for v, e, f in factors].__getitem__
    values = [1] * count
    for column in columns:
        values = map(mul, values, map(factor, column))
    value = list(values).__getitem__
    scaled = []
    for (coeffs, slots), *rest in layout:
        row = map(mul, coeffs, map(value, slots))
        for coeffs, slots in rest:
            row = map(add, row, map(mul, coeffs, map(value, slots)))
        scaled.append(list(row))
    return scaled


def _random_point(spec: JetProbeSpec, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-spec.height, spec.height),
                 rng.randint(1, spec.height))
        for _ in spec.variables
    )


class RankScan(Record):
    """Result of a sampled generic-rank computation: the largest rank, the
    rank at each trial and the number of jet rows."""

    __slots__ = ("spec", "rank", "per_trial", "rows", "note")
    _defaults = {"note": "generic rank with confidence: sampled"}

    def to_payload(self) -> dict:
        return {
            "spec": self.spec.to_payload(),
            "rank": self.rank,
            "per_trial": list(self.per_trial),
            "rows": self.rows,
            "note": self.note,
        }


def probe_rank(spec: JetProbeSpec) -> RankScan:
    """Maximum jet rank over sampled rational points (lower bound for s_k)."""
    rng = random.Random(spec.seed)
    layout, monomials = _chart_layout(spec.variables, spec.coordinates, spec.order)
    ranks = [rank_rational(_scaled_rows(layout, monomials, _random_point(spec, rng)))
             for _ in range(spec.trials)]
    note = "generic rank with confidence: sampled"
    if max(ranks) == 0:
        note = "resample notice: every sample point gave the zero matrix"
    return RankScan(spec, max(ranks), tuple(ranks),
                    comb(spec.dimension + spec.order, spec.order), note)


def generic_jet_rank(spec: JetProbeSpec) -> int:
    return probe_rank(spec).rank


def symbolic_jet_rank(spec: JetProbeSpec) -> int:
    """Rank over the rational function field, fraction-free; exact but slower."""
    return rank_poly(_shared_jet_matrix(spec))


class MinorReport(Record):
    """All r x r minors of the symbolic jet matrix with their common content."""

    __slots__ = ("spec", "size", "minors", "content", "nonzero_minors")

    @property
    def reduced_locus(self) -> str:
        """The support of the content, one equation per variable appearing."""
        support = [
            name for name, e in zip(self.content.vars,
                                    self.content.monomial_content()) if e
        ]
        extra = self.content.shift_down(self.content.monomial_content())
        pieces = [f"{name} = 0" for name in support]
        if not extra.is_constant():
            pieces.append(f"{extra} = 0")
        return ", ".join(pieces) if pieces else "(no common factor)"

    def to_payload(self) -> dict:
        return {
            "spec": self.spec.to_payload(),
            "size": self.size,
            "content": str(self.content),
            "nonzero_minors": self.nonzero_minors,
            "minors": [str(m) for m in self.minors],
        }


def inflection_equations(spec: JetProbeSpec, size: int) -> MinorReport:
    """Minors of order ``size`` with the common polynomial content factored out."""
    require_integer(size, f"minor size must be an integer, got {size!r}")
    matrix = _shared_jet_matrix(spec)
    nrows, ncols = len(matrix), len(matrix[0])
    if size > min(nrows, ncols):
        raise InvalidInputError(
            f"minor size {size} exceeds the {nrows}x{ncols} jet matrix"
        )
    minors = [value for _, value in iter_minors(matrix, size)]
    live = [m for m in minors if not m.is_zero()]
    if not live:
        content = Poly.zero(spec.coordinates[0].vars)
    else:
        content = common_divisor(live)
    return MinorReport(spec, size, minors, content, len(live))


class ProductRankCheck(Record):
    """The product rank identity at order k: ``base_rank_low`` and
    ``base_rank_high`` are the base's ranks at orders k - 1 and k,
    ``predicted`` the rank they give for base x P^s, and ``direct`` the
    rank probed on the product chart."""

    __slots__ = ("base_rank_low", "base_rank_high", "predicted", "direct")

    @property
    def holds(self) -> bool:
        return self.predicted == self.direct


def _check_fiber_dim(fiber_dim: int) -> None:
    require_integer(fiber_dim, "fiber dimension must be a non-negative integer", 0)


def segre_product_spec(base: JetProbeSpec, fiber_dim: int) -> JetProbeSpec:
    """Chart of base x P^fiber_dim under the Segre embedding."""
    _check_fiber_dim(fiber_dim)
    names = base.variables + tuple(f"t{j}" for j in range(1, fiber_dim + 1))
    lifted = [c.subs({}, vars=names) for c in base.coordinates]
    coords = list(lifted)
    for j in range(1, fiber_dim + 1):
        t = Poly.variable(names, f"t{j}")
        coords.extend(c * t for c in lifted)
    return JetProbeSpec(names, tuple(coords), base.order,
                        base.trials, base.seed, base.height)


def product_rank_identity(base: JetProbeSpec, fiber_dim: int) -> ProductRankCheck:
    """Jet rank of a product scroll from the ranks of its base.

    The k-jet rank of base x P^s equals s * (rank at order k-1) plus the
    rank at order k, and the direct probe of the product chart must agree.
    """
    _check_fiber_dim(fiber_dim)
    if base.order < 2:
        raise InvalidInputError("the identity needs order >= 2 on the base")
    high = generic_jet_rank(base)
    low = generic_jet_rank(base.with_order(base.order - 1))
    predicted = fiber_dim * low + high
    direct = generic_jet_rank(segre_product_spec(base, fiber_dim))
    return ProductRankCheck(low, high, predicted, direct)


# -- bundled charts -----------------------------------------------------------


def _monomials_up_to(names, degree, in_names=None) -> list[Poly]:
    """1 and all monomials of degree <= degree in the chosen variables."""
    chosen = in_names if in_names is not None else names
    out = [Poly.const(names, 1)]
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(chosen, total):
            m = Poly.const(names, 1)
            for n in combo:
                m = m * Poly.variable(names, n)
            out.append(m)
    return out


def segre_chart(m: int, s: int, order: int = 2) -> JetProbeSpec:
    """P^m x P^s in its Segre embedding, affine chart."""
    names = tuple(f"u{i}" for i in range(1, m + 1)) + tuple(
        f"t{j}" for j in range(1, s + 1))
    us = [Poly.variable(names, f"u{i}") for i in range(1, m + 1)]
    ts = [Poly.variable(names, f"t{j}") for j in range(1, s + 1)]
    coords = [Poly.const(names, 1)] + us + ts + [u * t for u in us for t in ts]
    return JetProbeSpec(names, tuple(coords), order)


def p1_power_chart(n: int, order: int = 2) -> JetProbeSpec:
    """(P^1)^n in the full Segre embedding: all squarefree monomials."""
    names = tuple(f"u{i}" for i in range(1, n)) + ("t1",)
    coords = []
    for picks in itertools.product((0, 1), repeat=n):
        m = Poly.const(names, 1)
        for name, take in zip(names, picks):
            if take:
                m = m * Poly.variable(names, name)
        coords.append(m)
    return JetProbeSpec(names, tuple(coords), order)


def flag_threefold_chart(order: int = 2) -> JetProbeSpec:
    """Point-line incidence threefold in the Segre embedding of P^2 x P^2.

    Point (1 : u1 : u2), line (-u1 - t u2 : 1 : t) through it; the nine
    biproducts span the ambient hyperplane section.
    """
    names = ("u1", "u2", "t")
    u1, u2, t = Poly.variables(names)
    one = Poly.const(names, 1)
    x = [one, u1, u2]
    y = [-u1 - t * u2, one, t]
    coords = [xi * yj for xi in x for yj in y]
    return JetProbeSpec(names, tuple(coords), order)


def f1_cubic_chart(order: int = 2) -> JetProbeSpec:
    """The rational cubic surface scroll in P^4."""
    names = ("u1", "u2")
    u1, u2 = Poly.variables(names)
    one = Poly.const(names, 1)
    return JetProbeSpec(names, (one, u1, u2, u1 * u2, u1 ** 2 * u2), order)


def cubic_scroll_times_p1_chart(order: int = 2) -> JetProbeSpec:
    """The rational cubic surface scroll times P^1, Segre-embedded in P^9."""
    return segre_product_spec(f1_cubic_chart(order), 1)


def veronese_chart(order: int = 2) -> JetProbeSpec:
    """The Veronese surface in P^5."""
    names = ("u1", "u2")
    return JetProbeSpec(names, tuple(_monomials_up_to(names, 2)), order)


def rational_normal_curve_chart(degree: int, order: int = 2) -> JetProbeSpec:
    names = ("u1",)
    u = Poly.variable(names, "u1")
    coords = [u ** i for i in range(degree + 1)]
    return JetProbeSpec(names, tuple(coords), order)


def two_summand_scroll_chart(m: int, order: int = 2) -> JetProbeSpec:
    """P(O(1) + O(2)) over P^m near the negative section.

    Coordinates: the linear monomials, then v times every monomial of
    degree <= 2.  For m = 1 this is the cubic surface scroll in P^4.
    """
    names = tuple(f"u{i}" for i in range(1, m + 1)) + ("v",)
    unames = names[:-1]
    v = Poly.variable(names, "v")
    linear = [Poly.const(names, 1)] + [Poly.variable(names, u) for u in unames]
    quad = _monomials_up_to(names, 2, unames)
    coords = linear + [v * q for q in quad]
    return JetProbeSpec(names, tuple(coords), order)


def bordiga_chart(order: int = 2) -> JetProbeSpec:
    """Chart of the degree-10 threefold scroll near a fiber of the
    exceptional divisor of its blow-up model.

    Ten cubic combinations in (x, y, w), obtained from the quadrics through
    a twisted cubic after substituting z = y w.
    """
    names = ("x", "y", "w")
    coords = [
        "x^2 - y",
        "x^3 - x*y",
        "x^2*y - y^2",
        "x*y - y*w",
        "x*y^2 - y^2*w",
        "x*y^2*w - y^2*w^2",
        "x*y*w - y^2",
        "x^2*y*w - x*y^2",
        "x*y^2*w - y^3",
        "x*y^2*w^2 - y^3*w",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # chart has no constant coordinate
        return JetProbeSpec(names, tuple(coords), order)


class BundledProbe(Record):
    """A named chart builder with its known generic rank; ``scroll_dims`` is
    (n, m) when the chart is a scroll, else ``None``."""

    __slots__ = ("name", "build", "expected_rank", "description", "scroll_dims")
    _defaults = {"scroll_dims": None}


BUNDLED_PROBES: dict[str, BundledProbe] = {}


def _bundle(name, build, expected_rank, description, scroll_dims=None):
    BUNDLED_PROBES[name] = BundledProbe(name, build, expected_rank, description,
                                        scroll_dims)


_bundle("segre-1-1", lambda: segre_chart(1, 1), 4, "P1 x P1 in P3", (2, 1))
_bundle("segre-2-1", lambda: segre_chart(2, 1), 6, "P2 x P1 in P5", (3, 2))
_bundle("segre-2-2", lambda: segre_chart(2, 2), 9, "P2 x P2 in P8", (4, 2))
_bundle("segre-3-1", lambda: segre_chart(3, 1), 8, "P3 x P1 in P7", (4, 3))
_bundle("p1-cube", lambda: p1_power_chart(3), 7, "(P1)^3 in P7", (3, 2))
_bundle("p1-fourth", lambda: p1_power_chart(4), 11, "(P1)^4 in P15", (4, 3))
_bundle("p1-fifth", lambda: p1_power_chart(5), 16, "(P1)^5 in P31", (5, 4))
_bundle("flag-threefold", flag_threefold_chart, 8,
        "point-line incidence threefold in P7", (3, 2))
_bundle("cubic-scroll-times-p1", cubic_scroll_times_p1_chart, 8,
        "rational cubic scroll times P1 in P9", (3, 2))
_bundle("veronese", veronese_chart, 6, "Veronese surface in P5")
_bundle("two-summand-plane-scroll", lambda: two_summand_scroll_chart(2), 9,
        "P(O(1)+O(2)) over the plane in P8", (3, 2))
_bundle("cubic-surface-scroll", lambda: two_summand_scroll_chart(1), 5,
        "cubic surface scroll in P4", (2, 1))
_bundle("bordiga", bordiga_chart, 9, "degree-10 threefold scroll chart in P9",
        (3, 2))


@lru_cache(maxsize=None)
def bundled_rank_scan(name: str) -> RankScan:
    """Sampled rank of a bundled probe, computed once per process."""
    return probe_rank(BUNDLED_PROBES[name].build())


@lru_cache(maxsize=None)
def bundled_minor_report(name: str, size: int) -> MinorReport:
    """Minor report of a bundled probe, computed once per process."""
    return inflection_equations(BUNDLED_PROBES[name].build(), size)
