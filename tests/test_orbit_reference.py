"""Orbit-form classes, functionals and the sparse solve against frozen
reference versions.

Accumulator, the earlier dense class builder, is kept as it was; its
classes enter the library through the dense `boundary=` input adapter.
The reference_* builders expand every class into all canonical
delta_{i:S} entries, reference_curve_a/b/c (the earlier test-curve
builders, kept as they were) sum every term through
Accumulator.add_boundary, reference_forget_pullback and
reference_pullback_attach (the earlier pullbacks, kept as they were) walk
the dense view through the same Accumulator, and reference_rref
eliminates dense rows; the library stores one coefficient per label
orbit.  reference_solve_qg is the earlier solver, kept as it was: c_psi
in column 0, a sparse reduced row echelon form checked against
reference_rref, and a pass that pins a pivot value only when its row
touches no free column.  frozen_qg_class and frozen_pairings are qg_class
and the audit's pairings as they were before they worked in integers
(Fraction(2) ** e per coefficient, a dict row per curve).  The library's
orbit tables, orbit functionals, table-to-table pullbacks and forward
elimination with back-substitution must give the same classes,
functionals, pairings, pullbacks and solver output.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, repeat
from math import comb, lcm
from operator import lt, mul
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from qstrata import (
    BoundaryIndex,
    BudgetExceeded,
    CurveFunctional,
    DimensionMismatch,
    DivisorClass,
    DomainError,
    InvalidIndex,
    QdInput,
    SingularSystem,
    canonical_boundary_indices,
    canonicalize_index,
    curve_functional,
    forget_pullback,
    logan_class,
    pullback_attach,
    qd_class,
    qg_class,
    solve_qg_coefficients,
    valid_specs,
)
from qstrata import classes
from qstrata.classes import QgSolution
from qstrata.picard import (
    _MAX_DENSE_ENTRIES,
    OrbitTable,
    Rational,
    _check_gn,
    _class_is_valid,
    _frac,
    _json_int,
    _labels,
    boundary_term,
    format_rational,
    orbit_key,
    orbit_size,
    parse_rational,
    self_mirror,
    weight_table,
)
from qstrata.testcurves import TestCurveSpec as CurveSpec
from qstrata.testcurves import (
    FAMILIES,
    _curve_terms,
    a_dot_qg_formula,
    oracle,
    validate_spec,
)


def _keeps_side(g: int, i: int, S) -> bool:
    """Is (i, S) the canonical side of delta_{i:S}: the smaller genus part,
    on a tie the side carrying label 1?  (The earlier picard helper, kept as
    it was.)"""
    return i < g - i or (2 * i == g and 1 in S)


class Accumulator:
    """Builder that accumulates coefficient contributions term by term.

    Boundary contributions are routed through boundary_term, so repeated
    names for the same geometric class pile up on one canonical key, a
    delta_{0:{j}}-shaped term lands on psi_j with flipped sign, and a
    delta_{0:{}}-shaped term is dropped.
    """

    def __init__(self, g: int, n: int):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.lam = Fraction(0)
        self.psi = [Fraction(0)] * n
        self.delta0 = Fraction(0)
        self.boundary: dict[BoundaryIndex, Fraction] = {}

    def add_lambda(self, c: Rational) -> None:
        self.lam += _frac(c)

    def add_delta0(self, c: Rational) -> None:
        self.delta0 += _frac(c)

    def add_psi(self, j: int, c: Rational) -> None:
        if not 1 <= j <= self.n:
            raise InvalidIndex("psi index %s outside 1..%d" % (j, self.n))
        self.psi[j - 1] += _frac(c)

    def add_boundary(self, i: int, S: Iterable[int], c: Rational) -> None:
        self.add_term(*boundary_term(self.g, self.n, i, S), c)

    def add_term(self, kind: str, payload, c: Rational) -> None:
        """Add c times the symbol boundary_term classified as (kind, payload)."""
        if kind == "delta":
            c = _frac(c)
            old = self.boundary.get(payload)
            self.boundary[payload] = c if old is None else old + c
        elif kind == "psi":
            self.add_psi(payload, -_frac(c))
        # "zero": nothing to record

    def divisor_class(self) -> DivisorClass:
        return DivisorClass(self.g, self.n, self.lam, self.psi, self.delta0, self.boundary)


def reference_pullback_attach(d: DivisorClass, h: int, attach_label: int = 1) -> DivisorClass:
    """Pull back along gluing a fixed genus-h curve at marked point j.

    The map replaces marked point j of a genus-(g) curve by a node to a
    fixed two-pointed genus-h curve, landing in genus g+h.  On classes:
    lambda and delta_0 are preserved, psi_j dies, delta_{h:{j}} becomes
    -psi_j, delta_{i:S} with j in S drops for i < h and shifts to
    delta_{i-h:S} otherwise.
    """
    if h < 1:
        raise DimensionMismatch("attached genus must be >= 1")
    target_g = d.g - h
    if target_g < 2:
        raise DimensionMismatch(
            "pullback target genus %d is below 2" % (target_g,)
        )
    j = attach_label
    if not 1 <= j <= d.n:
        raise InvalidIndex("attach label %s outside 1..%d" % (j, d.n))
    acc = Accumulator(target_g, d.n)
    acc.add_lambda(d.lam)
    acc.add_delta0(d.delta0)
    for m in range(1, d.n + 1):
        if m != j:
            acc.add_psi(m, d.psi[m - 1])
    labels = _labels(d.n)
    for idx, c in d.boundary.items():
        if j in idx.points:
            side_i, side_S = idx.i, idx.points
        else:
            side_i = d.g - idx.i
            side_S = labels.difference(idx.points)
        if side_i < h:
            continue
        acc.add_boundary(side_i - h, side_S, c)
    return acc.divisor_class()


def reference_pullbacks_attach(d: DivisorClass, h: int) -> list[DivisorClass]:
    """reference_pullback_attach(d, h, j) for j = 1..n, from one walk of the
    dense view: the term an entry maps to depends only on the side that
    holds j, so each side is classified once and added to the pullback at
    every label it holds."""
    if h < 1:
        raise DimensionMismatch("attached genus must be >= 1")
    target_g = d.g - h
    if target_g < 2:
        raise DimensionMismatch(
            "pullback target genus %d is below 2" % (target_g,)
        )
    accs = [Accumulator(target_g, d.n) for _ in range(d.n)]
    for j, acc in enumerate(accs, start=1):
        acc.add_lambda(d.lam)
        acc.add_delta0(d.delta0)
        for m in range(1, d.n + 1):
            if m != j:
                acc.add_psi(m, d.psi[m - 1])
    labels = _labels(d.n)
    for idx, c in d.boundary.items():
        for side_i, side_S in ((idx.i, idx.points), (d.g - idx.i, labels.difference(idx.points))):
            if side_i >= h:
                term = boundary_term(target_g, d.n, side_i - h, side_S)
                for j in side_S:
                    accs[j - 1].add_term(*term, c)
    return [acc.divisor_class() for acc in accs]


def reference_forget_pullback(d: DivisorClass) -> DivisorClass:
    """Pull back along forgetting a new marked point n+1.

    lambda and delta_0 are preserved, psi_j becomes psi_j -
    delta_{0:{j,n+1}}, and delta_{i:S} becomes delta_{i:S} +
    delta_{i:S+{n+1}}.
    """
    new = d.n + 1
    acc = Accumulator(d.g, new)
    acc.add_lambda(d.lam)
    acc.add_delta0(d.delta0)
    for j in range(1, d.n + 1):
        c = d.psi[j - 1]
        if c:
            acc.add_psi(j, c)
            acc.add_boundary(0, {j, new}, -c)
    for idx, c in d.boundary.items():
        acc.add_boundary(idx.i, idx.points, c)
        acc.add_boundary(idx.i, idx.points + (new,), c)
    return acc.divisor_class()


def _pow2(e):
    return Fraction(2) ** e


def _add_boundary(acc, idx, c):
    acc.boundary[idx] = acc.boundary.get(idx, Fraction(0)) + c


def reference_logan_class(g, n, d):
    acc = Accumulator(g, n)
    acc.add_lambda(-1)
    for j, dj in enumerate(d, start=1):
        acc.add_psi(j, comb(dj + 1, 2))
    for idx in canonical_boundary_indices(g, n):
        d_S = sum(d[p - 1] for p in idx.points)
        _add_boundary(acc, idx, -comb(abs(d_S - idx.i) + 1, 2))
    return acc.divisor_class()


def reference_qg_class(g):
    n = 2 * g - 2
    acc = Accumulator(g, n)
    acc.add_lambda(-(4**g))
    acc.add_delta0(4 ** (g - 2))
    for j in range(1, n + 1):
        acc.add_psi(j, 3 * _pow2(2 * g - 3))
    for idx in canonical_boundary_indices(g, n):
        size = len(idx.points)
        if size in (0, n):
            i0 = idx.i if size == 0 else g - idx.i
            c = -_pow2(2 * (g - i0) - 1) * (4**i0 * (i0 - 1) + 2) * i0
        else:
            x = size - 2 * idx.i
            c = -_pow2(2 * g - 3) * x * (x + 2)
        _add_boundary(acc, idx, c)
    return acc.divisor_class()


def reference_qd_class(q):
    g, n, d = q.g, q.n, q.d
    bad = frozenset(j for j, dj in enumerate(d, start=1) if dj % 2 or dj < 0)
    acc = Accumulator(g, n)
    acc.add_delta0(4 ** (g - 2))
    if not bad:
        acc.add_lambda(-(4**g - 1))
        for j, dj in enumerate(d, start=1):
            acc.add_psi(j, Fraction((4**g - 1) * dj * (dj + 2), 8))
        for idx in canonical_boundary_indices(g, n):
            i1, S1 = idx.i, idx.point_set
            d1 = sum(d[p - 1] for p in S1)
            i2, d2 = g - i1, 2 * g - 2 - d1
            if d1 >= 2 * i1:
                big_i, big_d = i1, d1
            elif d2 >= 2 * i2:
                big_i, big_d = i2, d2
            else:
                raise AssertionError("even signature with no dominant side")
            x = big_d - 2 * big_i
            c = -Fraction(x + 2, 8) * (4 * (4**big_i - 1) + x * (4**g - 1))
            _add_boundary(acc, idx, c)
    else:
        acc.add_lambda(-(4**g))
        for j, dj in enumerate(d, start=1):
            acc.add_psi(j, _pow2(2 * g - 3) * dj * (dj + 2))
        all_labels = frozenset(range(1, n + 1))
        for idx in canonical_boundary_indices(g, n):
            i1, S1 = idx.i, idx.point_set
            d1 = sum(d[p - 1] for p in S1)
            if bad <= S1:
                side = (i1, d1)
            elif bad <= all_labels - S1:
                side = (g - i1, 2 * g - 2 - d1)
            else:
                side = None
            if side is None:
                x = d1 - 2 * i1
                c = -_pow2(2 * g - 3) * x * (x + 2)
            else:
                ii, dd = side
                x = dd - 2 * ii
                if x >= 0:
                    c = -(x + 2) * (_pow2(2 * g - 3) * x + _pow2(2 * ii - 1))
                else:
                    c = -_pow2(2 * g - 3) * x * (x + 2)
            _add_boundary(acc, idx, c)
    return acc.divisor_class()


def reference_fill(acc: Accumulator, boundary, psi) -> CurveFunctional:
    """Sum boundary terms (i, S, c) and psi terms (j, c) into acc.

    The labels of each boundary term's canonical side are counted before
    acc is filled, and more than _MAX_DENSE_ENTRIES in all (the printed
    functional lists them) is refused with BudgetExceeded: family A at
    i = g has about n^2/2.
    """
    g, n = acc.g, acc.n
    terms, labels = [], 0
    for term in boundary:
        i, S, _ = term
        labels += len(S) if _keeps_side(g, i, S) else n - len(S)
        if labels > _MAX_DENSE_ENTRIES:
            raise BudgetExceeded(
                "a test curve on Mbar_{%d,%d} would list more than the limit of %d boundary labels"
                % (g, n, _MAX_DENSE_ENTRIES)
            )
        terms.append(term)
    for j, c in psi:
        acc.add_psi(j, c)
    for term in terms:
        acc.add_boundary(*term)
    return CurveFunctional(acc.g, acc.n, acc.lam, acc.psi, acc.delta0, acc.boundary)


def reference_curve_a(g: int, i: int, s: int) -> CurveFunctional:
    validate_spec("A", g, i, s)
    n = 2 * g - 2
    acc = Accumulator(g, n)
    base = set(range(1, s + 1))
    rest = range(s + 1, n + 1)
    boundary = chain([(i, base, -(4 * g - 2 * i - 4 - s))], ((i, base | {j}, 1) for j in rest))
    return reference_fill(acc, boundary, zip(rest, repeat(1)))


def reference_curve_b(g: int, i: int, s: int) -> CurveFunctional:
    validate_spec("B", g, i, s)
    n = 2 * g - 2
    acc = Accumulator(g, n)
    base = set(range(1, s + 1))
    boundary = chain(
        [(i, base, 1), (i, base | {s + 1}, -1)], ((0, {j, s + 1}, 1) for j in base)
    )
    psi = chain([(s + 1, 2 * i - 1 + s)], zip(base, repeat(1)))
    return reference_fill(acc, boundary, psi)


def reference_curve_c(g: int, i: int, s: int) -> CurveFunctional:
    validate_spec("C", g, i, s)
    n = 2 * g - 2
    acc = Accumulator(g, n)
    base = set(range(1, s + 1))
    tail = set(range(s + 3, n + 1))
    boundary = [
        (i, base, -1),
        (g - i, tail, -1),
        (0, {s + 1, s + 2}, 1),
        (i, base | {s + 1}, 1),
        (g - i, tail | {s + 1}, 1),
    ]
    return reference_fill(acc, boundary, [(s + 1, 1), (s + 2, 1)])


def reference_rref(rows, rhs):
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((k for k in range(r, n_rows) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] = rhs[r] * inv
        for k in range(n_rows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
                rhs[k] = rhs[k] - f * rhs[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def dense_rref_on_sparse_rows(rows, rhs, n_cols):
    """reference_rref behind the sparse-row interface of reference_sparse_rref."""
    dense = [[row.get(c, Fraction(0)) for c in range(n_cols)] for row in rows]
    pivots = reference_rref(dense, rhs)
    rows[:] = [{c: x for c, x in enumerate(row) if x} for row in dense]
    return pivots


def reference_slot(g, n, i, s):
    if s < 0:
        raise InvalidIndex("slot (i=%d, s=%d) out of range" % (i, s))
    kind, _ = boundary_term(g, n, i, range(1, s + 1))
    if kind != "delta":
        return kind, None
    j, (t,) = orbit_key(g, (n,), i, (s,))
    return kind, (j, t)


def reference_sparse_rref(rows, rhs, n_cols):
    """In-place reduced row echelon form of sparse rows {column: nonzero
    entry}; returns the pivot column list.  Pivots are taken column by
    column from the first row at or below the current one, and a row
    update touches only the nonzeros of the pivot row."""
    n_rows = len(rows)
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((k for k in range(r, n_rows) if c in rows[k]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        rhs[r] = rhs[r] * inv
        for k in range(n_rows):
            if k != r and c in rows[k]:
                row = rows[k]
                f = row[c]
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                rhs[k] = rhs[k] - f * rhs[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def reference_pinning(rows, rhs, n_cols, rref=reference_sparse_rref):
    """(pivots, values with free columns at zero, determined flags)."""
    n_equations = len(rows)
    pivots = rref(rows, rhs, n_cols)
    rank = len(pivots)
    for k in range(rank, n_equations):
        if rhs[k]:
            raise SingularSystem("chosen equations are inconsistent")

    free_cols = [c for c in range(n_cols) if c not in pivots]

    # a pivot variable is pinned only when its row touches no free column
    values = [Fraction(0)] * n_cols
    determined = [False] * n_cols
    for r, c in enumerate(pivots):
        if rows[r].keys().isdisjoint(free_cols):
            values[c] = rhs[r]
            determined[c] = True
        else:
            values[c] = rhs[r]  # free part set to zero for reporting
    return pivots, values, determined


def reference_solve_qg(g, rref=reference_sparse_rref):
    n = 2 * g - 2
    slots = [reference_slot(g, n, i, s) for i in range(0, g + 1) for s in range(0, n + 1)]
    keys = sorted({key for kind, key in slots if kind == "delta"})
    col = {key: k + 1 for k, key in enumerate(keys)}  # column 0 is c_psi
    n_cols = len(keys) + 1

    rows = []
    rhs = []

    def put(row, i, s, coeff):
        kind, key = reference_slot(g, n, i, s)
        if kind == "delta":
            row[col[key]] = row.get(col[key], 0) + coeff
        elif kind == "psi":
            row[0] = row.get(0, 0) - coeff

    def add_row(row, value):
        rows.append({c: x for c, x in row.items() if x})
        rhs.append(Fraction(value))

    for i in range(0, g + 1):
        for s in range(1, n + 1):
            if s == 2 * g - 3:
                continue
            row = {}
            lead = Fraction(2 * g - 2 - s)
            if lead:
                row[0] = lead
                put(row, i, s + 1, lead)
            put(row, i, s, Fraction(-(4 * g - 2 * i - 4 - s)))
            add_row(row, a_dot_qg_formula(g, i, s))
    for i in range(1, g + 1):
        row = {0: Fraction(2 * i - 1)}
        put(row, i, 0, Fraction(1))
        put(row, i, 1, Fraction(-1))
        add_row(row, oracle(CurveSpec("B", g, i, 0)))

    n_equations = len(rows)
    pivots, values, determined = reference_pinning(rows, rhs, n_cols, rref)
    if 0 not in pivots:
        raise SingularSystem("c_psi is not determined at g=%d" % g)

    c_psi = values[0]
    coefficients = {
        key: values[col[key]] for key in keys if determined[col[key]]
    }
    free = tuple(key for key in keys if not determined[col[key]])

    def val(i, s):
        kind, key = reference_slot(g, n, i, s)
        if kind == "psi":
            return -c_psi
        if kind == "zero":
            return Fraction(0)
        return values[col[key]]

    residuals = {}
    for spec in valid_specs(g):
        i, s = spec.i, spec.s
        if spec.family == "B":
            lhs = (2 * i + 2 * s - 1) * c_psi + s * val(0, 2) + val(i, s) - val(i, s + 1)
        elif spec.family == "C":
            lhs = (
                2 * c_psi
                + val(0, 2)
                + val(g - i, 2 * g - s - 3)
                - val(g - i, 2 * g - s - 4)
                + val(i, s + 1)
                - val(i, s)
            )
        else:
            continue
        residuals[(spec.family, i, s)] = lhs - oracle(spec)

    return QgSolution(
        g=g,
        c_psi=c_psi,
        coefficients=coefficients,
        free=free,
        rank=len(pivots),
        n_unknowns=n_cols,
        n_equations=n_equations,
        excluded="family-A rows with s = 2g-3 = %d" % (2 * g - 3),
        residuals=residuals,
    )


# (g, d): odd, negative, repeated, all-distinct and all-even weights, with
# n = 2g-2 so that every test curve can be paired with them
QD_SIGNATURES = [
    (2, (1, 1)),
    (2, (3, -1)),
    (2, (2, 0)),
    (3, (1, 1, 1, 1)),
    (3, (5, -1, 1, -1)),
    (3, (2, 2, 0, 0)),
    (3, (4, 2, 0, -2)),
    (3, (3, 1, 2, -2)),
    (4, (1, 1, 1, 1, 1, 1)),
    (4, (3, 3, 1, -1, -1, 1)),
    (4, (6, 2, 0, -2, 1, -1)),
    (4, (2, 2, 2, 0, 0, 0)),
    (5, (1,) * 8),
    (5, (3, 3, 3, 1, -1, -1, -1, 1)),
    (5, (7, 2, -3, 4, 1, -2, 0, -1)),
    (6, (1,) * 10),
    (6, (3, -1) * 5),
    (6, (2, 2, 2, 2, 2, 0, 0, 0, 0, 0)),
]

LOGAN_SIGNATURES = [
    (2, (1, 1)),
    (3, (1, 1, 1, 0)),
    (3, (3, 0, 0, 0)),
    (4, (1, 1, 1, 1, 0, 0)),
    (4, (4, 0, 0, 0, 0, 0)),
    (4, (2, 1, 1, 0, 0, 0)),
    (5, (5, 0, 0, 0, 0, 0, 0, 0)),
    (5, (1, 1, 1, 1, 1, 0, 0, 0)),
    (6, (2, 1, 1, 1, 1, 0, 0, 0, 0, 0)),
]


def _cases():
    for g in range(2, 7):
        yield "qg:%d" % g, lambda g=g: qg_class(g), lambda g=g: reference_qg_class(g)
    for g, d in QD_SIGNATURES:
        q = QdInput(g, len(d), d)
        yield "qd:%d:%s" % (g, d), lambda q=q: qd_class(q), lambda q=q: reference_qd_class(q)
    for g, d in LOGAN_SIGNATURES:
        yield (
            "logan:%d:%s" % (g, d),
            lambda g=g, d=d: logan_class(g, len(d), d),
            lambda g=g, d=d: reference_logan_class(g, len(d), d),
        )


CASES = list(_cases())


def _sampled_indices(g, n, rng, count=40):
    """(i, S) pairs naming a divisor, in both canonical and mirrored form."""
    indices = canonical_boundary_indices(g, n)
    out = []
    for idx in rng.sample(indices, min(count, len(indices))):
        out.append((idx.i, idx.points))
        out.append((g - idx.i, tuple(p for p in range(1, n + 1) if p not in idx.points)))
    return out


@pytest.mark.parametrize("name, build, reference", CASES, ids=[c[0] for c in CASES])
def test_orbit_class_matches_dense_reference(name, build, reference):
    ref = reference()
    g, n = ref.g, ref.n
    rng = random.Random(name)

    # pairing, boundary_coeff and equals look the orbits up...
    cls = build()
    for spec in valid_specs(g):
        f = curve_functional(spec)
        assert f.pair(cls) == f.pair(ref), spec
    for i, S in _sampled_indices(g, n, rng):
        assert cls.boundary_coeff(i, S) == ref.boundary_coeff(i, S), (i, S)
    assert cls.equals(build()) and build().equals(cls)
    # (at g = 2 equals compares dense normal forms)
    assert cls._dense is None or g == 2

    # ...and the dense view is the reference class, entry for entry
    assert cls.equals(ref) and ref.equals(cls)
    assert cls._coeffs() == ref._coeffs()
    assert cls.to_json() == ref.to_json()
    assert len(cls.boundary) == cls.orbits.dense_size()

    # a changed coefficient is seen by both comparison routes
    key = next(iter(cls.orbits.coeffs))
    other = build()
    other.orbits.coeffs[key] += 1
    assert not cls.equals(other)
    assert not other.equals(ref)


def test_equals_across_different_label_groups():
    # qd with weights (1,1,1,1) groups its labels as qg does; weights
    # (3,-1,1,1) give other groups, so the comparison goes through the
    # dense view
    assert qd_class(QdInput(3, 4, (1, 1, 1, 1))).equals(qg_class(3))
    assert not qd_class(QdInput(3, 4, (3, -1, 1, 1))).equals(qg_class(3))
    twisted = qd_class(QdInput(3, 4, (3, -1, 1, 1)))
    assert twisted.equals(reference_qd_class(QdInput(3, 4, (3, -1, 1, 1))))
    assert twisted.equals(DivisorClass.from_json(twisted.to_json()))


@pytest.mark.parametrize("g", range(2, 11))
def test_solver_matches_dense_rref(g):
    want = reference_solve_qg(g).to_jsonable()
    assert solve_qg_coefficients(g).to_jsonable() == want
    if g <= 6:  # and the frozen sparse solve matches dense elimination
        assert reference_solve_qg(g, dense_rref_on_sparse_rows).to_jsonable() == want


def _solve(rows, rhs, n_cols, solver):
    """solver on copies of the rows: (pivots, values, pinned set), or None
    when it raises SingularSystem."""
    try:
        out = solver([dict(row) for row in rows], list(rhs), n_cols)
    except SingularSystem:
        return None
    pivots, values, pinned = out
    if not isinstance(pinned, set):  # the reference's determined flags
        pinned = {c for c, flag in enumerate(pinned) if flag}
    return pivots, values, pinned


def _check_planted(rows, n_cols, x):
    """The library solve of rows = A x against the reference; returns the
    pivot columns."""
    ax = [sum(a * x[c] for c, a in row.items()) for row in rows]
    got = _solve(rows, ax, n_cols, classes._solve_sparse)
    # the reference divides by its pivots, so it is handed Fraction entries
    exact = [{c: Fraction(a) for c, a in row.items()} for row in rows]
    assert got == _solve(exact, ax, n_cols, reference_pinning)
    pivots, values, pinned = got
    assert all(values[c] == 0 for c in range(n_cols) if c not in pivots)
    assert all(values[c] == x[c] for c in pinned)
    assert [sum(a * values[c] for c, a in row.items()) for row in rows] == ax
    return pivots


def frozen_slot(g, n, i, s):
    """The solver's slot lookup as it stood before _curve_row resolved its
    slots inline: (sign, orbit key flattened to (i, s) or "psi")."""
    if not (0 <= i <= g and 0 <= s <= n):
        raise InvalidIndex("slot (i=%d, s=%d) out of range" % (i, s))
    if not _class_is_valid(g, n, i, s):
        return (-1 if 1 in (s, n - s) else 0), "psi"
    j, (t,) = orbit_key(g, (n,), i, (s,))
    return 1, (j, t)


def frozen_curve_row(g, family, i, s):
    """_curve_row through frozen_slot and orbit_size, one call per term."""
    blocks, boundary, psi = _curve_terms(family, g, i, s)
    sizes = tuple(map(len, blocks))
    row = {"psi": sum(map(mul, sizes, psi))}
    for j, counts, c in boundary:
        size = orbit_size(g, sizes, j, counts)
        if size:
            sign, key = frozen_slot(g, 2 * g - 2, j, sum(counts))
            row[key] = row.get(key, 0) + sign * size * c
    return {key: x for key, x in row.items() if x}


def _row_or_error(row_of, g, family, i, s):
    try:
        return row_of(g, family, i, s)
    except (InvalidIndex, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("g", range(2, 13))
def test_curve_row_matches_frozen_slot_route(g):
    # the whole (i, s) grid of each family, inadmissible s included: family
    # B at s = n names a slot past n, family C at s >= n - 1 a negative count
    n = 2 * g - 2
    errors = set()
    for family in FAMILIES:
        for i in range(g + 1):
            for s in range(n + 1):
                want = _row_or_error(frozen_curve_row, g, family, i, s)
                got = _row_or_error(classes._curve_row, g, family, i, s)
                assert got == want, (family, i, s)
                if isinstance(got, dict):
                    assert all(type(x) is int for x in got.values())
                else:
                    errors.add((family, s - n, got))
    assert errors == {("B", 0, InvalidIndex), ("C", -1, ValueError), ("C", 0, ValueError)}



def _slot_or_error(slot, g, n, i, s):
    try:
        return slot(g, n, i, s)
    except InvalidIndex as exc:
        return InvalidIndex, str(exc)


def test_slot_matches_frozen_slot():
    # i and s run one past each end, so the out-of-range refusal is compared too
    for g in range(2, 25):
        for n in range(2, 30):
            for i in range(-1, g + 2):
                for s in range(-1, n + 2):
                    want = _slot_or_error(frozen_slot, g, n, i, s)
                    assert _slot_or_error(classes._slot, g, n, i, s) == want, (g, n, i, s)


# -- the Fraction routes, frozen ----------------------------------------------
#
# qg_class and the test-curve pairings as they were before they worked in
# integers: every qg coefficient through Fraction(2) ** e, and every pairing
# a dict row dotted with the slot numerators, made a Fraction.


def frozen_qg_class(g):
    n = 2 * g - 2
    table = weight_table(g, n, [1] * n)[0]
    for i, (s,) in table.keys():
        if s in (0, n):
            i0 = i if s == 0 else g - i  # genus of the unmarked side
            c = -_pow2(2 * (g - i0) - 1) * (4**i0 * (i0 - 1) + 2) * i0
        else:
            x = s - 2 * i
            c = -_pow2(2 * g - 3) * x * (x + 2)
        table.put((i, (s,)), c)
    return DivisorClass(g, n, -(4**g), [3 * _pow2(2 * g - 3)], 4 ** (g - 2), orbits=table)


def frozen_pairings(g, slots, families=FAMILIES):
    """(spec, pairing): frozen_curve_row dotted with the numerators of the
    slot values over their common denominator, one Fraction per spec."""
    den = lcm(*(v.denominator for v in slots.values()))
    num = {key: v.numerator * (den // v.denominator) for key, v in slots.items()}
    for spec in valid_specs(g, families):
        row = frozen_curve_row(g, spec.family, spec.i, spec.s)
        yield spec, Fraction(sum(x * num.get(key, 0) for key, x in row.items()), den)


def test_qg_class_matches_frozen_fraction_rule():
    for g in range(2, 41):
        got, want = qg_class(g), frozen_qg_class(g)
        assert got.orbits.groups == want.orbits.groups, g
        assert list(got.orbits.coeffs.items()) == list(want.orbits.coeffs.items()), g
        assert (got.lam, got.group_psi, got.delta0) == (want.lam, want.group_psi, want.delta0), g
        stored = chain(got.orbits.coeffs.values(), got.group_psi, (got.lam, got.delta0))
        assert all(type(c) is Fraction for c in stored), g


def _qg_slots(g):
    cls = qg_class(g)
    slots = {(i, s): c for (i, (s,)), c in cls.orbits.coeffs.items()}
    slots["psi"] = cls.group_psi[0]
    return slots


@pytest.mark.parametrize("g", range(2, 13))
def test_pairings_match_frozen_dict_row_dot(g):
    # qg_class's slots (all integers), and a class with denominators whose
    # other slots are missing, so read as 0
    qg = _qg_slots(g)
    rng = random.Random(g)
    mixed = {key: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for key in rng.sample(sorted(qg, key=str), len(qg) // 2)}
    for slots in (qg, mixed):
        den = lcm(*(v.denominator for v in slots.values()))
        got = list(classes._pairings(g, slots))
        assert all(d == den and type(x) is int for _, x, d in got)
        assert [(spec, Fraction(x, d)) for spec, x, d in got] == list(frozen_pairings(g, slots))


def test_integer_elimination_matches_reference():
    # integer rows with entries up to 2^200, each row times a content > 1,
    # so the fraction-free reduction meets long integers and common factors
    rng = random.Random(21)
    dropped = inconsistent = 0
    for trial in range(300):
        n_rows, n_cols = rng.randint(2, 7), rng.randint(1, 7)
        big = 2 ** rng.choice((3, 64, 200))
        rows = []
        for _ in range(n_rows):
            content = rng.choice((2, 6, 2**61 - 1, 10**30))
            row = {c: content * rng.randint(-big, big) for c in range(n_cols) if rng.random() < 0.6}
            rows.append({c: x for c, x in row.items() if x})
        if trial % 3 == 0:  # rank drop: the last row combines the first two
            p, q = rng.choice((1, -3, 7)), rng.choice((2, 5, -10**20))
            rows[-1] = {c: p * rows[0].get(c, 0) + q * rows[1].get(c, 0) for c in range(n_cols)}
            rows[-1] = {c: x for c, x in rows[-1].items() if x}
        x = [rng.randint(-big, big) for _ in range(n_cols)]
        dropped += len(_check_planted(rows, n_cols, x)) < n_rows

        drawn = [rng.randint(-big, big) for _ in range(n_rows)]
        exact = [{c: Fraction(a) for c, a in row.items()} for row in rows]
        got = _solve(rows, drawn, n_cols, classes._solve_sparse)
        assert got == _solve(exact, drawn, n_cols, reference_pinning)
        inconsistent += got is None
    assert dropped > 50 and inconsistent > 50


def test_sparse_rref_matches_dense_on_random_systems():
    rng = random.Random(11)
    planted = random.Random(12)
    for trial in range(300):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.2, 0.4, 0.7))
        dense = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
             for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if trial % 5 == 0 and n_rows > 1:
            dense[-1] = [a + b for a, b in zip(dense[0], dense[1 % n_rows])]  # rank drop
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n_rows)]
        drawn = list(rhs)
        rows = [{c: x for c, x in enumerate(row) if x} for row in dense]

        # the frozen sparse RREF against dense elimination
        sparse, sparse_rhs = [dict(row) for row in rows], list(rhs)
        want = reference_rref(dense, rhs)
        assert reference_sparse_rref(sparse, sparse_rhs, n_cols) == want
        assert sparse == [{c: x for c, x in enumerate(row) if x} for row in dense]
        assert sparse_rhs == rhs

        # the library solve against the reference: on the drawn right-hand
        # side it fails exactly when the RREF leaves 0 = nonzero, and on
        # A x for a planted x it finds the same pivots
        got = _solve(rows, drawn, n_cols, classes._solve_sparse)
        assert got == _solve(rows, drawn, n_cols, reference_pinning)
        assert (got is None) == any(rhs[len(want):])
        x = [Fraction(planted.randint(-4, 4)) for _ in range(n_cols)]
        assert _check_planted(rows, n_cols, x) == want

    # entries of +-1 cancel often, so values pinned only through a
    # cancellation of free columns come up
    for trial in range(300):
        n_rows, n_cols = planted.randint(1, 6), planted.randint(2, 7)
        rows = [
            {c: Fraction(planted.choice((-1, 1))) for c in range(n_cols) if planted.random() < 0.5}
            for _ in range(n_rows)
        ]
        _check_planted(rows, n_cols, [Fraction(planted.randint(-4, 4)) for _ in range(n_cols)])


REFERENCE_CURVES = {"A": reference_curve_a, "B": reference_curve_b, "C": reference_curve_c}

# more signatures at g = 7, where QD_SIGNATURES has none: one whose weight
# groups split every test-curve block the same way as qg, and two whose
# groups cut through blocks
QD_SIGNATURES_G7 = [(1,) * 12, (3, -1) * 6, (2,) * 6 + (0,) * 6]


def _random_orbit_class(g, weights, rng):
    """An orbit-form class with random non-integer coefficients, so that
    the pairing's common denominator is exercised."""
    table = weight_table(g, len(weights), weights)[0]
    draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    for key in table.keys():
        table.put(key, draw())
    psi = [draw() for _ in table.groups]
    return DivisorClass(g, len(weights), draw(), psi, draw(), orbits=table)


def _paired_classes(g):
    """(name, class) for every class on Mbar_{g,2g-2} the functionals are
    checked against: qg, its dense copy, the qd and logan signatures, and
    random rational classes over the qg labels and over two groups."""
    yield "qg", qg_class(g)
    yield "dense qg", DivisorClass.from_json(qg_class(g).to_json())
    rng = random.Random(g)
    n = 2 * g - 2
    yield "random, one group", _random_orbit_class(g, (0,) * n, rng)
    yield "random, two groups", _random_orbit_class(g, (1,) * (n // 2) + (0,) * (n - n // 2), rng)
    qd = [d for gg, d in QD_SIGNATURES if gg == g] + (QD_SIGNATURES_G7 if g == 7 else [])
    for d in qd:
        yield "qd %s" % (d,), qd_class(QdInput(g, len(d), d))
    for d in (d for gg, d in LOGAN_SIGNATURES if gg == g):
        yield "logan %s" % (d,), logan_class(g, len(d), d)


@pytest.mark.parametrize("g", range(2, 8))
def test_orbit_functionals_match_dense_reference(g):
    classes_g = list(_paired_classes(g))
    for spec in valid_specs(g):
        f = curve_functional(spec)
        ref = REFERENCE_CURVES[spec.family](spec.g, spec.i, spec.s)
        assert f._dense is None
        for name, cls in classes_g:
            assert f.pair(cls) == ref.pair(cls), (spec, name)
        # the dense view, built last, is the reference functional
        assert f.to_jsonable() == ref.to_jsonable(), spec
        assert f == ref


# sha256 of str(f.pair(cls)), in the order of test_pair_output_digest,
# recorded when a functional whose blocks lay inside the class's label
# groups still paired per orbit and any other pair entry by entry over the
# functional's dense view
PAIR_DIGEST = "e96aa785ac7fd87c87aafef1a7715714b98ebffbab1a2d0a142126924b1eff0f"


def test_pair_output_digest():
    # one class whose groups hold every block, two whose groups cut blocks,
    # and a JSON copy read back in its own grouping
    digest = hashlib.sha256()
    for g in range(2, 8):
        n = 2 * g - 2
        paired = [
            qg_class(g),
            qd_class(QdInput(g, n, (2, 0) * (g - 1))),
            logan_class(g, n, (1,) * g + (0,) * (g - 2)),
            DivisorClass.from_json(qd_class(QdInput(g, n, (3, -1) + (1,) * (n - 2))).to_json()),
        ]
        for spec in valid_specs(g):
            f = curve_functional(spec)
            for cls in paired:
                digest.update(str(f.pair(cls)).encode())
    assert digest.hexdigest() == PAIR_DIGEST


def test_self_mirror_functionals():
    # at even g and i = g/2 both sides of a node have genus i, and the
    # canonical side of delta_{i:S} is the one holding label 1
    for g in (2, 4, 6):
        i = g // 2
        qg = qg_class(g)
        dense = DivisorClass.from_json(qg.to_json())
        specs = [spec for spec in valid_specs(g) if spec.i == i]
        assert {spec.family for spec in specs} == {"A", "B", "C"}
        for spec in specs:
            f = curve_functional(spec)
            ref = REFERENCE_CURVES[spec.family](spec.g, spec.i, spec.s)
            assert f.pair(qg) == ref.pair(qg) == f.pair(dense)
            entries = f.to_jsonable()["boundary"]
            assert entries == ref.to_jsonable()["boundary"], spec
            assert all(1 in e["S"] for e in entries if 2 * e["i"] == g), spec
    # B_{i:0} at a tie: delta_{i:{}} is written delta_{i:{1..n}}
    assert curve_functional(CurveSpec("B", 4, 2, 0)).boundary_coeff(2, range(1, 7)) == 1


def test_functional_label_budget_matches_reference():
    # the labels are counted per orbit now; both routes refuse the same
    # specs.  A_{g:1} lists (n-1)^2 labels: 998,001 at g = 501, 1,002,001
    # at g = 502
    for g, i, s, want in ((501, 501, 1, "built"), (502, 502, 1, "refused"),
                          (502, 501, 1, "refused"), (502, 1, 1, "built")):
        for build in (curve_functional, lambda spec: REFERENCE_CURVES["A"](spec.g, spec.i, spec.s)):
            try:
                build(CurveSpec("A", g, i, s))
                got = "built"
            except BudgetExceeded:
                got = "refused"
            assert got == want, (g, i, s, build)


def test_accumulator_checks():
    with pytest.raises(TypeError):
        Accumulator(2, 1).add_psi(1, 0.5)
    with pytest.raises(BudgetExceeded):
        Accumulator(2, _MAX_DENSE_ENTRIES + 1)


def _same_as(got, ref) -> bool:
    # every coefficient: table against table when the label groups agree,
    # else the dense views (the reference's is built once)
    return (got.g, got.n) == (ref.g, ref.n) and got._same(ref)


def _no_finer(groups, than) -> bool:
    """Does every label group of `than` lie inside one of `groups`?"""
    where = {j: k for k, labels in enumerate(groups) for j in labels}
    return all(len({where[j] for j in labels}) == 1 for labels in than)


def _entry_orbit_size(table, e) -> int:
    """Number of divisors in the orbit, under the table's label groups, of
    the class-file entry e."""
    group_of = {j: k for k, labels in enumerate(table.groups) for j in labels}
    counts = [0] * len(table.sizes)
    for p in e["S"]:
        counts[group_of[p]] += 1
    return orbit_size(table.g, table.sizes, e["i"], tuple(counts))


def _per_label_copy(cls):
    """A JSON copy of cls with one coefficient changed so that no grouping
    coarser than one group per label holds: an entry, not a
    delta_{0:{j,k}}, of an orbit with more than one divisor, else psi_1."""
    data = cls.to_jsonable()
    for e in data["boundary"]:
        if _entry_orbit_size(cls.orbits, e) > 1 and (e["i"], len(e["S"])) != (0, 2):
            e["c"] = format_rational(parse_rational(e["c"]) + 1)
            break
    else:
        data["psi"][0] = format_rational(parse_rational(data["psi"][0]) + 1)
    return DivisorClass.from_jsonable(data)


# qg for g = 2..7 and every qd and logan signature above
PULLBACK_CASES = [("qg:%d" % g, lambda g=g: qg_class(g)) for g in range(2, 8)]
PULLBACK_CASES += [(name, build) for name, build, _ in CASES if not name.startswith("qg:")]


@pytest.mark.parametrize("name, build", PULLBACK_CASES, ids=[c[0] for c in PULLBACK_CASES])
def test_pullbacks_match_dense_reference(name, build):
    cls = build()
    # the JSON copy reads in a grouping no finer than the class's own, and
    # a copy with one coefficient changed in one group per label
    copy = DivisorClass.from_json(cls.to_json())
    assert _no_finer(copy.orbits.groups, cls.orbits.groups)
    changed = _per_label_copy(cls)
    assert changed.orbits.sizes == (1,) * cls.n

    ref = reference_forget_pullback(cls)
    for d in (cls, copy):
        assert _same_as(forget_pullback(d), ref)
    assert _same_as(forget_pullback(changed), reference_forget_pullback(changed))
    for h in range(1, cls.g - 1):
        refs, changed_refs = reference_pullbacks_attach(cls, h), reference_pullbacks_attach(changed, h)
        for j, ref, changed_ref in zip(range(1, cls.n + 1), refs, changed_refs):
            assert _same_as(pullback_attach(cls, h, j), ref), (h, j)
            # the reference, built through the input adapter, reads in a
            # grouping no finer than the JSON copy's pullback
            got = pullback_attach(copy, h, j)
            assert _no_finer(ref.orbits.groups, got.orbits.groups) and _same_as(got, ref), (h, j)
            assert _same_as(pullback_attach(changed, h, j), changed_ref), (h, j)


def test_attach_references_agree():
    # the one walk per h gives the per-label reference's pullbacks
    for cls in (qg_class(4), qd_class(QdInput(4, 6, (3, 3, 1, -1, -1, 1))),
                _per_label_copy(logan_class(4, 6, (2, 1, 1, 0, 0, 0)))):
        for h in range(1, cls.g - 1):
            for j, got in enumerate(reference_pullbacks_attach(cls, h), start=1):
                assert got._coeffs() == reference_pullback_attach(cls, h, j)._coeffs(), (h, j)
    with pytest.raises(DimensionMismatch):
        reference_pullbacks_attach(qg_class(3), 2)


@pytest.mark.parametrize("g", [4, 6])
def test_self_mirror_pullbacks(g):
    # qg's orbit (g/2, (g-1,)) holds S and S^c: both genus g/2 with g-1 of
    # the 2g-2 labels, so it has comb(2g-2, g-1)/2 divisors
    q = qg_class(g)
    n, i, key = q.n, g // 2, (g // 2, (g - 1,))
    assert self_mirror(g, q.orbits.sizes, *key)
    c = q.orbits.coeffs[key]
    S = tuple(range(1, g))
    # forget: both image terms name the one orbit (i, (g-1, 0)), which gets
    # c per divisor, not 2c
    forgot = forget_pullback(q)
    assert forgot.orbits.coeffs[(i, (g - 1, 0))] == c
    assert (i, (g - 1, 1)) not in forgot.orbits.coeffs
    assert forgot.boundary_coeff(i, S) == forgot.boundary_coeff(i, S + (n + 1,)) == c
    assert forgot.to_jsonable() == reference_forget_pullback(q).to_jsonable()
    # attach at label 1: the halves holding 1 and missing it are mirrors,
    # mapped once; the side holding 1 keeps its comb(2g-3, g-2) divisors
    for h in range(1, i + 1):
        attached = pullback_attach(q, h, 1)
        assert attached.orbits.sizes == (1, n - 1)
        half = orbit_key(g - h, (1, n - 1), i - h, (1, g - 2))
        assert orbit_size(g - h, (1, n - 1), *half) == orbit_size(g, (n,), *key) == comb(2 * g - 3, g - 2)
        assert attached.orbits.coeffs[half] == c
        assert attached.boundary_coeff(i - h, S) == c
        assert attached.to_jsonable() == reference_pullback_attach(q, h, 1).to_jsonable()


# qg at g = 2..6, the qd and logan signatures above, and qd signatures whose
# psi values collide across weights: w(w+2) is equal for w = 1 and -3 and
# for w = 0 and -2, so only the delta_{0:{j,k}} rows tell those labels apart
REGROUP_CASES = [("qg:%d" % g, lambda g=g: qg_class(g)) for g in range(2, 7)]
REGROUP_CASES += [(name, build) for name, build, _ in CASES if not name.startswith("qg:")]
REGROUP_CASES += [
    ("qd:%d:%s" % (len(d) // 2 + 1, d), lambda d=d: qd_class(QdInput(len(d) // 2 + 1, len(d), d)))
    for d in ((1, -3, 3, 3), (0, -2, 3, 3), (1, 1, -3, 3, 3, 1), (0, -2, 2, 2, 2, 2),
              (1, -3, 1, -3, 3, 3, 3, 3), (0, -2, 0, -2, 3, 3, 3, 3))
]


def _dense_reading(data):
    """(lambda, psi, delta_0, dense boundary) of a class file, summed entry
    by entry without the library's input route; zero sums dropped."""
    g, n = data["g"], data["n"]
    boundary = {}
    for e in data["boundary"]:
        idx = canonicalize_index(g, n, e["i"], e["S"])
        boundary[idx] = boundary.get(idx, 0) + parse_rational(e["c"])
    return (parse_rational(data["lambda"]), tuple(map(parse_rational, data["psi"])),
            parse_rational(data["delta0"]), {idx: c for idx, c in boundary.items() if c})


def _perturbed(data, copy):
    """Hand-edited copies of a class file, around an entry of a largest orbit
    of the copy's grouping: one coefficient changed, the entry deleted, a
    mirrored duplicate of it, and its mirror with the opposite coefficient,
    so that the two cancel to zero."""
    g, n = data["g"], data["n"]
    entries = data["boundary"]
    at = max(range(len(entries)), key=lambda k: _entry_orbit_size(copy.orbits, entries[k]))
    e = entries[at]
    c = parse_rational(e["c"])
    mirror = {"i": g - e["i"], "S": [p for p in range(1, n + 1) if p not in e["S"]]}
    edits = (
        ("changed", lambda b: b[at].update(c=format_rational(c + 1))),
        ("deleted", lambda b: b.pop(at)),
        ("mirrored duplicate", lambda b: b.append(dict(mirror, c=e["c"]))),
        ("cancelled", lambda b: b.append(dict(mirror, c=format_rational(-c)))),
    )
    for what, edit in edits:
        edited = json.loads(json.dumps(data))
        edit(edited["boundary"])
        yield what, edited


@pytest.mark.parametrize("name, build", REGROUP_CASES, ids=[c[0] for c in REGROUP_CASES])
def test_json_copy_regroups_exactly(name, build):
    cls = build()
    data = cls.to_jsonable()
    copy = DivisorClass.from_jsonable(data)
    assert _no_finer(copy.orbits.groups, cls.orbits.groups)
    assert _same_as(copy, cls) and copy.to_jsonable() == data
    assert _same_as(forget_pullback(copy), reference_forget_pullback(cls))
    for h in range(1, cls.g - 1):
        for j in sorted({1, cls.n}):
            assert _same_as(pullback_attach(copy, h, j), reference_pullback_attach(cls, h, j)), (h, j)
    # an edited file reads back as its entries sum, whatever grouping it
    # reads in: an orbit with two coefficients or a missing divisor is not
    # expanded, and a zero sum is no entry
    for what, edited in _perturbed(data, copy):
        got = DivisorClass.from_jsonable(edited)
        assert got._coeffs() == _dense_reading(edited), what


def test_json_copy_of_large_class_stays_in_orbits(monkeypatch):
    # qg at g = 8 lists 65,523 divisors in 60 orbits
    q = qg_class(8)
    copy = DivisorClass.from_json(q.to_json())
    assert copy.orbits.sizes == (q.n,)
    forgot, attached = forget_pullback(copy), pullback_attach(copy, 1, 5)
    assert len(forgot.orbits.coeffs) <= 200 and len(attached.orbits.coeffs) <= 200
    assert forgot._same(forget_pullback(q)) and attached._same(pullback_attach(q, 1, 5))

    # two label groups that cut every test-curve block, paired entry by
    # entry over dense views built here, before they are refused
    qd = qd_class(QdInput(8, 14, (2, 0) * 7))
    qd_dense = qd.orbits.dense()
    want = []
    for spec in valid_specs(8):
        f = curve_functional(spec)
        total = sum(map(mul, f.psi, qd.psi)) + f.lam * qd.lam + f.delta0 * qd.delta0
        want.append(total + sum(c * qd_dense.get(idx, 0) for idx, c in f.orbits.dense().items()))

    def no_dense(self):
        raise AssertionError("a dense view was built")

    monkeypatch.setattr(OrbitTable, "dense", no_dense)
    for spec, value in zip(valid_specs(8), want):
        f = curve_functional(spec)
        assert f.pair(copy) == f.pair(q), spec
        assert f.pair(qd) == value, spec


# -- the class-file reader, frozen -------------------------------------------
#
# The reader as it was before the integer orbit code: every entry through
# canonicalize_index, then the input adapter's candidate grouping checked by
# per-label counts and orbit_key.


def frozen_canonicalize_index(g, n, i, S):
    points = tuple(S)
    if type(i) is int and 0 <= i and set(map(type, points)) <= {int} and all(map(lt, points, points[1:])):
        _check_gn(g, n)  # what boundary_term checks first
        if ((not points or (0 < points[0] and points[-1] <= n))
                and _class_is_valid(g, n, i, len(points)) and _keeps_side(g, i, points)):
            return BoundaryIndex(i, points)
    S = frozenset(points)
    if len(S) != len(points):
        raise InvalidIndex("marked points %s repeat a label" % (list(points),))
    kind, idx = boundary_term(g, n, i, S)
    if kind != "delta":
        raise InvalidIndex(
            "(i=%d, S=%s) is not a boundary divisor on Mbar_{%d,%d}" % (i, sorted(S), g, n)
        )
    return idx


def frozen_grouped(g, n, groups, total):
    table = OrbitTable(g, n, groups)
    group_of = [-1] * (n + 1)
    for k, labels in enumerate(table.groups):
        for j in labels:
            group_of[j] = k

    def counts(points):
        if len(table.sizes) == 1:
            return (len(points),)
        out = [0] * len(table.sizes)
        for p in points:
            out[group_of[p]] += 1
        return out

    for (i, S), c in total:
        old = table.coeffs.setdefault(orbit_key(g, table.sizes, i, counts(S)), c)
        if old is not c and old != c:
            return None
    return table if table.dense_size() == len(total) else None


def frozen_from_dense(g, n, psi, boundary):
    psi = tuple(map(_frac, psi or (0,) * n))
    if len(psi) != n:
        raise DimensionMismatch("expected %d psi coefficients, one per label" % n)
    total, rows = [], [[] for _ in range(n + 1)]
    for idx, c in boundary.items():
        c = _frac(c)
        if c:
            total.append((idx, c))
            if idx.i == 0 and len(idx.points) == 2:
                for j in idx.points:
                    rows[j].append(c)
    by_row = {}
    for j in range(1, n + 1):
        by_row.setdefault((psi[j - 1], tuple(sorted(rows[j]))), []).append(j)
    table = len(by_row) < n and frozen_grouped(g, n, map(tuple, by_row.values()), total)
    table = table or frozen_grouped(g, n, [(j,) for j in range(1, n + 1)], total)
    return table, tuple(psi[labels[0] - 1] for labels in table.groups)


def frozen_from_jsonable(cls, d):
    g, n = _json_int(d["g"]), _json_int(d["n"])
    boundary = {}
    for e in d["boundary"]:
        i, S = _json_int(e["i"]), e["S"]
        try:
            idx = frozen_canonicalize_index(g, n, i, S)
        except (DomainError, TypeError):
            for p in S:
                _json_int(p)
            raise
        c, size = parse_rational(e["c"]), len(boundary)
        old = boundary.setdefault(idx, c)
        if len(boundary) == size:
            boundary[idx] = old + c
    lam, psi, delta0 = (parse_rational(d["lambda"]), tuple(map(parse_rational, d["psi"])),
                        parse_rational(d["delta0"]))
    _check_gn(g, n)  # what the dense constructor checked first
    orbits, group_psi = frozen_from_dense(g, n, psi, boundary or {})
    return cls(g, n, lam, group_psi, delta0, orbits=orbits)


def _read_both(cls, data):
    """The library's reading of a class file and the frozen reader's, each
    the vector read or the (type, message) of what it raised."""
    out = []
    for read in (cls.from_jsonable, lambda d: frozen_from_jsonable(cls, d)):
        try:
            out.append(read(json.loads(json.dumps(data))))
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


def _same_reading(got, ref):
    return (got.orbits.groups, got.orbits.coeffs, got.group_psi, got.to_json()) == (
        ref.orbits.groups, ref.orbits.coeffs, ref.group_psi, ref.to_json())


@cache
def _reader_pool():
    """Small classes of every kind the library builds, with their vector
    type: closed forms, pullbacks of them, per-label copies and test-curve
    functionals."""
    qd = qd_class(QdInput(4, 6, (3, 3, 1, -1, -1, 1)))
    classes_ = [qg_class(g) for g in (2, 3, 4, 5)]
    classes_ += [qd_class(QdInput(g, len(d), d)) for g, d in QD_SIGNATURES if g <= 4]
    classes_ += [logan_class(g, len(d), d) for g, d in LOGAN_SIGNATURES if g <= 4]
    classes_ += [forget_pullback(qd), pullback_attach(qd, 1, 6), pullback_attach(qg_class(5), 2, 3),
                 forget_pullback(qg_class(3)), _per_label_copy(qd)]
    functionals = [curve_functional(CurveSpec(fam, 4, i, s))
                   for fam, i, s in (("A", 1, 2), ("A", 2, 3), ("B", 2, 0), ("C", 1, 1))]
    return [(DivisorClass, c) for c in classes_] + [(CurveFunctional, f) for f in functionals]


def _mirror(g, n, i, S):
    return g - i, [p for p in range(1, n + 1) if p not in S]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reader_matches_frozen_reader(data):
    cls, vec = data.draw(st.sampled_from(_reader_pool()))
    rng = data.draw(st.randoms(use_true_random=False))
    doc = vec.to_jsonable()
    g, n = doc["g"], doc["n"]
    mirror, split, zeros = (rng.random() * rate for rate in (0.5, 0.3, 0.1))
    entries = []
    for e in doc["boundary"]:
        i, S, c = e["i"], e["S"], parse_rational(e["c"])
        if rng.random() < split:
            # part of c on the canonical entry, the rest on its mirror
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            entries += [{"i": i, "S": S, "c": format_rational(a)}]
            i, S, c = *_mirror(g, n, i, S), c - a
        elif rng.random() < mirror:
            i, S = _mirror(g, n, i, S)
        if rng.random() < 0.05:
            S = rng.sample(S, len(S))  # the labels out of order
        entries.append({"i": i, "S": S, "c": format_rational(c)})
    indices = canonical_boundary_indices(g, n)
    for _ in range(int(zeros * len(indices))):
        idx = rng.choice(indices)
        i, S = idx.i, list(idx.points)
        if rng.random() < 0.5:
            i, S = _mirror(g, n, i, S)
        entries.append({"i": i, "S": S, "c": rng.choice(["0/1", "0", "0/3"])})
    rng.shuffle(entries)
    doc["boundary"] = entries
    got, ref = _read_both(cls, doc)
    assert isinstance(ref, cls), ref
    assert _same_reading(got, ref)
    # splits, mirrors and zeros leave the class as it was
    assert got._coeffs() == vec._coeffs()


_BAD_LABELS = (True, False, 1.0, 2.5, "1", None, [1], 0, -1, 99)
_BAD_I = (None, 1.0, "1", True, -1, 99)
_DROP = object()  # a field _malformed deletes


def _malformed(doc, at):
    """(what, copy of the class file) with entry `at` made malformed in each
    way a hand-written file can be."""
    n = doc["n"]
    e = doc["boundary"][at]

    def edited(**fields):
        copy = json.loads(json.dumps(doc))
        entry = copy["boundary"][at]
        for key, value in fields.items():
            if value is _DROP:
                del entry[key]
            else:
                entry[key] = value
        return copy

    for label in _BAD_LABELS:
        yield "label %r" % (label,), edited(S=sorted(e["S"][1:] + [label], key=str))
        yield "label %r first" % (label,), edited(S=[label] + e["S"])
    yield "repeated label", edited(S=e["S"] + e["S"][-1:])
    yield "label past n", edited(S=e["S"] + [n + 1])
    for i in _BAD_I:
        yield "i %r" % (i,), edited(i=i)
    for field in ("i", "S", "c"):
        yield "no %s" % field, edited(**{field: _DROP})
    for S in (5, "12", {"1": 1}, [[1, 2]]):
        yield "S %r" % (S,), edited(S=S)
    yield "S and i", edited(S=[2.0], i=1.5)
    yield "float c", edited(c=0.5)
    yield "zero denominator", edited(c="1/0")


@pytest.mark.parametrize("name, build", [
    ("qg:4", lambda: qg_class(4)),
    ("qd:4", lambda: qd_class(QdInput(4, 6, (3, 3, 1, -1, -1, 1)))),
    ("functional", lambda: curve_functional(CurveSpec("B", 3, 1, 1))),
])
def test_malformed_files_read_as_before(name, build):
    vec = build()
    cls = type(vec)
    doc = vec.to_jsonable()
    seen = 0
    for at in (0, len(doc["boundary"]) // 2, len(doc["boundary"]) - 1):
        for what, bad in _malformed(doc, at):
            got, ref = _read_both(cls, bad)
            if isinstance(ref, tuple):
                assert got == ref, (at, what)
                seen += 1
            else:
                assert _same_reading(got, ref), (at, what)
    assert seen > 60
    # a bad (g, n) together with a bad first entry, and with an empty boundary
    for g, n in ((1, doc["n"]), (doc["g"], 0), (-3, -1), (doc["g"], _MAX_DENSE_ENTRIES + 1)):
        for what, bad in chain([("good", doc)], _malformed(doc, 0)):
            bad = dict(bad, g=g, n=n)
            got, ref = _read_both(cls, bad)
            assert isinstance(ref, tuple) and got == ref, (g, n, what)
        got, ref = _read_both(cls, dict(doc, g=g, n=n, boundary=[], psi=["1/1"]))
        assert got == ref, (g, n)


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_orbit_code_names_the_orbit_key(g):
    # every canonical (i, S) under random label groupings, every tie (2i = g)
    # among them: the code decodes to orbit_key of the side's counts
    rng = random.Random(g)
    ties = 0
    for n in range(1, 9):
        for _ in range(4):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            groups = sorted(tuple(sorted(labels[a:b])) for a, b in zip([0] + cuts, cuts + [n]))
            table = OrbitTable(g, n, groups)
            code, key = table._orbit_code()
            where = {j: k for k, part in enumerate(groups) for j in part}
            for i in range(g // 2 + 1):
                for size in range(n + 1):
                    for S in combinations(range(1, n + 1), size):
                        if not (_class_is_valid(g, n, i, size) and _keeps_side(g, i, S)):
                            continue
                        counts = [0] * len(groups)
                        for p in S:
                            counts[where[p]] += 1
                        want = orbit_key(g, table.sizes, i, counts)
                        assert key(code(i, S)) == want, (groups, i, S)
                        ties += 2 * i == g
    assert ties > 100 or g % 2

