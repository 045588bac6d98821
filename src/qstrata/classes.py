"""Closed-form divisor classes, gluing pullbacks, coefficient solving, audit.

The centrepiece is the divisor class swept out by curves carrying a
quadratic differential with signature (1^{2g-2}, 2^{g-1}) on
Mbar_{g,2g-2} (qg_class), its generalization to arbitrary signatures
(d_1,...,d_n, 2^{g-1}) with sum(d) = 2g-2 (qd_class), the pointed
Brill-Noether classes (logan_class) and the genus-2 Weierstrass divisor.

Every closed form depends on delta_{i:S} only through i and the weights
in S, so the classes are built in orbit form (picard.OrbitTable): one
coefficient per orbit of the labels of equal weight, and one psi
coefficient per weight, each computed in integers (qg_class, qd_class) and
made a Fraction once.  The pullbacks map orbit table to orbit table.

solve_qg_coefficients replays the test-curve computation of the qg_class
coefficients as an exact linear system.  Its rows are the test curves paired
with the unknown symmetric class, integer terms read off the terms table of
qstrata.testcurves by one term router (_row_terms).  Its columns are the
sorted orbit keys, so each i-chain c_{i:0}, c_{i:1}, ... lies on adjacent
columns, with c_psi last; one fraction-free sparse forward elimination along
the chains, in integers, and a back-substitution solve it (_solve_sparse),
and a value counts as solved only when the system pins it.  Its time and
memory grow about like g^2, so a system of more than _MAX_SOLVE_SLOTS (i, s)
slots (g > 353) is refused with BudgetExceeded before any row is built.

audit pairs every test curve with qg_class through the same router, one
integer numerator over a common denominator each (_pairings, as the
solver's residuals), and compares it with its oracle.  The printed data is
not internally consistent on the whole parameter range (the audit shows
pairing != oracle exactly on the s = 2g-3 column); the audit reports those
rows verbatim and the solver simply does not use them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import itemgetter, mul, sub
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    BadSignature,
    BudgetExceeded,
    DimensionMismatch,
    InvalidIndex,
    SingularSystem,
    WrongGenus,
)
from .picard import (
    DivisorClass,
    OrbitTable,
    canonicalize_index,
    format_rational,
    self_mirror,
    weight_table,
)
from .testcurves import (
    FAMILIES,
    TestCurveSpec,
    _curve_terms,
    a_dot_qg_formula,
    curve_functional,  # unused here; perfbench/tracing.py traces it by this name
    oracle,
    valid_specs,
)


# ---------------------------------------------------------------------------
# closed-form classes
# ---------------------------------------------------------------------------


def logan_class(g: int, n: int, d: Iterable[int]) -> DivisorClass:
    """Pointed Brill-Noether divisor class for nonnegative d with sum(d) = g.

    -lambda + sum binom(d_j+1, 2) psi_j - 0*delta_0
    - sum binom(|d_S - i| + 1, 2) delta_{i:S}.
    """
    d = tuple(int(x) for x in d)
    if len(d) != n:
        raise BadSignature("expected %d weights, got %d" % (n, len(d)))
    if any(x < 0 for x in d):
        raise BadSignature("weights must be nonnegative")
    if sum(d) != g:
        raise BadSignature("weights must sum to g=%d, got %d" % (g, sum(d)))
    table, weights = weight_table(g, n, d)
    for i, counts in table.keys():
        d_S = sum(w * c for w, c in zip(weights, counts))
        table.put((i, counts), -comb(abs(d_S - i) + 1, 2))
    return DivisorClass(g, n, -1, [comb(w + 1, 2) for w in weights], 0, orbits=table)


def qg_class(g: int) -> DivisorClass:
    """Class of the signature-(1^{2g-2}, 2^{g-1}) stratum divisor on Mbar_{g,2g-2}.

    psi coefficients 3*2^(2g-3), lambda -4^g, delta_0 4^(g-2); a boundary
    class with both sides marked gets -2^(2g-3)(|S|-2i)(|S|-2i+2) (the
    expression is invariant under (i,S) -> (g-i,S^c), so either side may
    name the orbit), and delta_{i:empty} gets -2^(2(g-i)-1)(4^i(i-1)+2)i.
    """
    if g < 2:
        raise WrongGenus("stratum divisor needs g >= 2")
    n = 2 * g - 2
    # lazy weights: the table refuses a huge n before reading them, and
    # itertools.repeat(1, n) would overflow first
    table = weight_table(g, n, (1 for _ in range(n)))[0]
    # in integers, one Fraction per key (in put); the corner's product is even
    for i, (s,) in table.keys():
        if s in (0, n):
            i0 = i if s == 0 else g - i  # genus of the unmarked side
            c = -((4**i0 * (i0 - 1) + 2) * i0 << 2 * (g - i0)) // 2
        else:
            x = s - 2 * i
            c = -(x * (x + 2)) << 2 * g - 3
        table.put((i, (s,)), c)
    return DivisorClass(g, n, -(4**g), [3 << 2 * g - 3], 4 ** (g - 2), orbits=table)


class QdInput(NamedTuple("_QdInput", [("g", int), ("n", int), ("d", tuple[int, ...])])):
    """Signature data (d_1,...,d_n, 2^(g-1)) with sum(d) = 2g-2."""

    __slots__ = ()

    def __new__(cls, g: int, n: int, d: Iterable[int]):
        d = tuple(int(x) for x in d)
        if g < 2:
            raise BadSignature("need g >= 2")
        if n < 1 or len(d) != n:
            raise BadSignature("expected %d entries, got %d" % (n, len(d)))
        if sum(d) != 2 * g - 2:
            raise BadSignature("entries must sum to 2g-2=%d, got %d" % (2 * g - 2, sum(d)))
        return super().__new__(cls, g, n, d)


def qd_class(q: QdInput) -> DivisorClass:
    """Class of the stratum divisor with signature (d, 2^(g-1)) on Mbar_{g,n}."""
    g, n, d = q.g, q.n, q.d
    table, weights = weight_table(g, n, d)
    sizes = table.sizes
    # the groups of odd-or-negative labels
    bad = [k for k, w in enumerate(weights) if w % 2 or w < 0]
    held = itemgetter(*bad) if bad else None
    top = 4 ** (g - 1)  # 2^(2g-3) over the denominator 2
    # each coefficient in integers over one denominator, one Fraction per key
    for key in table.keys():
        i, counts = key
        d1 = sum(map(mul, weights, counts))
        x = d1 - 2 * i
        if not bad:
            if x < 0:  # for even d then x <= -2, and the other side has x' = -x - 2 >= 0
                i, x = g - i, -x - 2
            num, den = -(x + 2) * (4 * (4**i - 1) + x * (4**g - 1)), 8
        else:
            # the side holding every odd-or-negative label, if one does
            side = i if held(counts) == held(sizes) else None
            if not any(map(counts.__getitem__, bad)):
                side, x = g - i, -x - 2
            # x(x + 2) is invariant under swapping the representative
            num, den = -top * x * (x + 2), 2
            if side is not None and x >= 0:
                num = -(x + 2) * (top * x + 4**side)
        table.put(key, Fraction(num, den))
    if not bad:
        lam = -(4**g - 1)
        psi = [Fraction((4**g - 1) * w * (w + 2), 8) for w in weights]
    else:
        lam = -(4**g)
        psi = [w * (w + 2) << 2 * g - 3 for w in weights]
    return DivisorClass(g, n, lam, psi, 4 ** (g - 2), orbits=table)


def weierstrass_class() -> DivisorClass:
    """3*psi - lambda - delta_{1:{1}} on Mbar_{2,1}."""
    return DivisorClass(
        2,
        1,
        lam=-1,
        psi=(3,),
        boundary={canonicalize_index(2, 1, 1, {1}): Fraction(-1)},
    )


# ---------------------------------------------------------------------------
# gluing and forgetful pullbacks
# ---------------------------------------------------------------------------


def pullback_attach(d: DivisorClass, h: int, attach_label: int = 1) -> DivisorClass:
    """Pull back along gluing a fixed genus-h curve at marked point j.

    The map replaces marked point j of a genus-(g) curve by a node to a
    fixed two-pointed genus-h curve, landing in genus g+h.  On classes:
    lambda and delta_0 are preserved, psi_j dies, delta_{h:{j}} becomes
    -psi_j, delta_{i:S} with j in S drops for i < h and shifts to
    delta_{i-h:S} otherwise.

    In orbit form, j is split off its group, which halves each orbit
    into the part whose S holds j and the part whose S^c does; each half
    maps through the side holding j.  The halves of a self-mirror orbit
    name the same divisors, so only one is mapped.
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
    g, src = d.g, d.orbits
    home = next(k for k, labels in enumerate(src.groups) if j in labels)
    # the groups with j split off as a last part; `order` lists the nonempty
    # parts by smallest label, which is the target's group order
    parts = list(src.groups) + [(j,)]
    parts[home] = tuple(p for p in parts[home] if p != j)
    order = sorted((k for k, labels in enumerate(parts) if labels), key=lambda k: parts[k][0])
    table = OrbitTable(target_g, d.n, [parts[k] for k in order])
    sizes = [len(labels) for labels in parts]

    def terms():
        for (i, counts), c in src.coeffs.items():
            x = counts[home]
            if x and i >= h:  # S holds j
                side = list(counts) + [1]
                side[home] -= 1
                yield i - h, tuple(map(side.__getitem__, order)), c
            if x < src.sizes[home] and g - i >= h and not self_mirror(g, src.sizes, i, counts):
                side = list(map(sub, sizes, counts + (0,)))  # S^c holds j
                yield g - i - h, tuple(map(side.__getitem__, order)), c

    psi = d.group_psi + (0,)  # psi_j dies
    return DivisorClass.from_terms(table, d.lam, [psi[k] for k in order], d.delta0, terms())


def forget_pullback(d: DivisorClass) -> DivisorClass:
    """Pull back along forgetting a new marked point n+1.

    lambda and delta_0 are preserved, psi_j becomes psi_j -
    delta_{0:{j,n+1}}, and delta_{i:S} becomes delta_{i:S} +
    delta_{i:S+{n+1}}.

    In orbit form, n+1 is a group of its own, and an orbit (i, counts)
    maps to (i, counts + (0,)) and (i, counts + (1,)): one orbit when
    (i, counts) is self-mirror.
    """
    g, src = d.g, d.orbits
    table = OrbitTable(g, d.n + 1, src.groups + ((d.n + 1,),))

    def terms():
        for k, p in enumerate(d.group_psi):
            pair_k = [0] * len(table.groups)
            pair_k[k] = pair_k[-1] = 1
            yield 0, tuple(pair_k), -p
        for (i, counts), c in src.coeffs.items():
            yield i, counts + (0,), c
            if not self_mirror(g, src.sizes, i, counts):
                yield i, counts + (1,), c

    return DivisorClass.from_terms(table, d.lam, d.group_psi + (0,), d.delta0, terms())


def weierstrass_pullback(g: int) -> DivisorClass:
    """Pull qg_class(g) back to Mbar_{2,1} along attaching a fixed curve.

    A fixed genus-(g-2) curve carrying all 2g-2 marked points is glued to
    the moving one-pointed genus-2 curve.  All psi classes of the fixed
    points die, lambda and delta_0 survive, the always-present node turns
    delta_{2:empty} into -psi, and a genus-1 tail splitting off the
    moving side turns delta_{1:empty} into delta_{1:{1}}.  Every other
    boundary class misses the image family.
    """
    if g < 3:
        raise WrongGenus("the attaching construction needs g >= 3")
    q = qg_class(g)
    c2 = q.boundary_coeff(2, ())
    c1 = q.boundary_coeff(1, ())
    return DivisorClass(
        2,
        1,
        lam=q.lam,
        psi=(-c2,),
        delta0=q.delta0,
        boundary={canonicalize_index(2, 1, 1, {1}): c1},
    )


def weierstrass_check(g: int) -> bool:
    """Does the pullback of qg_class(g) equal 6*4^(g-2) times the
    Weierstrass divisor, modulo the genus-2 relation?"""
    target = weierstrass_class().scale(6 * 4 ** (g - 2))
    return weierstrass_pullback(g).equals(target)


# ---------------------------------------------------------------------------
# coefficient solver
# ---------------------------------------------------------------------------


# Most (i, s) slots, (g + 1)(2g - 1), the solver takes: g = 353 (249,570
# slots): 747,289 integer rows (249,215 equations) of 2,987,720 entries and
# 618,807 row eliminations took 17.7-19.2 s and 340 MB peak on a 2-vCPU VM
# (Python 3.11) whose speed drifts about twofold between sessions.
_MAX_SOLVE_SLOTS = 250_000


def _slot(g: int, n: int, i: int, s: int):
    """Resolve the size-level coefficient slot c_{i:s} of delta_{i:S}, |S| = s.

    Returns (sign, unknown): the slot is sign times the unknown, which is
    the canonical orbit key flattened to (i, s) or "psi" for c_psi.
    """
    if not (0 <= i <= g and 0 <= s <= n):
        raise InvalidIndex("slot (i=%d, s=%d) out of range" % (i, s))
    if 2 * i > g or (2 * i == g and 2 * s > n):
        i, s = g - i, n - s  # the orbit key names the mirror, as in _row_terms
    # delta_{0:{j}} = -psi_j, delta_{0:{}} = 0
    return (1, (i, s)) if i or s > 1 else (-s, "psi")


def _row_terms(g: int, family: str, i: int, s: int):
    """Test curve family_{i:s}, 0 <= i <= g, paired with the unknown class,
    as (unknown (see _slot), integer) terms: block size x psi on c_psi, then
    orbit size x c per boundary term of _curve_terms on its _slot."""
    blocks, boundary, psi = _curve_terms(family, g, i, s)
    sizes = tuple(map(len, blocks))
    n = 2 * g - 2
    yield "psi", sum(map(mul, sizes, psi))
    for j, counts, c in boundary:
        size, t = prod(map(comb, sizes, counts)), sum(counts)
        if not size:  # checked first: an empty orbit may name a slot past n
            continue
        if t > n:
            raise InvalidIndex("slot (i=%d, s=%d) out of range" % (j, t))
        if 2 * j == g and all(2 * x == z for z, x in zip(sizes, counts)):
            size //= 2  # a self-mirror orbit names each divisor twice
        if 2 * j > g or (2 * j == g and 2 * t > n):
            j, t = g - j, n - t  # the orbit key names the mirror
        if j or t > 1:
            yield (j, t), size * c
        else:  # delta_{0:{x}} = -psi_x, delta_{0:{}} = 0
            yield "psi", -t * size * c


def _curve_row(g: int, family: str, i: int, s: int) -> dict:
    """_row_terms summed per unknown, as {unknown: nonzero integer}."""
    row = {}
    for key, x in _row_terms(g, family, i, s):
        row[key] = row.get(key, 0) + x
    return {key: x for key, x in row.items() if x}


def _pairings(g: int, slots: Mapping, families=FAMILIES):
    """(spec, numerator, den) per admissible test curve of these families:
    its _row_terms dotted, in integers, with the values {unknown: value} of a
    symmetric class over their common denominator den (a missing unknown is 0)."""
    den = lcm(*(v.denominator for v in slots.values()))
    get = {key: v.numerator * (den // v.denominator) for key, v in slots.items()}.get
    for spec in valid_specs(g, families):
        yield spec, sum(x * get(key, 0) for key, x in _row_terms(g, spec.family, spec.i, spec.s)), den


class QgSolution(NamedTuple):
    """Exact solution of the test-curve coefficient system at genus g."""

    g: int
    c_psi: Fraction
    coefficients: Mapping[tuple[int, int], Fraction]
    free: tuple[tuple[int, int], ...]
    rank: int
    n_unknowns: int
    n_equations: int
    excluded: str
    residuals: Mapping[tuple[str, int, int], Fraction]

    def get(self, i: int, s: int) -> Optional[Fraction]:
        """Solved coefficient of delta_{i:S} with |S| = s, None if free."""
        sign, key = _slot(self.g, 2 * self.g - 2, i, s)
        return sign * self.c_psi if key == "psi" else self.coefficients.get(key)

    def to_jsonable(self) -> dict:
        return {
            "g": self.g,
            "c_psi": format_rational(self.c_psi),
            "coefficients": [
                {"i": i, "s": s, "c": format_rational(c)}
                for (i, s), c in sorted(self.coefficients.items())
            ],
            "free": [{"i": i, "s": s} for (i, s) in self.free],
            "rank": self.rank,
            "unknowns": self.n_unknowns,
            "equations": self.n_equations,
            "excluded": self.excluded,
            "residuals": [
                {
                    "family": fam,
                    "i": i,
                    "s": s,
                    "residual": format_rational(r),
                }
                for (fam, i, s), r in sorted(self.residuals.items())
            ],
        }

    def table(self) -> str:
        lines = ["c_psi = %s" % format_rational(self.c_psi)]
        for (i, s), c in sorted(self.coefficients.items()):
            lines.append("c_{%d:%d} = %s" % (i, s, format_rational(c)))
        for i, s in self.free:
            lines.append("c_{%d:%d} free (not determined by the system)" % (i, s))
        lines.append("rank %d, %d unknowns, %d equations; excluded: %s"
                     % (self.rank, self.n_unknowns, self.n_equations, self.excluded))
        for (fam, i, s), r in sorted(self.residuals.items()):
            if r:
                lines.append("cross-check %s_{%d:%d} residual %s"
                             % (fam, i, s, format_rational(r)))
        return "\n".join(lines)


def _sub_scaled(row: dict, other: dict, f, a: int = 1) -> None:
    """row = a * row - f * other, dropping the entries that cancel."""
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in other.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _primitive(row: dict) -> dict:
    """The integer row divided by the gcd of its entries, in place."""
    k = gcd(*row.values())
    if k > 1:
        for j in row:
            row[j] //= k
    return row


def _solve_sparse(rows: list[dict], rhs: list, n_cols: int):
    """Solve the sparse rows {column: nonzero rational} = rhs exactly; the
    rows are consumed.  Returns (pivot columns, values, pinned columns).

    The right-hand side is stored, negated, in column n_cols, whose unknown
    is 1, and each row is scaled to integers with no common factor.
    Fraction-free forward elimination: rows wait in a bucket per leading
    column.  Column by column, the sparsest row p of the bucket becomes the
    pivot, and every other row r there becomes p[c] r - r[c] p over its
    content, a multiple of the rational reduction with the same support, and
    moves to the bucket of its new leading column; a row left with only
    column n_cols reads 0 = nonzero and raises SingularSystem.
    Back-substitution, in Fractions, sets the free (pivotless) columns to
    zero and writes each value in terms of them and of the constant: a
    value is pinned, that is fixed by the system, exactly when no free
    column is left in it.
    """
    buckets = [[] for _ in range(n_cols + 1)]
    for row, b in zip(rows, rhs):
        if b:
            row[n_cols] = -b
        if row:
            den = lcm(*(x.denominator for x in row.values()))
            for j, x in row.items():
                row[j] = x.numerator * (den // x.denominator)
            buckets[min(_primitive(row))].append(row)
    pivots = {}
    for c in range(n_cols):
        if buckets[c]:
            prow = pivots[c] = min(buckets[c], key=len)
            for row in buckets[c]:
                if row is not prow:
                    _sub_scaled(row, prow, row[c], prow[c])
                    if row:
                        buckets[min(_primitive(row))].append(row)
    if buckets[n_cols]:
        raise SingularSystem("chosen equations are inconsistent")

    exprs = {}  # pivot column -> its value as {free column or n_cols: coefficient}
    for c in reversed(pivots):
        prow = pivots[c]
        expr = exprs[c] = {}
        for j, x in prow.items():
            if j != c:
                _sub_scaled(expr, exprs.get(j, {j: 1}), Fraction(x, prow[c]))
    values = [exprs.get(c, {}).get(n_cols, Fraction(0)) for c in range(n_cols)]
    return list(pivots), values, {c for c, expr in exprs.items() if expr.keys() <= {n_cols}}


def solve_qg_coefficients(g: int) -> QgSolution:
    """Recover the qg_class coefficients from the oracle intersection data.

    Unknowns are c_psi and one coefficient c_{i:s} per boundary class
    (coefficients depend only on the genus part and |S|), with the
    conventions c_{0:1} = -c_psi and c_{0:0} = 0.  A row is a test curve's
    functional, from the same terms that build curve_functional, paired
    with the unknown symmetric class.  Each equation sets a row equal to
    its oracle: the family-A rows on the grid i in [0,g], s in [1,2g-2]
    except the s = 2g-3 column (where the printed data is inconsistent -
    see the audit), and the family-B rows at s = 0, which carry the
    delta_{i:empty} information the trimmed A-grid loses.  The family-B
    and family-C rows over the whole admissible range are evaluated
    against the solution and reported as residuals, pairing minus oracle.
    At g = 2 the Picard relation leaves a one-dimensional solution space;
    the affected slots are reported as free rather than guessed.
    """
    if g < 2:
        raise WrongGenus("solver needs g >= 2")
    n = 2 * g - 2
    if (g + 1) * (n + 1) > _MAX_SOLVE_SLOTS:
        raise BudgetExceeded(
            "the coefficient system at g=%d has more than the limit of %d (i, s) slots"
            % (g, _MAX_SOLVE_SLOTS)
        )
    keys = sorted({_slot(g, n, i, s)[1] for i in range(g + 1) for s in range(n + 1)} - {"psi"})
    col = {key: k for k, key in enumerate(keys)}
    psi = col["psi"] = len(keys)  # c_psi is the last column
    n_cols = psi + 1

    specs = [("A", i, s) for i in range(g + 1) for s in range(1, n + 1) if s != 2 * g - 3]
    specs += [("B", i, 0) for i in range(1, g + 1)]
    rows = [{col[key]: x for key, x in _curve_row(g, *spec).items()} for spec in specs]
    rhs = [a_dot_qg_formula(g, i, s) if fam == "A" else oracle(TestCurveSpec("B", g, i, 0))
           for fam, i, s in specs]
    pivots, values, pinned = _solve_sparse(rows, rhs, n_cols)
    if psi not in pinned:
        raise SingularSystem("c_psi is not determined at g=%d" % g)
    c_psi = values[psi]
    coefficients = {key: values[k] for k, key in enumerate(keys) if k in pinned}
    free = tuple(key for k, key in enumerate(keys) if k not in pinned)
    slots = dict(zip(col, values))  # col lists the keys in column order
    residuals = {(spec.family, spec.i, spec.s): Fraction(x - oracle(spec) * den, den)
                 for spec, x, den in _pairings(g, slots, "BC")}

    return QgSolution(
        g=g,
        c_psi=c_psi,
        coefficients=coefficients,
        free=free,
        rank=len(pivots),
        n_unknowns=n_cols,
        n_equations=len(specs),
        excluded="family-A rows with s = 2g-3 = %d" % (2 * g - 3),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


class AuditEntry(NamedTuple):
    spec: TestCurveSpec
    pairing: Fraction
    oracle: int
    match: bool


class AuditReport(NamedTuple):
    g: int
    entries: tuple[AuditEntry, ...]

    @property
    def mismatches(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if not e.match)

    @property
    def all_match(self) -> bool:
        return not self.mismatches

    def to_jsonable(self) -> dict:
        return {
            "g": self.g,
            "entries": [
                {
                    "family": e.spec.family,
                    "i": e.spec.i,
                    "s": e.spec.s,
                    "pairing": format_rational(e.pairing),
                    "oracle": e.oracle,
                    "match": e.match,
                }
                for e in self.entries
            ],
            "total": len(self.entries),
            "matched": len(self.entries) - len(self.mismatches),
            "mismatched": len(self.mismatches),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    def table(self) -> str:
        lines = ["family  i  s  pairing      oracle       match"]
        for e in self.entries:
            lines.append(
                "%-6s %2d %2d  %-12s %-12d %s"
                % (
                    e.spec.family,
                    e.spec.i,
                    e.spec.s,
                    format_rational(e.pairing),
                    e.oracle,
                    "ok" if e.match else "MISMATCH",
                )
            )
        lines.append(
            "%d entries, %d matched, %d mismatched"
            % (
                len(self.entries),
                len(self.entries) - len(self.mismatches),
                len(self.mismatches),
            )
        )
        return "\n".join(lines)


# Most (family, i, s) specs, 3(g + 1)(2g - 1), valid_specs may try for audit:
# g = 330 (654,387): 653,055 curves of 2,610,885 row entries took 10.2-11.1 s
# and 342 MB peak in the session that timed the largest solve at 17.7-19.2 s.
_MAX_AUDIT_SPECS = 655_000


def audit(g: int) -> AuditReport:
    """Pair every admissible test curve against qg_class(g), as its _row_terms
    dotted with the symmetric class's c_psi and c_{i:s}, and compare with its
    oracle.  Mismatches are data, never an error.  Past g = 330
    (_MAX_AUDIT_SPECS) it raises BudgetExceeded before pairing any."""
    if g >= 2 and len(FAMILIES) * (g + 1) * (2 * g - 1) > _MAX_AUDIT_SPECS:
        raise BudgetExceeded(
            "the audit at g=%d would try more than the limit of %d test curves"
            % (g, _MAX_AUDIT_SPECS)
        )
    cls = qg_class(g)
    slots = {(i, s): c for (i, (s,)), c in cls.orbits.coeffs.items()}
    slots["psi"] = cls.group_psi[0]
    entries = []
    for spec, x, den in _pairings(g, slots):
        orc = oracle(spec)
        entries.append(AuditEntry(spec, Fraction(x, den), orc, x == orc * den))
    return AuditReport(g, tuple(entries))
