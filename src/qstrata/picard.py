"""Exact arithmetic in the rational Picard group of Mbar_{g,n}.

The divisor basis is the Hodge class lambda, the cotangent classes
psi_1, ..., psi_n, the irreducible boundary class delta_0, and the
separating boundary classes delta_{i:S} for 0 <= i <= g and
S a subset of {1, ..., n}.  A separating class names the locus of curves
with a node splitting off a genus-i piece carrying exactly the marked
points in S, so delta_{i:S} = delta_{g-i:S^c} and an index is stored in a
canonical form.  Genus-0 pieces need at least two marked points besides
the node, which rules out (0, S) with |S| < 2 and its mirror (g, S) with
|S| > n - 2.

Every divisor class and curve functional keeps its separating boundary
part in one form, an OrbitTable: the labels form groups, and one
coefficient is stored per orbit of the label permutations that preserve
the groups, named by the genus part i and how many labels of each group S
holds; psi is stored once per group too.  A closed-form class groups
labels of equal weight, a test-curve functional groups them into its own
blocks of consecutive labels, and a pullback adds or splits off one
group.  A dense {BoundaryIndex: coefficient}, given as `boundary=` or
read from JSON, takes one input route: its labels are grouped by what a
label symmetry must preserve (psi_j and the delta_{0:{j,k}} row), and the
grouping is kept only when every orbit it meets is checked to be full and
constant; otherwise each label is a group of its own.  Terms given per
orbit go through one router, from_terms.

When each group of a functional lies inside one group of a class, pairing
them is one lookup per orbit key and per group, summed over integer
numerators; equal label groups likewise let equals compare table
against table.  JSON and the CLI table print from one sorted walk of the
table's divisors, which formats each orbit's coefficient once.  The
dense view, built from the same walk on first access to `boundary` and
cached, serves only add, sub and scale and the pairing of a functional
whose groups straddle the class's.  Walking more than
_MAX_DENSE_ENTRIES divisors is refused with BudgetExceeded before
anything is allocated; so is filling a class table with more orbit keys
than that, and so is any space Mbar_{g,n} with more labels than that.

All coefficients are fractions.Fraction; there is no floating point in
this module.  Values are immutable after construction and all operations
are pure, so everything here is safe to share between threads.  The
writes after construction are the cached views (the dense boundary, the
per-label psi and a table's label index): threads that race to build one
build equal values, and each stores a complete one with a single
assignment.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, product, repeat
from math import comb, lcm, prod
from operator import lt, sub
from typing import Iterable, Mapping, NamedTuple

from .errors import BudgetExceeded, DimensionMismatch, DomainError, InvalidIndex, WrongGenus

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    # the exact-type test first: isinstance against Fraction is an ABC check
    if type(x) is Fraction:
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % (x,))


def _json_int(x) -> int:
    if type(x) is not int:  # bool is an int subclass, float a silent truncation
        raise TypeError("expected an integer, got %r" % (x,))
    return x


def format_rational(x: Rational) -> str:
    x = _frac(x)
    return "%d/%d" % (x.numerator, x.denominator)


# a class file repeats few coefficients many times: parsing each string once
# also makes equal coefficients one object, which _grouped compares first
@lru_cache(maxsize=1024)
def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise TypeError("expected a rational as a string such as \"3/2\", got %r" % (s,))
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        if not int(q):
            raise ValueError("zero denominator in %r" % s)
        return Fraction(int(p), int(q))
    return Fraction(int(s))


class BoundaryIndex(NamedTuple):
    """Canonical name of a separating boundary divisor.

    The representative with the smaller genus part is stored; on a tie
    (i = g - i) the side containing marked point 1 is kept, which in
    particular rewrites (i, {}) to (i, {1..n}).  A named tuple, so it
    orders, hashes and compares equal as the plain tuple (i, points).
    """

    i: int
    points: tuple[int, ...]  # sorted marked-point labels

    @property
    def point_set(self) -> frozenset[int]:
        return frozenset(self.points)

    def __str__(self) -> str:
        return _index_name(*self)


def _index_name(i: int, points) -> str:
    return "delta_{%d:{%s}}" % (i, ",".join(map(str, points)))


# Most boundary entries a class may list densely, most orbit keys a table
# may walk (with all weights distinct every orbit is one divisor), and
# most labels a space may have.
_MAX_DENSE_ENTRIES = 1_000_000


def _check_size(g: int, n: int, size: int, what: str) -> None:
    if size > _MAX_DENSE_ENTRIES:
        raise BudgetExceeded(
            "a class on Mbar_{%d,%d} would need %d %s, more than the limit of %d"
            % (g, n, size, what, _MAX_DENSE_ENTRIES)
        )


def _check_gn(g: int, n: int) -> None:
    if g < 2:
        raise InvalidIndex("genus must be >= 2, got g=%s" % (g,))
    if n < 1:
        raise InvalidIndex("need n >= 1 marked points, got n=%s" % (n,))
    # every class and functional on Mbar_{g,n} lists n psi coefficients
    _check_size(g, n, n, "psi coefficients")


@lru_cache(maxsize=64)
def _labels(n: int) -> frozenset[int]:
    """The marked-point labels {1..n}."""
    return frozenset(range(1, n + 1))


_INT = frozenset({int})


def _class_is_valid(g: int, n: int, i: int, size: int) -> bool:
    # A genus-0 side must carry >= 2 marked points; stated on both
    # representatives: i = 0 forces |S| >= 2, i = g forces |S| <= n - 2.
    if i == 0 and size < 2:
        return False
    if i == g and size > n - 2:
        return False
    return True


def _keeps_side(g: int, i: int, S) -> bool:
    """Is (i, S) the canonical side of delta_{i:S}: the smaller genus part,
    on a tie the side carrying label 1?"""
    return i < g - i or (2 * i == g and 1 in S)


def canonicalize_index(g: int, n: int, i: int, S: Iterable[int]) -> BoundaryIndex:
    """Return the canonical representative of delta_{i:S} on Mbar_{g,n}.

    Raises InvalidIndex when neither (i, S) nor (g-i, S^c) names a
    boundary divisor, or when S repeats a label.  An (i, S) already in
    canonical form, S a strictly increasing run of int labels in 1..n, is
    its own index; anything else takes the route through boundary_term.
    """
    points = tuple(S)
    if type(i) is int and 0 <= i and set(map(type, points)) <= _INT and all(map(lt, points, points[1:])):
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
            "(i=%d, S=%s) is not a boundary divisor on Mbar_{%d,%d}"
            % (i, sorted(S), g, n)
        )
    return idx


def boundary_term(g: int, n: int, i: int, S: Iterable[int]):
    """Classify the formal symbol delta_{i:S} for term accumulation.

    Returns ("delta", BoundaryIndex) for an actual boundary divisor,
    ("psi", j) for the degenerate singleton case delta_{0:{j}} = -psi_j,
    and ("zero", None) for delta_{0:{}} which is no divisor at all.
    Anything else raises InvalidIndex.
    """
    _check_gn(g, n)
    S = frozenset(S)
    if not 0 <= i <= g:
        raise InvalidIndex("genus part i=%s outside [0, %s]" % (i, g))
    labels = _labels(n)
    # a label is an int in 1..n; 2.0, Fraction(2) and True are equal to
    # one, so the types are checked besides the values
    if not (S <= labels and set(map(type, S)) <= _INT):
        bad = next(p for p in S if type(p) is not int or not 1 <= p <= n)
        raise InvalidIndex("marked point %r is not one of the labels 1..%s" % (bad, n))
    if _class_is_valid(g, n, i, len(S)):
        if _keeps_side(g, i, S):
            return ("delta", BoundaryIndex(i, tuple(sorted(S))))
        return ("delta", BoundaryIndex(g - i, tuple(sorted(labels - S))))
    rest = n - len(S)
    if i == 0 and len(S) == 1:
        return ("psi", next(iter(S)))
    if i == g and rest == 1:
        return ("psi", next(iter(labels - S)))
    if (i == 0 and not S) or (i == g and not rest):
        return ("zero", None)
    raise InvalidIndex(
        "(i=%d, S=%s) names no boundary divisor on Mbar_{%d,%d}" % (i, sorted(S), g, n)
    )


def canonical_boundary_indices(g: int, n: int) -> list[BoundaryIndex]:
    """All separating boundary classes on Mbar_{g,n}, each exactly once."""
    _check_gn(g, n)
    labels = range(1, n + 1)
    out = []
    for i in range(0, g // 2 + 1):
        for size in range(0, n + 1):
            if not _class_is_valid(g, n, i, size):
                continue
            for S in combinations(labels, size):
                if 2 * i == g and 1 not in S:
                    continue  # the mirror representative carries label 1
                out.append(BoundaryIndex(i, S))
    return out


def orbit_key(g: int, sizes: tuple[int, ...], i: int, counts: Iterable[int]):
    """Canonical name of the orbit of delta_{i:S}, where counts[k] is the
    number of labels of group k in S and sizes[k] the size of group k:
    the smaller of (i, counts) and its mirror (g-i, sizes - counts)."""
    counts = tuple(counts)
    if 2 * i < g:
        return (i, counts)
    mirror = (g - i, tuple(map(sub, sizes, counts)))
    return mirror if 2 * i > g else min((i, counts), mirror)


def self_mirror(g: int, sizes: tuple[int, ...], i: int, counts: tuple[int, ...]) -> bool:
    """Is the orbit (i, counts) its own mirror, so that S and S^c lie in it
    and name one divisor?"""
    return 2 * i == g and all(2 * c == z for z, c in zip(sizes, counts))


def orbit_size(g: int, sizes: tuple[int, ...], i: int, counts: tuple[int, ...]) -> int:
    """Number of boundary divisors in the orbit (i, counts); 0 when a
    count exceeds its group."""
    size = prod(map(comb, sizes, counts))
    return size // 2 if self_mirror(g, sizes, i, counts) else size


class OrbitTable:
    """Separating boundary coefficients that are constant on label orbits.

    The labels 1..n are split into groups, ordered by their smallest
    label.  A closed-form class table (the constructor) groups labels of
    equal weight, and `weights[k]` is the weight of group k; every other
    table (`of_groups`) takes its groups as given and has no weights.  A
    coefficient is stored per canonical orbit key (see orbit_key) that
    names a boundary divisor; zero coefficients are not stored.  Fill the
    table with `put` before handing it to a DivisorClass or
    CurveFunctional, which never changes it afterwards.
    """

    __slots__ = ("g", "n", "groups", "weights", "sizes", "coeffs", "_runs")

    def __init__(self, g: int, n: int, weights: Iterable[int]):
        _check_gn(g, n)
        # every grouping has at least (g + 1)(n + 1) orbit keys, and a class
        # table walks them all: refuse before reading the n weights
        _check_size(g, n, (g + 1) * (n + 1), "orbit keys")
        weights = tuple(weights)
        if len(weights) != n:
            raise DimensionMismatch("expected %d label weights" % n)
        first = {}
        for j, w in enumerate(weights, start=1):
            first.setdefault(w, []).append(j)
        self._setup(g, n, tuple(tuple(labels) for labels in first.values()))
        self.weights = tuple(first)

    @classmethod
    def of_groups(cls, g: int, n: int, groups: Iterable) -> "OrbitTable":
        """A table whose groups are the given nonempty sorted label
        sequences, ordered by smallest label and covering 1..n.  Its keys
        are put by hand, so it is not refused for the (g + 1)(n + 1) keys a
        class table walks."""
        _check_gn(g, n)
        self = cls.__new__(cls)
        self._setup(g, n, tuple(groups))
        self.weights = None
        return self

    def _setup(self, g, n, groups) -> None:
        self.g = g
        self.n = n
        self.groups = groups
        self.sizes = tuple(map(len, groups))
        self.coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._runs = None

    def keys(self):
        """Every canonical orbit key that names a boundary divisor."""
        g, sizes = self.g, self.sizes
        _check_size(g, self.n, (g + 1) * prod(z + 1 for z in sizes), "orbit keys")
        for i in range(g // 2 + 1):  # a key names the side with i <= g - i
            for counts in product(*(range(z + 1) for z in sizes)):
                key = (i, counts)
                if _class_is_valid(g, self.n, i, sum(counts)) and orbit_key(g, sizes, *key) == key:
                    yield key

    def put(self, key, c: Rational) -> None:
        c = _frac(c)
        if c:
            self.coeffs[key] = c

    def _label_runs(self):
        """(group of each label, last label of the run of labels in the
        same group that starts at each label), both indexed by label and
        built on first use."""
        if self._runs is None:
            n = self.n
            group_of = [-1] * (n + 1)
            for k, labels in enumerate(self.groups):
                for j in labels:
                    group_of[j] = k
            run_end = list(range(n + 1))
            for j in range(n - 1, 0, -1):
                if group_of[j + 1] == group_of[j]:
                    run_end[j] = run_end[j + 1]
            self._runs = (group_of, run_end)
        return self._runs

    def group_map(self, blocks) -> tuple[int, ...] | None:
        """The group holding each block of sorted labels, or None when the
        labels from some block's first to its last are not all in one
        group (for a run of consecutive labels: when it straddles groups)."""
        group_of, run_end = self._label_runs()
        if any(run_end[blk[0]] < blk[-1] for blk in blocks):
            return None
        return tuple(group_of[blk[0]] for blk in blocks)

    def get(self, idx: BoundaryIndex) -> Fraction:
        group_of = self._label_runs()[0]
        counts = [0] * len(self.sizes)
        for p in idx.points:
            counts[group_of[p]] += 1
        return self.coeffs.get(orbit_key(self.g, self.sizes, idx.i, counts), Fraction(0))

    def dense_size(self) -> int:
        """Number of entries of the dense view, counted without building it."""
        if len(self.groups) == self.n:
            return len(self.coeffs)  # one label per group: one divisor per orbit
        return sum(orbit_size(self.g, self.sizes, i, counts) for i, counts in self.coeffs)

    def _divisors(self):
        """The one walk of the divisors: (i, sides, c) per orbit, sides the
        sorted canonical side S of each divisor, once.  A key has i <= g - i,
        so only a tie needs the side holding label 1, and a self-mirror
        orbit, naming each divisor as S and as S^c, drops the second name."""
        _check_size(self.g, self.n, self.dense_size(), "dense boundary entries")
        g, n, groups = self.g, self.n, self.groups
        labels, points = _labels(n), range(1, n + 1)
        for (i, counts), c in self.coeffs.items():
            if len(groups) == n:
                # one label per group: counts marks the labels of S
                sides = (tuple(compress(points, counts)),)
            elif len(groups) == 1:
                sides = combinations(groups[0], counts[0])  # sorted, as the group is
            else:
                sides = (tuple(sorted(chain.from_iterable(parts)))
                         for parts in product(*map(combinations, groups, counts)))
            if 2 * i == g:
                if self_mirror(g, self.sizes, i, counts):
                    sides = [S for S in sides if S[0] == 1]
                else:
                    sides = [S if S and S[0] == 1 else tuple(sorted(labels.difference(S))) for S in sides]
            yield i, sides, c

    def dense(self) -> dict[BoundaryIndex, Fraction]:
        return {BoundaryIndex(i, S): c for i, sides, c in self._divisors() for S in sides}

    def _rendered(self) -> list[tuple[int, tuple[int, ...], str]]:
        """Every divisor as sorted (i, S, "p/q"), formatted once per orbit."""
        rows = []
        for i, sides, c in self._divisors():
            rows += zip(repeat(i), sides, repeat(format_rational(c)))
        rows.sort()
        return rows


def _dot(terms) -> Fraction:
    """Exact sum of m * a * b over (m, a, b), m an int and a, b rationals:
    an integer numerator over the common denominator, made into one
    Fraction at the end."""
    num, den = 0, 1
    for m, a, b in terms:
        if a and b:
            p, q = a.as_integer_ratio()
            r, t = b.as_integer_ratio()
            q *= t
            if q == den:
                num += m * p * r
            else:
                common = lcm(den, q)
                num = num * (common // den) + m * p * r * (common // q)
                den = common
    return Fraction(num, den)


def _grouped(g: int, n: int, groups, total) -> OrbitTable | None:
    """A table over these label groups holding the dense entries `total`
    ((canonical BoundaryIndex, nonzero coefficient), each index once), or
    None when some orbit it meets has two coefficients or misses a
    divisor."""
    table = OrbitTable.of_groups(g, n, groups)
    group_of, sizes, coeffs = table._label_runs()[0], table.sizes, table.coeffs
    for (i, S), c in total:
        if len(sizes) == 1:
            counts = (len(S),)
        else:
            counts = [0] * len(sizes)
            for p in S:
                counts[group_of[p]] += 1
        old = coeffs.setdefault(orbit_key(g, sizes, i, counts), c)
        if old is not c and old != c:
            return None
    # no orbit holds more entries than divisors: equal totals mean that
    # every orbit met is full
    return table if table.dense_size() == len(total) else None


def _from_dense(g: int, n: int, psi, boundary: Mapping) -> tuple[OrbitTable, tuple]:
    """The input adapter: a dense {canonical BoundaryIndex: coefficient}
    and per-label psi as a table in the coarsest label grouping checked to
    be exact, and its psi per group.

    A label permutation that fixes the class maps the psi and
    delta_{0:{j,k}} coefficients of label j onto those of its image, so
    labels are grouped by psi_j and the sorted delta_{0:{j,k}} row over
    k != j.  The grouping is kept when every orbit the entries meet gets
    one coefficient from all of its divisors, so that the dense view is
    `boundary` less its zeros, entry for entry; otherwise each label is a
    group of its own.
    """
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
    table = len(by_row) < n and _grouped(g, n, map(tuple, by_row.values()), total)
    table = table or _grouped(g, n, [(j,) for j in range(1, n + 1)], total)
    return table, tuple(psi[labels[0] - 1] for labels in table.groups)


class _PicardVector:
    """Shared coefficient storage for divisor classes and curve functionals.

    The boundary part is an OrbitTable (`orbits`) and the psi coefficients
    are given one per label group (`group_psi`).  Without a table, the
    input adapter takes a dense {canonical BoundaryIndex: coefficient}
    (`boundary`) and per-label psi, and builds a table in the coarsest
    label grouping it can check (`_from_dense`).  The dense boundary and
    the per-label psi are views built on first access.
    """

    __slots__ = ("g", "n", "lam", "group_psi", "delta0", "orbits", "_psi", "_dense")

    def __init__(self, g, n, lam=0, psi=None, delta0=0, boundary=None, orbits=None):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.lam = _frac(lam)
        self.delta0 = _frac(delta0)
        self._psi = self._dense = None
        if orbits is None:
            orbits, psi = _from_dense(g, n, psi, boundary or {})
        self._same_space(orbits)
        self.orbits = orbits
        width = len(orbits.groups)
        self.group_psi = tuple(_frac(c) for c in (psi or (0,) * width))
        if len(self.group_psi) != width:
            raise DimensionMismatch("expected %d psi coefficients, one per label group" % width)

    @classmethod
    def from_terms(cls, table: OrbitTable, lam, group_psi, delta0, terms):
        """The vector with these lambda, group psi and delta_0 coefficients
        and the boundary terms (i, counts, c) over the groups of the empty
        table, which it fills.

        A term adds c to every divisor of the orbit (i, counts), once per
        divisor.  Like boundary_term, a term naming delta_{0:{j}} (or its
        mirror) adds -c to psi on the group of j instead, and one naming
        delta_{0:{}} (or its mirror) adds nothing.
        """
        g, n, sizes = table.g, table.n, table.sizes
        group_psi = list(group_psi)
        coeffs = {}
        for i, counts, c in terms:
            t = sum(counts)
            if _class_is_valid(g, n, i, t):
                key = orbit_key(g, sizes, i, counts)
                old = coeffs.get(key)
                coeffs[key] = c if old is None else old + c
            elif i == 0 and t == 1:
                group_psi[counts.index(1)] -= c
            elif i == g and t == n - 1:
                group_psi[list(map(sub, sizes, counts)).index(1)] -= c
        for key, c in coeffs.items():
            table.put(key, c)
        return cls(g, n, lam, group_psi, delta0, orbits=table)

    @property
    def psi(self) -> tuple[Fraction, ...]:
        """psi coefficients, one per label."""
        if self._psi is None:
            psi = [None] * self.n
            for labels, c in zip(self.orbits.groups, self.group_psi):
                for j in labels:
                    psi[j - 1] = c
            self._psi = tuple(psi)
        return self._psi

    @property
    def boundary(self) -> dict[BoundaryIndex, Fraction]:
        """Dense boundary coefficients, nonzero entries only."""
        if self._dense is None:
            self._dense = self.orbits.dense()
        return self._dense

    # -- coefficient access ------------------------------------------------

    def psi_coeff(self, j: int) -> Fraction:
        if not 1 <= j <= self.n:
            raise InvalidIndex("psi index %s outside 1..%d" % (j, self.n))
        return self.psi[j - 1]

    def boundary_coeff(self, i: int, S: Iterable[int]) -> Fraction:
        return self.orbits.get(canonicalize_index(self.g, self.n, i, S))

    def _coeffs(self):
        return (self.lam, self.psi, self.delta0, self.boundary)

    def _same(self, other) -> bool:
        """Coefficientwise equality: table against table when the label
        groups agree, else over the dense views."""
        if self.orbits.groups == other.orbits.groups:
            return (self.lam, self.group_psi, self.delta0, self.orbits.coeffs) == (
                other.lam, other.group_psi, other.delta0, other.orbits.coeffs)
        return self._coeffs() == other._coeffs()

    def _same_space(self, other) -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise DimensionMismatch(
                "operands live on Mbar_{%d,%d} and Mbar_{%d,%d}"
                % (self.g, self.n, other.g, other.n)
            )

    # -- linear structure ----------------------------------------------------

    def _combine(self, other, r: Rational, s: Rational = 1):
        """s * self + r * other, over the dense views."""
        self._same_space(other)
        r, s = _frac(r), _frac(s)
        boundary = {idx: s * c for idx, c in self.boundary.items()}
        for idx, c in other.boundary.items():
            boundary[idx] = boundary.get(idx, 0) + r * c
        return type(self)(
            self.g,
            self.n,
            s * self.lam + r * other.lam,
            [s * a + r * b for a, b in zip(self.psi, other.psi)],
            s * self.delta0 + r * other.delta0,
            boundary,
        )

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def scale(self, r: Rational):
        return self._combine(self, r, 0)

    def is_zero(self) -> bool:
        return not (self.lam or self.delta0 or any(self.group_psi) or self.orbits.coeffs)

    # -- serialization -------------------------------------------------------

    def to_jsonable(self) -> dict:
        d = {
            "g": self.g,
            "n": self.n,
            "lambda": format_rational(self.lam),
            "psi": [format_rational(c) for c in self.psi],
            "delta0": format_rational(self.delta0),
            "boundary": [{"i": i, "S": list(S), "c": c} for i, S, c in self.orbits._rendered()],
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, d: Mapping):
        g, n = _json_int(d["g"]), _json_int(d["n"])
        # entries naming the same class under mirrored indices accumulate
        boundary = {}
        for e in d["boundary"]:
            i, S = _json_int(e["i"]), e["S"]
            try:
                idx = canonicalize_index(g, n, i, S)
            except (DomainError, TypeError):
                for p in S:
                    _json_int(p)  # a float, bool or str label is a TypeError, checked first
                raise
            c, size = parse_rational(e["c"]), len(boundary)
            old = boundary.setdefault(idx, c)  # one hash of idx when it is new
            if len(boundary) == size:
                boundary[idx] = old + c
        return cls(g, n, parse_rational(d["lambda"]), tuple(map(parse_rational, d["psi"])),
                   parse_rational(d["delta0"]), boundary)

    def __repr__(self):
        # no dense view: a large class must still print
        return "%s(g=%d, n=%d, lambda=%s, delta0=%s, group_sizes=%r, orbit_keys=%d)" % (
            type(self).__name__, self.g, self.n, format_rational(self.lam),
            format_rational(self.delta0), self.orbits.sizes, len(self.orbits.coeffs))


class DivisorClass(_PicardVector):
    """A rational divisor class on Mbar_{g,n}, stored in the standard basis."""

    def equals(self, other: "DivisorClass") -> bool:
        """Coefficientwise equality; for g = 2 equality of normal forms.

        Two classes whose orbit tables have the same label groups are
        compared table against table, without building the dense view.
        The genus-2 Picard group carries the single relation
        lambda = delta_0/10 + delta_1/5, so classes there agree exactly
        when their lambda-free normal forms do.
        """
        self._same_space(other)
        if self.g == 2:
            return g2_normal_form(self)._same(g2_normal_form(other))
        return self._same(other)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    @classmethod
    def from_json(cls, s: str) -> "DivisorClass":
        return cls.from_jsonable(json.loads(s))


class CurveFunctional(_PicardVector):
    """Intersection numbers of a one-parameter family against the basis.

    Pairing a functional with a DivisorClass is the bilinear form
    sum over basis elements of (functional value) * (class coefficient).
    When each label group of the functional lies inside one label group of
    the class, the class is constant on every orbit of the functional, so
    the sum runs over the functional's orbit keys and groups, each weighted
    by its number of divisors or labels.  Any other pair is summed entry
    by entry over the functional's dense view.
    """

    def pair(self, d: DivisorClass) -> Fraction:
        self._same_space(d)
        into = d.orbits.group_map(self.orbits.groups)
        if into is None:
            total = self.lam * d.lam + self.delta0 * d.delta0
            total += sum(a * b for a, b in zip(self.psi, d.psi))
            for idx, c in self.boundary.items():
                total += c * d.orbits.get(idx)
            return total
        g, mine, theirs = self.g, self.orbits, d.orbits
        terms = [(1, self.lam, d.lam), (1, self.delta0, d.delta0)]
        terms += zip(mine.sizes, self.group_psi, (d.group_psi[k] for k in into))
        for (i, counts), c in mine.coeffs.items():
            merged = [0] * len(theirs.sizes)
            for k, x in zip(into, counts):
                merged[k] += x
            b = theirs.coeffs.get(orbit_key(g, theirs.sizes, i, merged))
            if b:
                terms.append((orbit_size(g, mine.sizes, i, counts), c, b))
        return _dot(terms)

    def __eq__(self, other):
        if not isinstance(other, CurveFunctional):
            return NotImplemented
        self._same_space(other)
        return self._same(other)

    __hash__ = None

    def to_jsonable(self) -> dict:
        d = super().to_jsonable()
        d["functional"] = True
        return d


def pair(f: CurveFunctional, d: DivisorClass) -> Fraction:
    return f.pair(d)


def lambda_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, lam=1)


def psi_class(g: int, n: int, j: int) -> DivisorClass:
    psi = [0] * n
    psi[j - 1] = 1
    return DivisorClass(g, n, psi=psi)


def delta0_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, delta0=1)


def boundary_class(g: int, n: int, i: int, S: Iterable[int]) -> DivisorClass:
    return DivisorClass(g, n, boundary={canonicalize_index(g, n, i, S): 1})


def genus1_boundary_sum(g: int, n: int) -> DivisorClass:
    """Sum of all distinct boundary classes with a genus-1 side (g = 2 only)."""
    if g != 2:
        raise WrongGenus("genus-1 boundary total only defined for g=2")
    total = {}
    for idx in canonical_boundary_indices(g, n):
        if idx.i == 1:
            total[idx] = Fraction(1)
    return DivisorClass(g, n, boundary=total)


def g2_normal_form(d: DivisorClass) -> DivisorClass:
    """Unique representative with zero lambda coefficient, genus 2 only.

    Substitutes lambda = delta_0/10 + (1/5) * (sum of the distinct
    genus-1 boundary classes); idempotent by construction.
    """
    if d.g != 2:
        raise WrongGenus("normal form uses the genus-2 relation, got g=%d" % d.g)
    if not d.lam:
        return d
    relation = delta0_class(2, d.n).scale(Fraction(1, 10)).add(
        genus1_boundary_sum(2, d.n).scale(Fraction(1, 5))
    )
    return d.sub(lambda_class(2, d.n).scale(d.lam)).add(relation.scale(d.lam))
