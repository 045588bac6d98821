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
group.  Dense input, `boundary=` or a class file, takes one checked walk
(_checked) into one map {S: {i: summed c}}: the first entry checks (g, n),
all label types are checked in one pass and each S once, as it enters the
map, so a canonical entry is its own key; any other goes through
canonicalize_index, so a mirrored name is summed onto its divisor and
delta_{0:{j}} raises InvalidIndex.  _from_dense groups the labels by psi_j
and the delta_{0:{j,k}} row (the map's i = 0 totals of the pairs S), which
a label symmetry preserves, keeps the grouping only when every orbit it
meets is full and constant, else gives each label a group, and codes each
orbit by OrbitTable._layout (_grouped, which drops zeros as it goes).
Terms given per orbit go through one router, from_terms; it and
boundary_term name a term on its canonical side before testing it, so only
a genus-0 side of one label (delta_{0:{j}} = -psi_j) or none is no divisor.

A functional pairs with a class by walking its own divisors and looking
each one up in the class's table.  add, sub, scale and equals split both
tables into the common refinement of their label groups
(_PicardVector._meet, OrbitTable.split); at genus 2, equals first moves the
other class along lambda = delta_0/10 + delta_1/5 to its own lambda
(_moved).  to_json's text, json.dumps's layout joined without a tree,
and the CLI table print the text rows of one walk (OrbitTable._rendered)
in the printer's layout, sorted, each orbit's coefficient formatted once:
a walk of every subset S of 1..n, each S's labels formatted once, when the
table fills at least half of the (g // 2 + 1) * 2^n pairs (i, S) with
i <= g - i, else of its orbits.  No route builds the dense view
(`boundary`).  Walking more than
_MAX_DENSE_ENTRIES divisors is refused with BudgetExceeded before anything
is allocated; so is splitting a table into more orbits, listing more
boundary indices (canonical_boundary_indices), filling a class table with
more orbit keys, and any space Mbar_{g,n} with more labels.

All coefficients are fractions.Fraction; there is no floating point in
this module.  Values are immutable after construction and all operations
are pure, so everything here is safe to share between threads.  The only
write after construction is a table's orbit-code layout: threads that
race to build it build equal values, and each stores a complete one with
a single assignment.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, product, repeat
from math import comb, prod
from operator import itemgetter, lshift, lt, mul, sub
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


def _json_list(x) -> list:
    if type(x) is not list:  # an object or a string would read as its keys or characters
        raise TypeError("expected an array, got %s" % type(x).__name__)
    return x


def format_rational(x: Rational) -> str:
    x = _frac(x)
    return "%d/%d" % (x.numerator, x.denominator)


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
        return "delta_{%d:{%s}}" % (self.i, ",".join(map(str, self.points)))


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


def _labels(n: int) -> frozenset[int]:
    """The marked-point labels {1..n}, built per call so that none is kept."""
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


def _in_order(n: int, S: tuple) -> bool:
    """Are the int labels of S strictly increasing in 1..n?"""
    return all(map(lt, S, S[1:])) and (not S or 0 < S[0] and S[-1] <= n)


def canonicalize_index(g: int, n: int, i: int, S: Iterable[int]) -> BoundaryIndex:
    """Return the canonical representative of delta_{i:S} on Mbar_{g,n}.

    Raises InvalidIndex when neither (i, S) nor (g-i, S^c) names a
    boundary divisor, or when S repeats a label.
    """
    points = tuple(S)
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

    It is named first, on its canonical side (see BoundaryIndex), and then
    routed: ("delta", BoundaryIndex) for a boundary divisor, ("psi", j) for
    delta_{0:{j}} = -psi_j, and ("zero", None) for delta_{0:{}}, no divisor
    at all.  An i outside 0..g or a label outside 1..n raises InvalidIndex;
    {1..n} is built only to name a side by S^c.
    """
    _check_gn(g, n)
    S = frozenset(S)
    if not 0 <= i <= g:
        raise InvalidIndex("genus part i=%s outside [0, %s]" % (i, g))
    # a label is an int in 1..n; 2.0, Fraction(2) and True are equal to
    # one, so the types are checked before the values
    if not (_INT.issuperset(map(type, S)) and all(0 < p <= n for p in S)):
        bad = next(p for p in S if type(p) is not int or not 1 <= p <= n)
        raise InvalidIndex("marked point %r is not one of the labels 1..%s" % (bad, n))
    if i > g - i or (2 * i == g and 1 not in S):
        i, S = g - i, _labels(n) - S
    # on the kept side, only a genus-0 side of fewer than two labels is no divisor
    if i or len(S) > 1:
        return ("delta", BoundaryIndex(i, tuple(sorted(S))))
    return ("psi", next(iter(S))) if S else ("zero", None)


def canonical_boundary_indices(g: int, n: int) -> list[BoundaryIndex]:
    """All separating boundary classes on Mbar_{g,n}, each exactly once."""
    _check_gn(g, n)
    # counted before listing: 2^n - n - 1 at i = 0, 2^n per 0 < i < g/2, 2^(n-1) on a tie
    count = (1 << n) - n - 1 + ((g - 1) // 2 << n) + (0 if g % 2 else 1 << n - 1)
    _check_size(g, n, count, "boundary indices")
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

    `OrbitTable(g, n, groups)` splits the labels 1..n into the given
    groups: nonempty sorted label sequences, ordered by their smallest
    label and covering 1..n.  A closed-form class groups labels of equal
    weight (weight_table), a test-curve functional its blocks, and a
    pullback or a dense input its own grouping.  A coefficient is stored
    per canonical orbit key (see orbit_key) that names a boundary divisor;
    zero coefficients are not stored.  Fill the table with `put` before
    handing it to a DivisorClass or CurveFunctional, which never changes
    it afterwards.
    """

    __slots__ = ("g", "n", "groups", "sizes", "coeffs", "_code")

    def __init__(self, g: int, n: int, groups: Iterable):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.groups = tuple(groups)
        self.sizes = tuple(map(len, self.groups))
        self.coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._code = None

    def keys(self):
        """Every canonical orbit key that names a boundary divisor."""
        g, sizes = self.g, self.sizes
        _check_size(g, self.n, (g + 1) * prod(z + 1 for z in sizes), "orbit keys")
        for i in range(g // 2 + 1):  # a key names the side with i <= g - i
            for counts in product(*(range(z + 1) for z in sizes)):
                key = (i, counts)
                if (i or sum(counts) > 1) and orbit_key(g, sizes, *key) == key:
                    yield key

    def put(self, key, c: Rational) -> None:
        c = _frac(c)
        if c:
            self.coeffs[key] = c

    def _layout(self):
        """(weight, shifts, top, full), the layout of the orbit code, built
        on first use: each group has a digit wide enough for its size, in
        group order (shifts), and label j adds weight[j] to its group's
        digit, so the labels of S sum to its counts read as digits, and all
        labels to full.  The orbit of delta_{i:S}, (i, S) a canonical side,
        is i << top | v, v that sum; on a tie (2i = g) the smaller of v and
        full - v, as orbit_key keeps, since digit order is tuple order."""
        if self._code is None:
            width, bits = len(self.groups), max(self.sizes).bit_length()
            shifts = range(bits * (width - 1), -1, -bits)
            weight = [0] * (self.n + 1)
            for labels, shift in zip(self.groups, shifts):
                for j in labels:
                    weight[j] = 1 << shift
            self._code = weight, shifts, bits * width, sum(weight)
        return self._code

    def _key(self, code: int):
        """The orbit_key an orbit code names (see _layout)."""
        _, shifts, top, _ = self._layout()
        mask = (1 << top // len(shifts)) - 1
        return code >> top, tuple([code >> shift & mask for shift in shifts])

    def get(self, idx: BoundaryIndex) -> Fraction:
        weight, shifts, top, full = self._layout()
        i, S = idx
        v = sum(map(weight.__getitem__, S)) if len(shifts) > 1 else len(S)
        return self.coeffs.get(self._key(i << top | (min(v, full - v) if 2 * i == self.g else v)), Fraction(0))

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

        listed = {}

        def subsets(j, k):  # this walk's k-subsets of group j, listed when first met
            return listed.get((j, k)) or listed.setdefault((j, k), tuple(combinations(groups[j], k)))

        for (i, counts), c in self.coeffs.items():
            if len(groups) == n:
                # one label per group: counts marks the labels of S
                sides = (tuple(compress(points, counts)),)
            elif len(groups) == 1:
                sides = subsets(0, counts[0])  # sorted, as the group is
            else:
                parts = product(*map(subsets, range(len(groups)), counts))
                sides = map(tuple, map(sorted, map(chain.from_iterable, parts)))
            if 2 * i == g:
                if self_mirror(g, self.sizes, i, counts):
                    sides = [S for S in sides if S[0] == 1]
                else:
                    sides = [S if S and S[0] == 1 else tuple(sorted(labels.difference(S))) for S in sides]
            yield i, sides, c

    def dense(self) -> dict[BoundaryIndex, Fraction]:
        return {BoundaryIndex(i, S): c for i, sides, c in self._divisors() for S in sides}

    def split(self, groups) -> dict:
        """coeffs keyed over `groups`, which refine this table's groups: an
        orbit (i, counts) splits into the orbits whose counts sum to counts
        inside each of its groups.  These are counted first, and more than
        _MAX_DENSE_ENTRIES are refused with BudgetExceeded."""
        if len(groups) == len(self.groups):
            return self.coeffs
        g, sizes = self.g, tuple(map(len, groups))
        first = {labels[0]: t for t, labels in enumerate(groups)}
        inside = [[t for t in map(first.get, labels) if t is not None] for labels in self.groups]
        ways = []  # ways[k][c]: the count vectors of the groups inside group k that sum to c
        for ts, top in zip(inside, map(max, zip(*(counts for _, counts in self.coeffs)))):
            w = [1] + [0] * top
            for t in ts:
                acc = list(accumulate(w, initial=0))
                w = [acc[c + 1] - acc[max(0, c - sizes[t])] for c in range(top + 1)]
            ways.append(w)
        _check_size(g, self.n, sum(prod(map(list.__getitem__, ways, counts)) for _, counts in self.coeffs),
                    "orbits over the common label groups")
        listed = {}  # (k, c): those count vectors, listed once
        for k, c in {(k, c) for _, counts in self.coeffs for k, c in enumerate(counts)}:
            got, room = [()], len(self.groups[k])
            for t in inside[k]:  # each prefix keeps room for the rest of c
                room -= sizes[t]
                got = [p + (x,) for p in got for left in (c - sum(p),)
                       for x in range(max(0, left - room), min(sizes[t], left) + 1)]
            listed[k, c] = got
        # where each group's count sits in the vectors of `listed` laid end to end
        at = sorted(range(len(groups)), key=list(chain.from_iterable(inside)).__getitem__)
        out = {}
        for (i, counts), c in self.coeffs.items():
            for parts in product(*map(listed.__getitem__, enumerate(counts))):
                flat = tuple(chain.from_iterable(parts))
                out[orbit_key(g, sizes, i, map(flat.__getitem__, at))] = c
        return out

    def _rendered(self, heads, sep: str, mid: str, pad: int = 0) -> list[str]:
        """One line of text per divisor, in sorted (i, S) order, each orbit's
        coefficient c formatted once: (heads[i] + the labels of S joined by
        sep + mid).ljust(pad) + c.  By _subset_rows when the divisors fill
        at least half of the (g // 2 + 1) * 2^n pairs (i, S) it walks, else
        by _orbit_rows, for 2^n can be far past the size of a sparse table."""
        size = self.dense_size()
        _check_size(self.g, self.n, size, "dense boundary entries")
        if (self.g // 2 + 1) << self.n <= 2 * size:  # O(1), no binomial sums
            return self._subset_rows(heads, sep, mid, pad)
        return self._orbit_rows(heads, sep, mid, pad)

    def _orbit_rows(self, heads, sep: str, mid: str, pad: int) -> list[str]:
        """_rendered's walk of the orbits' sides (_divisors), sorted, then formatted."""
        rows = []
        for i, sides, c in self._divisors():
            rows += zip(repeat(i), sides, repeat(format_rational(c)))
        rows.sort()
        return [(heads[i] + sep.join(map(str, S)) + mid).ljust(pad) + c for i, S, c in rows]

    def _subset_rows(self, heads, sep: str, mid: str, pad: int) -> list[str]:
        """_rendered's walk of every subset S of 1..n, once, in sorted tuple
        order, with its labels' text (joined by sep, then mid) and the digit
        sum v of its labels (see _layout): per genus part i, (i, S) names the
        orbit i << top | v (on a tie, 2i = g, the smaller of v and its
        mirror, over the sides holding label 1), so one lookup finds its
        coefficient, and the rows come out sorted.  A table holds no key of a
        genus-0 side of fewer than two labels, so their lookups find none."""
        g, n = self.g, self.n
        weight, shifts, top, full = self._layout()
        text = {i << top | sum(map(lshift, counts, shifts)): format_rational(c)
                for (i, counts), c in self.coeffs.items()}
        # the subsets of q..n in sorted order: (), q before each subset of
        # q+1..n in order, then the nonempty subsets of q+1..n
        labels, sums = [mid], [0]
        for q in range(n, 0, -1):
            w, first = weight[q], str(q)
            labels = [mid, first + mid] + [first + sep + t for t in labels[1:]] + labels[1:]
            sums = [0] + [w + v for v in sums] + sums[1:]
        get, rows = text.get, []
        for i in range(g // 2 + 1):
            base, head = i << top, heads[i]
            if 2 * i == g:  # the sides holding label 1 follow ()
                half = (1 << n - 1) + 1
                rows += [(head + t).ljust(pad) + c for t, v in zip(labels[1:half], sums[1:half])
                         if (c := get(base | min(v, full - v)))]
            else:
                rows += [(head + t).ljust(pad) + c for t, v in zip(labels, sums) if (c := get(base | v))]
        return rows


def weight_table(g: int, n: int, weights: Iterable[int]) -> tuple[OrbitTable, tuple]:
    """An empty closed-form class table over the groups of labels of equal
    weight, and the weight of each group."""
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
    return OrbitTable(g, n, map(tuple, first.values())), tuple(first)


def _checked(g: int, n: int, entries: Iterable, labels: Iterable, value, array=list) -> dict:
    """{canonical S: {i: summed coefficient}} from a class file's {"i", "S",
    "c"} entries or, with array=tuple, the (i, S, c) items of `boundary=` (S
    also as `labels`), each c read by `value` once its index is checked."""
    I, L, C = "iSc" if array is list else range(3)  # where an entry holds i, S and c
    # every label an int, in one pass (1.0 and True equal 1, so a label list
    # is never taken on equality alone); else every entry is checked alone
    try:
        ints = _INT.issuperset(map(type, chain.from_iterable(labels)))
    except (LookupError, TypeError):  # a missing S, or a key that is no (i, S) pair
        ints = False
    total, fast = {}, False
    for e in entries:
        row = None
        # once an entry has checked (g, n), a canonical one is its own key:
        # a label list is checked for order and range once, when it enters
        # the map, and one out of order is not entered
        if fast and type(i := e[I]) is int and type(S := e[L]) is array:
            key = tuple(S)
            if 0 < 2 * i < g or i == 0 and len(key) > 1 or 2 * i == g and key[:1] == (1,):
                row = total.get(key)
                if row is None and _in_order(n, key):
                    row = total[key] = {}
        if row is None:
            i, S = _json_int(e[I]), e[L]
            try:
                i, key = canonicalize_index(g, n, i, S)
            except (DomainError, TypeError):
                for p in S:
                    _json_int(p)  # a float, bool or str label is a TypeError, checked first
                raise
            if array is list:
                _json_list(S)  # in a file, "" or {} would name the empty set
            row, fast = total.setdefault(key, {}), ints
        c, old = value(e[C]), row.get(i)
        row[i] = c if old is None else old + c
    return total


def _grouped(g: int, n: int, groups, total) -> OrbitTable | None:
    """A table over these label groups holding `total` ({canonical S: {i:
    coefficient}}) less its zeros, dropped in the same walk, or None when
    some orbit it meets has two coefficients or misses a divisor."""
    table, count = OrbitTable(g, n, groups), 0  # count: the nonzero entries
    if total:
        # the orbit code of (i, S) (see OrbitTable._layout), its digit sum
        # computed once per S
        weight, _, top, full = table._layout()
        digit, coeffs = weight.__getitem__, {}
        for S, row in total.items():
            v = sum(map(digit, S))
            for i, c in row.items():
                if not c:
                    continue
                count += 1
                old = coeffs.setdefault(i << top | (min(v, full - v) if 2 * i == g else v), c)
                if old is not c and old != c:
                    return None
        table.coeffs = {table._key(k): c for k, c in coeffs.items()}
    # no orbit holds more entries than divisors: equal totals mean that
    # every orbit met is full
    return table if table.dense_size() == count else None


def _from_dense(g: int, n: int, psi, total: Mapping) -> tuple[OrbitTable, tuple]:
    """The input adapter: _checked's map and per-label psi as a table, and
    its psi per group.

    A label permutation that fixes the class maps the psi and
    delta_{0:{j,k}} coefficients of label j onto those of its image, so
    labels are grouped by psi_j and the sorted delta_{0:{j,k}} row over
    k != j, read from the summed totals of those keys alone.  The grouping
    is kept when every orbit the entries meet gets one coefficient from all
    of its divisors, so that the dense view is `total` less its zeros,
    entry for entry; otherwise each label is a group of its own.
    """
    psi = tuple(map(_frac, psi or (0,) * n))
    if len(psi) != n:
        raise DimensionMismatch("expected %d psi coefficients, one per label" % n)
    rows = [[] for _ in range(n + 1)]
    for S, row in total.items():
        if len(S) == 2 and (c := row.get(0)):
            for j in S:
                rows[j].append(c)
    by_row = {}
    for j in range(1, n + 1):
        by_row.setdefault((psi[j - 1], tuple(sorted(rows[j]))), []).append(j)
    # a candidate of one label per group is the fallback, which always fits
    table = _grouped(g, n, map(tuple, by_row.values()), total)
    table = table or _grouped(g, n, [(j,) for j in range(1, n + 1)], total)
    return table, tuple(psi[labels[0] - 1] for labels in table.groups)


class _PicardVector:
    """Shared coefficient storage for divisor classes and curve functionals.

    The boundary part is an OrbitTable (`orbits`) and the psi coefficients
    are given one per label group (`group_psi`).  Without a table, a dense
    {(i, S): coefficient} (`boundary`) takes the class-file reader's checked
    walk (_checked), and _from_dense builds its table with per-label psi;
    `boundary` and a table together are a TypeError.  The
    per-label psi is filled in at construction, and nothing is written to
    a vector afterwards.  Sums and comparisons work in orbit form over the
    common refinement of both sides' label groups (_meet).
    """

    __slots__ = ("g", "n", "lam", "group_psi", "delta0", "orbits", "psi")
    _tail = "}"  # what follows the boundary rows in to_json's text

    def __init__(self, g, n, lam=0, psi=None, delta0=0, boundary=None, orbits=None):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.lam = _frac(lam)
        self.delta0 = _frac(delta0)
        if orbits is None:
            boundary = boundary or {}  # items made one at a time: no dict, and no list for a tuple S
            items = ((i, S if type(S) is tuple else list(S), c) for (i, S), c in boundary.items())
            orbits, psi = _from_dense(g, n, psi, _checked(g, n, items, map(itemgetter(1), boundary), _frac, tuple))
        elif boundary is not None:
            raise TypeError("give boundary= or orbits=, not both")
        self._same_space(orbits)
        self.orbits = orbits
        width = len(orbits.groups)
        self.group_psi = tuple(_frac(c) for c in (psi or (0,) * width))
        if len(self.group_psi) != width:
            raise DimensionMismatch("expected %d psi coefficients, one per label group" % width)
        psi = [None] * n
        for labels, c in zip(orbits.groups, self.group_psi):
            for j in labels:
                psi[j - 1] = c
        self.psi = tuple(psi)  # one per label

    @classmethod
    def from_terms(cls, table: OrbitTable, lam, group_psi, delta0, terms):
        """The vector with these lambda, group psi and delta_0 coefficients
        and the boundary terms (i, counts, c) over the groups of the empty
        table, which it fills.

        A term adds c to every divisor of the orbit (i, counts), once per
        divisor.  Like boundary_term, it names the orbit first (orbit_key),
        then routes it: a key naming delta_{0:{j}} adds -c to psi on the
        group of j instead, and one naming delta_{0:{}} adds nothing.
        """
        g, sizes = table.g, table.sizes
        group_psi = list(group_psi)
        coeffs = {}
        for i, counts, c in terms:
            i, counts = key = orbit_key(g, sizes, i, counts)
            if i or sum(counts) > 1:
                old = coeffs.get(key)
                coeffs[key] = c if old is None else old + c
            elif 1 in counts:
                group_psi[counts.index(1)] -= c
        for key, c in coeffs.items():
            table.put(key, c)
        return cls(g, table.n, lam, group_psi, delta0, orbits=table)

    @property
    def boundary(self) -> dict[BoundaryIndex, Fraction]:
        """Dense boundary coefficients, nonzero entries only, built on each access."""
        return self.orbits.dense()

    # -- coefficient access ------------------------------------------------

    def psi_coeff(self, j: int) -> Fraction:
        if type(j) is not int or not 1 <= j <= self.n:  # the type first: 2.0 and True equal labels
            raise InvalidIndex("psi index %r outside 1..%d" % (j, self.n))
        return self.psi[j - 1]

    def boundary_coeff(self, i: int, S: Iterable[int]) -> Fraction:
        return self.orbits.get(canonicalize_index(self.g, self.n, i, S))

    def _same(self, other) -> bool:
        """Coefficientwise equality, both tables split into _meet before comparing."""
        groups = self._meet(other)
        return (self.lam, self.psi, self.delta0, self.orbits.split(groups)) == (
            other.lam, other.psi, other.delta0, other.orbits.split(groups))

    def _meet(self, other) -> tuple:
        """The common refinement of both sides' label groups: j and k share a
        group when they do on both sides, and the groups are ordered by
        smallest label.  A class and a functional, or two spaces, are refused."""
        if isinstance(self, DivisorClass) is not isinstance(other, DivisorClass):
            raise TypeError("a divisor class and a curve functional neither add nor compare")
        self._same_space(other)
        side, meet = {j: t for t, labels in enumerate(other.orbits.groups) for j in labels}, {}
        for k, labels in enumerate(self.orbits.groups):
            for j in labels:
                meet.setdefault((k, side[j]), []).append(j)
        return tuple(sorted(map(tuple, meet.values())))

    def _same_space(self, other) -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise DimensionMismatch(
                "operands live on Mbar_{%d,%d} and Mbar_{%d,%d}"
                % (self.g, self.n, other.g, other.n)
            )

    # -- linear structure ----------------------------------------------------

    def _combine(self, other, r: Rational, s: Rational = 1):
        """s * self + r * other: both tables split into _meet, summed by from_terms."""
        groups = self._meet(other)
        r, s = _frac(r), _frac(s)
        terms = chain(((i, counts, s * c) for (i, counts), c in self.orbits.split(groups).items()),
                      ((i, counts, r * c) for (i, counts), c in other.orbits.split(groups).items()))
        psi = [s * self.psi[labels[0] - 1] + r * other.psi[labels[0] - 1] for labels in groups]
        return type(self).from_terms(OrbitTable(self.g, self.n, groups), s * self.lam + r * other.lam,
                                     psi, s * self.delta0 + r * other.delta0, terms)

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def scale(self, r: Rational):
        return self._combine(self, r, 0)

    def is_zero(self) -> bool:
        return not (self.lam or self.delta0 or any(self.group_psi) or self.orbits.coeffs)

    # -- serialization -------------------------------------------------------

    def _head(self) -> dict:
        return {"g": self.g, "n": self.n, "lambda": format_rational(self.lam),
                "psi": [format_rational(c) for c in self.psi], "delta0": format_rational(self.delta0)}

    def to_jsonable(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """json.dumps's text of the file's tree, without that tree: the head
        through json.dumps, then _rendered's rows, each "p/q" less its '"}',
        in one join, the head before the first row and the end after the last."""
        head = json.dumps(self._head())[:-1] + ', "boundary": ['  # the head less its "}"
        rows = self.orbits._rendered(['{"i": %d, "S": [' % i for i in range(self.g // 2 + 1)], ", ", '], "c": "')
        if not rows:
            return head + "]" + self._tail
        rows[0] = head + rows[0]
        rows[-1] += '"}]' + self._tail
        return '"}, '.join(rows)

    @classmethod
    def from_jsonable(cls, d: Mapping):
        g, n = _json_int(d["g"]), _json_int(d["n"])
        if cls is DivisorClass and d.get("functional"):  # d had "g": a JSON object
            raise TypeError("the file holds a curve functional, not a divisor class")
        entries, memo = _json_list(d["boundary"]), {}

        def value(s):  # parse_rational, each string once per read: equal coefficients are one object (_grouped)
            c = memo.get(s) if type(s) is str else parse_rational(s)  # a list or a dict is refused, not hashed
            return memo.setdefault(s, parse_rational(s)) if c is None else c

        boundary = _checked(g, n, entries, map(itemgetter("S"), entries), value)
        lam, psi, delta0 = value(d["lambda"]), tuple(map(value, _json_list(d["psi"]))), value(d["delta0"])
        _check_gn(g, n)  # before the psi count, as the constructor checks
        orbits, psi = _from_dense(g, n, psi, boundary)
        return cls(g, n, lam, psi, delta0, orbits=orbits)

    def __repr__(self):
        # no dense view: a large class must still print
        return "%s(g=%d, n=%d, lambda=%s, delta0=%s, group_sizes=%r, orbit_keys=%d)" % (
            type(self).__name__, self.g, self.n, format_rational(self.lam),
            format_rational(self.delta0), self.orbits.sizes, len(self.orbits.coeffs))


class DivisorClass(_PicardVector):
    """A rational divisor class on Mbar_{g,n}, stored in the standard basis."""

    def equals(self, other: "DivisorClass") -> bool:
        """Coefficientwise equality; for g = 2 equality modulo the relation.

        Two classes are compared in orbit form over the common refinement
        of their label groups (_same); a functional is refused (TypeError).
        The genus-2 Picard group carries the single relation
        lambda = delta_0/10 + delta_1/5, so classes there agree exactly when
        `other`, moved along it to this lambda (_moved), agrees coefficientwise.
        """
        self._same_space(other)
        if self.g == 2:
            other = _moved(other, self.lam)
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
    The sum walks the functional's own divisors and looks each one up in
    the class's table, whatever the label groups of either side, so it
    costs one lookup per divisor the functional lists and builds no dense
    view.  A lookup decodes one digit per label group of the class, and
    more than _MAX_DENSE_ENTRIES digits in all are refused (BudgetExceeded).
    """

    def pair(self, d: DivisorClass) -> Fraction:
        self._same_space(d)
        # a lookup decodes an orbit code of one digit per label group of d
        _check_size(self.g, self.n, self.orbits.dense_size() * len(d.orbits.groups), "pairing lookup digits")
        get = d.orbits.get
        total = self.lam * d.lam + self.delta0 * d.delta0 + sum(map(mul, self.psi, d.psi))
        for i, sides, c in self.orbits._divisors():
            total += c * sum(get(BoundaryIndex(i, S)) for S in sides)
        return total

    def __eq__(self, other):
        if not isinstance(other, CurveFunctional):
            return NotImplemented
        return self._same(other)

    __hash__ = None

    _tail = ', "functional": true}'


def pair(f: CurveFunctional, d: DivisorClass) -> Fraction:
    return f.pair(d)


def lambda_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, lam=1)


def psi_class(g: int, n: int, j: int) -> DivisorClass:
    _check_gn(g, n)
    if type(j) is not int or not 1 <= j <= n:  # the type first: 2.0 and True equal labels
        raise InvalidIndex("psi index %r outside 1..%d" % (j, n))
    psi = [0] * n
    psi[j - 1] = 1
    return DivisorClass(g, n, psi=psi)


def delta0_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, delta0=1)


def boundary_class(g: int, n: int, i: int, S: Iterable[int]) -> DivisorClass:
    """delta_{i:S}: one orbit over the groups S and S^c (one when S^c is empty)."""
    i, S = canonicalize_index(g, n, i, S)
    groups = sorted(filter(None, (S, tuple(sorted(_labels(n).difference(S))))))
    return DivisorClass.from_terms(OrbitTable(g, n, groups), 0, (0,) * len(groups), 0,
                                   [(i, tuple(len(S) if labels == S else 0 for labels in groups), 1)])


def genus1_boundary_sum(g: int, n: int) -> DivisorClass:
    """Sum of all distinct boundary classes with a genus-1 side (g = 2 only):
    a table of one label group holding 1 on each of its genus-1 keys."""
    if g != 2:
        raise WrongGenus("genus-1 boundary total only defined for g=2")
    table = OrbitTable(2, n, [tuple(range(1, n + 1))])
    return DivisorClass.from_terms(table, 0, (0,), 0, ((i, counts, 1) for i, counts in table.keys() if i == 1))


def g2_normal_form(d: DivisorClass) -> DivisorClass:
    """The unique representative with lambda = 0, genus 2 only: d _moved to 0."""
    if d.g != 2:
        raise WrongGenus("normal form uses the genus-2 relation, got g=%d" % d.g)
    return _moved(d, 0)


def _moved(d: DivisorClass, lam: Rational) -> DivisorClass:
    """d plus (lam - d.lam) times lambda - delta_0/10 - (1/5) * (the genus-1
    divisors, the genus-1 keys of a table over d's own label groups), one
    from_terms table, or d itself when its lambda is lam; no functional."""
    if not isinstance(d, DivisorClass):
        raise TypeError("the genus-2 relation holds for divisor classes, not curve functionals")
    if not (t := lam - d.lam):
        return d
    table = OrbitTable(2, d.n, d.orbits.groups)
    terms = chain(((i, counts, c) for (i, counts), c in d.orbits.coeffs.items()),
                  ((i, counts, -t / 5) for i, counts in table.keys() if i == 1))
    return DivisorClass.from_terms(table, lam, d.group_psi, d.delta0 - t / 10, terms)
