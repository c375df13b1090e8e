"""Exact algebra on finite sets of integers.

The central object is :class:`IntegerSet`, an immutable set of 64-bit
integers with two representations, each built from the other on first
use: a sorted tuple of Python ints, and a bit-vector (one Python integer)
indexed from the minimum element. Sumsets and difference sets are computed
by OR-ing shifted copies of the bit-vector, one shift range per maximal
run of consecutive elements, so both sparse sets and the dense
interval-plus-fringe sets this package generates stay cheap. Union,
difference, intersection and the subset test work on aligned bit-vectors
while the joint window is dense, at any width, and on Python sets otherwise.

Sets wider than ``DENSE_DIAMETER_LIMIT`` fall back to pairwise sums and
differences of their elements, as Python integers, instead of allocating
an enormous bit-vector. That fallback and set algebra on Python sets list
values within one 1 GiB byte budget: they refuse sets of 4096 elements or
more, and operands of over 2**23 elements in all, with
``ResourceLimitError`` before allocating anything. Nothing here needs numpy.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import chain, filterfalse, islice
from numbers import Integral
from operator import itemgetter, neg, or_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ArithmeticRangeError, InvalidParameterError, ResourceLimitError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Widest window (in values) the run-smear sumset and difference set will
# allocate: 2**26 bits is an 8 MiB integer, and their vectors twice that.
DENSE_DIAMETER_LIMIT = 1 << 26

# Set algebra uses bit-vectors while the joint window has fewer than this
# many positions per element; sparser operands go through Python sets,
# whose cost does not grow with the window.
_ALGEBRA_BITS_PER_ELEMENT = 16

# Most bytes a Python-int fallback may hold: the pairwise one for one set
# (4095 elements), or set algebra for its operands (2**23 elements).
# Each of the k(k + 1) / 2 pairs listed costs at most _PAIR_BYTES at the
# peak: a list slot and an int object, then a dict entry and a tuple slot
# (under tracemalloc at most 113 bytes, for ints near 2**63); set algebra
# holds at most about 90 bytes per operand element.
_WIDE_BYTE_LIMIT = 1 << 30
_PAIR_BYTES = 128

# One token of a set literal: an ASCII decimal integer.
_TOKEN = re.compile(r"-?[0-9]+")

# runs of nonzero bytes (a leading single byte speeds the scan); each byte's set bits
_NONZERO_BYTES = re.compile(rb"[^\x00][^\x00]*")
_BYTE_BITS = tuple(tuple(j for j in range(8) if byte >> j & 1) for byte in range(256))


class Classification(str, Enum):
    """Whether a set has more sums, more differences, or equal counts."""

    MSTD = "MSTD"
    MDTS = "MDTS"
    BALANCED = "BALANCED"


def _smear(x: int, length: int) -> int:
    """OR of ``x << j`` for ``0 <= j < length``, via doubling."""
    covered = 1
    while covered < length:
        step = min(covered, length - covered)
        x |= x << step
        covered += step
    return x


def _element_runs(els: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive values in a strictly increasing sequence.

    ``els[j] - j`` is constant exactly along a run, so each run's end is
    found by doubling then bisecting: a lone element costs one probe and a
    run of length r about 2 log2(r).
    """
    runs = []
    i, n = 0, len(els)
    while i < n:
        key = els[i] - i
        end, step = i, 1
        while end + step < n and els[end + step] - (end + step) == key:
            end += step
            step <<= 1
        hi = min(end + step, n) - 1
        while end < hi:
            mid = (end + hi + 1) >> 1
            if els[mid] - mid == key:
                end = mid
            else:
                hi = mid - 1
        runs.append((els[i], els[end]))
        i = end + 1
    return runs


def _bit_runs(bits: int) -> list[tuple[int, int]]:
    """Maximal runs of set bits as (first, last) bit positions, ascending."""
    # a bit of flips is set where a run starts or just past where one ends;
    # its bytes take one byte per eight bits, and the regex skips zero bytes
    flips = bits ^ (bits << 1)
    data = flips.to_bytes((flips.bit_length() + 7) >> 3, "little")
    edges = [8 * i + j for match in _NONZERO_BYTES.finditer(data)
             for i, byte in enumerate(match.group(), match.start()) for j in _BYTE_BITS[byte]]
    return [(start, stop - 1) for start, stop in zip(edges[::2], edges[1::2])]


def _pack(runs: Iterable[tuple[int, int]], width: int) -> int:
    """The bit-vector with bits ``first..last`` set for each run, run by run."""
    buf = bytearray((width + 7) >> 3)
    for first, last in runs:
        i, j = first >> 3, last >> 3
        if i == j:
            buf[i] |= ((2 << (last - first)) - 1) << (first & 7)
        else:
            buf[i] |= (0xFF << (first & 7)) & 0xFF
            buf[i + 1:j] = b"\xff" * (j - i - 1)
            buf[j] |= (2 << (last & 7)) - 1
    return int.from_bytes(buf, "little")


def _integers(caller: str, **values) -> list[int]:
    """The ``values`` as ints, in order; as for ``IntegerSet`` elements, any
    value that is not a ``numbers.Integral``, or is a bool, is refused."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidParameterError(f"{caller}: {name} must be an integer, not {value!r}")
    return [int(value) for value in values.values()]


def _sets(caller: str, **values) -> None:
    """Refuse any of the ``values`` that is not an ``IntegerSet``, naming it."""
    for name, value in values.items():
        if not isinstance(value, IntegerSet):
            raise InvalidParameterError(
                f"{caller}: {name} must be an IntegerSet, not {type(value).__name__}")


class IntegerSet:
    """Immutable finite set of integers, kept strictly increasing.

    Construct from any iterable of integers (``int`` or another
    ``numbers.Integral`` such as a numpy integer, never a bool); duplicates
    collapse. Elements are kept as a sorted tuple of ``int``. The
    bit-vector has bit i set iff offset + i is an element, with bit 0 set
    (the offset is the minimum); sets computed on bit-vectors build their
    tuple only when it is asked for. All derived statistics (sumset,
    difference set, profile) are recomputable from the elements alone.
    """

    __slots__ = ("_els", "_bits", "_offset")

    def __init__(self, elements: Iterable[int] = ()):
        items = list(elements)
        kinds = set(map(type, items)) - {int}
        if kinds:
            wrong = {k for k in kinds if k is bool or not issubclass(k, Integral)}
            if wrong:
                bad = next(x for x in items if type(x) in wrong)
                raise InvalidParameterError(f"IntegerSet: element {bad!r} is not an integer")
            items = list(map(int, items))
        els = tuple(sorted(set(items)))
        if els and (els[0] < INT64_MIN or els[-1] > INT64_MAX):
            raise ArithmeticRangeError("element outside signed 64-bit range")
        self._els: Optional[tuple[int, ...]] = els
        self._bits: Optional[int] = None
        self._offset = 0

    # ---- alternate constructors ----

    @classmethod
    def _from_sorted(cls, els: tuple[int, ...]) -> "IntegerSet":
        """Trusted path: ``els`` is a strictly increasing tuple of ints."""
        out = cls.__new__(cls)
        out._els = els
        out._bits = None
        out._offset = 0
        return out

    @classmethod
    def _from_bits(cls, bits: int, offset: int) -> "IntegerSet":
        """Trusted path: bit ``i`` of ``bits`` means ``offset + i`` is present.

        The offset moves up to the lowest set bit, which ``min`` reads.
        Elements are materialized lazily; cardinality and extremes come
        straight from the bit-vector.
        """
        out = cls.__new__(cls)
        out._els = None
        if bits:
            low = (bits & -bits).bit_length() - 1
            bits >>= low
            offset += low
        else:
            offset = 0
        out._bits = bits
        out._offset = offset
        return out

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntegerSet":
        """The integers from ``lo`` to ``hi`` inclusive (empty if lo > hi)."""
        lo, hi = _integers("IntegerSet.interval", lo=lo, hi=hi)
        if lo > hi:
            return cls()
        if not (INT64_MIN <= lo and hi <= INT64_MAX):
            raise ArithmeticRangeError("interval endpoint outside signed 64-bit range")
        # a wider interval's sumset would leave the bit-vector path, and its
        # pairs would exceed the fallback's budget
        if hi - lo > DENSE_DIAMETER_LIMIT:
            raise ResourceLimitError(
                f"interval of more than {DENSE_DIAMETER_LIMIT + 1} elements")
        return cls._from_bits((2 << (hi - lo)) - 1, lo)

    @classmethod
    def from_text(cls, text: str) -> "IntegerSet":
        """Parse the canonical text form: comma-separated, strictly increasing.

        Each token is an ASCII decimal integer, ``-?[0-9]+``, with optional
        surrounding whitespace. Raises InvalidParameterError naming the
        1-based token position on a malformed or out-of-order token.
        """
        items: list[int] = []
        for pos, token in enumerate(text.split(","), start=1):
            token = token.strip()
            if not _TOKEN.fullmatch(token):
                raise InvalidParameterError(
                    f"set literal: token {pos} ({token!r}) is not an integer"
                )
            try:
                value = int(token)
            except ValueError:  # more digits than int() converts
                raise InvalidParameterError(
                    f"set literal: token {pos} has too many digits") from None
            if items and value <= items[-1]:
                raise InvalidParameterError(
                    f"set literal: token {pos} ({token!r}) is not strictly increasing"
                )
            items.append(value)
        return cls(items)

    # ---- basic queries ----

    @property
    def elements(self) -> tuple[int, ...]:
        """Sorted elements as a tuple of ints."""
        if self._els is None:
            self._els = tuple(chain.from_iterable(
                range(first, last + 1) for first, last in self._runs()))
        return self._els

    @property
    def is_empty(self) -> bool:
        return self._bits == 0 if self._els is None else not self._els

    def __len__(self) -> int:
        if self._els is None:
            return self._bits.bit_count()
        return len(self._els)

    @property
    def min(self) -> int:
        if self.is_empty:
            raise InvalidParameterError("empty set has no minimum")
        if self._els is None:
            return self._offset
        return self._els[0]

    @property
    def max(self) -> int:
        if self.is_empty:
            raise InvalidParameterError("empty set has no maximum")
        if self._els is None:
            return self._offset + self._bits.bit_length() - 1
        return self._els[-1]

    @property
    def diameter(self) -> int:
        """max - min; 0 for singletons (and raises on empty)."""
        return self.max - self.min

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: int) -> bool:
        if type(value) is not int:
            (value,) = _integers("IntegerSet.__contains__", value=value)
        if self._bits is not None:
            idx = value - self._offset
            return idx >= 0 and (self._bits >> idx) & 1 == 1
        els = self._els
        i = bisect_left(els, value)
        return i < len(els) and els[i] == value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self._els is not None and other._els is not None:
            return self._els == other._els
        if self.is_empty:
            return True
        # one side already has its bit-vector, so equal ends bound the other's
        return (self.min == other.min and self.max == other.max
                and self._bitvector()[0] == other._bitvector()[0])

    def __hash__(self) -> int:
        # the runs are canonical, so equal sets hash alike in either form
        return hash(tuple(self._runs()))

    def __repr__(self) -> str:
        if len(self) <= 12:
            body = ", ".join(map(str, self.elements))
        else:
            # the ends come from the runs, so a wide interval lists no middle
            runs = self._runs()
            head = islice(chain.from_iterable(range(first, last + 1) for first, last in runs), 6)
            tail = [*islice(chain.from_iterable(reversed(range(first, last + 1))
                                                for first, last in reversed(runs)), 3)]
            body = f"{', '.join(map(str, head))}, ... {', '.join(map(str, tail[::-1]))}"
        return f"IntegerSet([{body}])"

    def to_text(self) -> str:
        """Canonical text form: ASCII decimals, comma-separated, increasing."""
        return ",".join(map(str, self.elements))

    def to_list(self) -> list[int]:
        return list(self.elements)

    # ---- set algebra ----

    def union(self, *others: "IntegerSet") -> "IntegerSet":
        sets = [s for s in (self, *others) if not s.is_empty]
        if len(sets) < 2:
            return sets[0] if sets else IntegerSet()
        aligned = _aligned(sets, "union")
        if aligned is not None:
            words, offset = aligned
            return IntegerSet._from_bits(reduce(or_, words), offset)
        return IntegerSet._from_sorted(tuple(sorted(set().union(*(s.elements for s in sets)))))

    def difference(self, other: "IntegerSet") -> "IntegerSet":
        if not self._overlaps(other):
            return self
        aligned = _aligned((self, other), "difference")
        if aligned is not None:
            (mine, theirs), offset = aligned
            return IntegerSet._from_bits(mine & ~theirs, offset)
        drop = set(other.elements)
        return IntegerSet._from_sorted(tuple(filterfalse(drop.__contains__, self.elements)))

    def intersection(self, other: "IntegerSet") -> "IntegerSet":
        if not self._overlaps(other):
            return IntegerSet()
        aligned = _aligned((self, other), "intersection")
        if aligned is not None:
            (mine, theirs), offset = aligned
            return IntegerSet._from_bits(mine & theirs, offset)
        keep = set(other.elements)
        return IntegerSet._from_sorted(tuple(filter(keep.__contains__, self.elements)))

    def _overlaps(self, other: "IntegerSet") -> bool:
        """Whether both sets are nonempty and their windows meet."""
        return not (self.is_empty or other.is_empty
                    or other.max < self.min or other.min > self.max)

    def issubset(self, other: "IntegerSet") -> bool:
        if self.is_empty:
            return True
        if len(self) > len(other) or self.min < other.min or self.max > other.max:
            return False
        aligned = _aligned((self, other), "issubset")
        if aligned is not None:
            (mine, theirs), _ = aligned
            return mine & ~theirs == 0
        return set(other.elements).issuperset(self.elements)

    def ispropersubset(self, other: "IntegerSet") -> bool:
        return len(self) < len(other) and self.issubset(other)

    def contains_interval(self, lo: int, hi: int) -> bool:
        """True iff every integer in [lo, hi] is present (vacuous if lo > hi)."""
        lo, hi = _integers("contains_interval", lo=lo, hi=hi)
        if lo > hi:
            return True
        if self.is_empty or lo < self.min or hi > self.max:
            return False
        if self._bits is not None:
            run = (2 << (hi - lo)) - 1
            return (self._bits >> (lo - self._offset)) & run == run
        els = self._els
        # a contiguous block of hi - lo + 1 entries starting at lo
        i = bisect_left(els, lo)
        j = i + hi - lo
        return els[i] == lo and j < len(els) and els[j] == hi

    def missing_in_interval(self, lo: int, hi: int) -> Iterator[int]:
        """The integers in [lo, hi] that are not elements, ascending.

        A lazy iterator over the gaps between the set's runs of consecutive
        elements, so its cost grows with the number of runs, not of elements
        or of values in the window. Its arguments are checked at the call.
        """
        lo, hi = _integers("missing_in_interval", lo=lo, hi=hi)
        return chain.from_iterable(_gaps(self, lo, hi))

    def shift(self, y: int) -> "IntegerSet":
        """Translate every element by ``y``."""
        return affine(self, 1, y)

    # ---- bit-vector internals ----

    def _bitvector(self) -> tuple[int, int]:
        """(bits, offset) with bit i meaning offset + i is present."""
        if self._bits is None:
            els = self._els
            if not els:
                self._bits, self._offset = 0, 0
            else:
                offset = els[0]
                self._bits = _pack(((first - offset, last - offset)
                                    for first, last in _element_runs(els)),
                                   els[-1] - offset + 1)
                self._offset = offset
        return self._bits, self._offset

    def _runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive elements as (start, end) pairs."""
        if self._els is not None:
            return _element_runs(self._els)
        offset = self._offset
        return [(offset + first, offset + last) for first, last in _bit_runs(self._bits)]


def _gaps(a: IntegerSet, lo: int, hi: int) -> list[range]:
    """The maximal runs of integers in [lo, hi] absent from ``a``, ascending.

    They lie between the runs of ``a`` that meet the window, so the cost is
    a step per run, not per element.
    """
    runs = a._runs()
    # the runs that end at or past lo and start at or before hi
    inside = runs[bisect_left(runs, lo, key=itemgetter(1)):
                  bisect_right(runs, hi, key=itemgetter(0))]
    starts = [lo, *(last + 1 for _, last in inside)]
    stops = [*(first for first, _ in inside), hi + 1]
    return [range(start, stop) for start, stop in zip(starts, stops) if start < stop]


def _aligned(sets: Sequence[IntegerSet], op: str) -> Optional[tuple[list[int], int]]:
    """The bit-vectors of nonempty ``sets`` shifted to one shared offset.

    None when no operand has its bit-vector yet (sets built from elements
    are then cheapest to combine as sets), or when the window holds
    ``_ALGEBRA_BITS_PER_ELEMENT`` or more positions per element, at any
    width. Operation ``op`` then lists every element as a Python int, so
    that is first checked against the budget.
    """
    lo, total = min(s.min for s in sets), sum(map(len, sets))
    if (all(s._bits is None for s in sets)
            or max(s.max for s in sets) - lo >= _ALGEBRA_BITS_PER_ELEMENT * total):
        _check_listing_budget(op, total, f"listing {total} elements")
        return None
    return [bits << (offset - lo) for bits, offset in (s._bitvector() for s in sets)], lo


@dataclass(frozen=True)
class SetProfile:
    """Computed statistics of a nonempty set.

    ``density`` is kept exact (a Fraction) and rounded only at display
    time; it is None for singletons, whose diameter is reported as 0.
    """

    cardinality: int
    diameter: int
    sum_count: int
    diff_count: int
    classification: Classification
    density: Optional[Fraction]

    @staticmethod
    def from_counts(cardinality: int, diameter: int, sum_count: int,
                    diff_count: int) -> "SetProfile":
        if sum_count > diff_count:
            cls = Classification.MSTD
        elif sum_count < diff_count:
            cls = Classification.MDTS
        else:
            cls = Classification.BALANCED
        density = Fraction(cardinality, diameter) if diameter > 0 else None
        return SetProfile(cardinality, diameter, sum_count, diff_count, cls, density)


def _require_nonempty(a: IntegerSet, op: str) -> None:
    _sets(op, a=a)
    if a.is_empty:
        raise InvalidParameterError(f"{op}: set must be nonempty")


def _check_listing_budget(op: str, values: int, what: str) -> None:
    """Refuse a Python-int fallback that would list ``values`` ints, before it
    lists any; ``what`` says what they are."""
    if _PAIR_BYTES * values > _WIDE_BYTE_LIMIT:
        raise ResourceLimitError(f"{op}: {what} would need more than {_WIDE_BYTE_LIMIT} bytes")


def _check_pair_budget(a: IntegerSet, op: str) -> None:
    k = len(a)
    _check_listing_budget(op, k * (k + 1) // 2,
                          f"{k} elements over a diameter above {DENSE_DIAMETER_LIMIT}")


def _pair_values(els: Sequence[int], subtract: bool) -> tuple[int, ...]:
    """Distinct x + y over i <= j, or y - x over i < j, of ``els``, ascending.

    ``els`` is strictly increasing, so each row of a pair table is already
    ascending and the one sort only merges the rows.
    """
    values: list[int] = []
    for i, x in enumerate(els):
        values += map(x.__rsub__, els[i + 1:]) if subtract else map(x.__add__, els[i:])
    values.sort()
    return tuple(dict.fromkeys(values))


def sumset(a: IntegerSet) -> IntegerSet:
    """The set of pairwise sums {x + y : x, y in a}. Empty input -> empty."""
    _sets("sumset", a=a)
    if a.is_empty:
        return IntegerSet()
    if 2 * a.min < INT64_MIN or 2 * a.max > INT64_MAX:
        raise ArithmeticRangeError("sumset would leave signed 64-bit range")
    if a.diameter <= DENSE_DIAMETER_LIMIT:
        bits, offset = a._bitvector()
        acc = 0
        for start, end in a._runs():
            acc |= _smear(bits, end - start + 1) << (start - offset)
        return IntegerSet._from_bits(acc, 2 * offset)
    _check_pair_budget(a, "sumset")
    return IntegerSet._from_sorted(_pair_values(a.elements, subtract=False))


def diffset(a: IntegerSet) -> IntegerSet:
    """The set of pairwise differences {x - y}; symmetric about 0."""
    _sets("diffset", a=a)
    if a.is_empty:
        return IntegerSet()
    if a.max - a.min > INT64_MAX:
        raise ArithmeticRangeError("difference set would leave signed 64-bit range")
    if a.diameter <= DENSE_DIAMETER_LIMIT:
        bits, offset = a._bitvector()
        top = a.max
        acc = 0
        # shifting by (top - e) for e in a run [start, end] covers the
        # contiguous shift range [top - end, top - start]
        for start, end in a._runs():
            acc |= _smear(bits, end - start + 1) << (top - end)
        return IntegerSet._from_bits(acc, a.min - top)
    _check_pair_budget(a, "diffset")
    positive = _pair_values(a.elements, subtract=True)
    return IntegerSet._from_sorted((*map(neg, reversed(positive)), 0, *positive))


def affine(a: IntegerSet, x: int, y: int) -> IntegerSet:
    """The image {x*e + y : e in a}; requires x != 0.

    Dilation and translation preserve both the sumset and difference-set
    cardinalities, so profiles carry over unchanged.
    """
    _sets("affine", a=a)
    x, y = _integers("affine", x=x, y=y)
    if x == 0:
        raise InvalidParameterError("affine: dilation factor x must be nonzero")
    if a.is_empty:
        return IntegerSet()
    # the extremes bound every x*e and x*e + y, so checking them suffices
    for corner in (x * a.min, x * a.max, x * a.min + y, x * a.max + y):
        if not (INT64_MIN <= corner <= INT64_MAX):
            raise ArithmeticRangeError("affine image leaves signed 64-bit range")
    if a._els is None and x in (1, -1):
        if x == 1:
            return IntegerSet._from_bits(a._bits, a._offset + y)
        # mirrored, each run of bits i..j becomes top - j..top - i
        top = a._bits.bit_length() - 1
        mirrored = ((top - last, top - first) for first, last in _bit_runs(a._bits))
        return IntegerSet._from_bits(_pack(mirrored, top + 1), y - a.max)
    els = a.elements
    out = tuple(map(y.__add__, els if x == 1 else map(x.__mul__, els)))
    return IntegerSet._from_sorted(out[::-1] if x < 0 else out)


def classify(a: IntegerSet) -> Classification:
    """MSTD, MDTS, or BALANCED by comparing |a+a| with |a-a|."""
    _require_nonempty(a, "classify")
    return profile(a).classification


def symmetry_center(a: IntegerSet) -> Optional[int]:
    """The integer c with c - a == a, if one exists.

    Only c = min + max can work, so that single candidate is checked.
    Symmetric sets are always balanced.
    """
    _sets("symmetry_center", a=a)
    if a.is_empty:
        return None
    c = a.min + a.max
    runs = a._runs()
    return c if [(c - last, c - first) for first, last in reversed(runs)] == runs else None


def is_pn(a: IntegerSet, n: int) -> bool:
    """Completeness of both hulls except within n of each extreme.

    True iff [2*min + n, 2*max - n] is contained in a+a and
    [-(diam) + n, diam - n] is contained in a-a; vacuously true when the
    ranges are empty.
    """
    _require_nonempty(a, "is_pn")
    (n,) = _integers("is_pn", n=n)
    if n < 0:
        raise InvalidParameterError("is_pn: n must be nonnegative")
    lo, hi = a.min, a.max
    # the difference hull first: seed discovery's MSTD sets fail it more often
    return (
        diffset(a).contains_interval(-(hi - lo) + n, (hi - lo) - n)
        and sumset(a).contains_interval(2 * lo + n, 2 * hi - n)
    )


def profile(a: IntegerSet) -> SetProfile:
    """All statistics of a nonempty set, computed exactly."""
    _require_nonempty(a, "profile")
    return SetProfile.from_counts(
        cardinality=len(a),
        diameter=a.diameter,
        sum_count=len(sumset(a)),
        diff_count=len(diffset(a)),
    )
