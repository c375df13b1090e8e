"""Exact algebra on finite sets of integers.

The central object is :class:`IntegerSet`, an immutable strictly-increasing
sequence of 64-bit integers with a dual representation: a sorted numpy array
of elements plus a lazily-built bit-vector indexed from the minimum element.
Sumsets and difference sets are computed by OR-ing shifted copies of the
bit-vector, one shift range per maximal run of consecutive elements, so both
sparse sets and the dense interval-plus-fringe sets this package generates
stay cheap.

Sets wider than ``DENSE_DIAMETER_LIMIT`` fall back to vectorized element
arithmetic instead of allocating an enormous bit-vector. That fallback
forms every pair, so it refuses sets of more than 10**4 elements with
``ResourceLimitError`` before allocating anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ArithmeticRangeError, InvalidParameterError, ResourceLimitError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Widest window (in values) the bit-vector path will allocate: 2**26 bits
# is an 8 MiB integer, and sum/difference vectors are about twice that.
DENSE_DIAMETER_LIMIT = 1 << 26

# Row block for the chunked outer-sum fallback on very wide sets.
_OUTER_BLOCK = 256

# Most pairs the outer-sum fallback forms for one set: 10**4 elements.
_WIDE_PAIR_LIMIT = 10 ** 8

# One token of a set literal: an ASCII decimal integer.
_TOKEN = re.compile(r"-?[0-9]+")


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


class IntegerSet:
    """Immutable finite set of integers, kept strictly increasing.

    Construct from any iterable of ints (Python or numpy integers, never
    bools); duplicates collapse. All derived statistics (sumset, difference
    set, profile) are recomputable from the elements alone.
    """

    __slots__ = ("_els", "_bits", "_offset")

    def __init__(self, elements: Iterable[int] = ()):
        if isinstance(elements, IntegerSet):
            self._els = elements._els
            self._bits = elements._bits
            self._offset = elements._offset
            return
        items = list(elements)
        kinds = set(map(type, items)) - {int}
        if kinds:
            wrong = {k for k in kinds if k is bool or not issubclass(k, (int, np.integer))}
            if wrong:
                bad = next(x for x in items if type(x) in wrong)
                raise InvalidParameterError(f"IntegerSet: element {bad!r} is not an integer")
            items = [int(x) for x in items]
        try:
            arr = np.array(sorted(set(items)), dtype=np.int64)
        except OverflowError as exc:
            raise ArithmeticRangeError("element outside signed 64-bit range") from exc
        self._els = arr
        self._els.flags.writeable = False
        self._bits: Optional[int] = None
        self._offset = 0

    # ---- alternate constructors ----

    @classmethod
    def _from_sorted(cls, arr: np.ndarray) -> "IntegerSet":
        """Trusted path: ``arr`` is int64, strictly increasing."""
        out = cls.__new__(cls)
        out._els = arr
        out._els.flags.writeable = False
        out._bits = None
        out._offset = 0
        return out

    @classmethod
    def _from_bits(cls, bits: int, offset: int) -> "IntegerSet":
        """Trusted path: bit ``i`` of ``bits`` means ``offset + i`` is present.

        Elements are materialized lazily; cardinality and extremes come
        straight from the bit-vector.
        """
        out = cls.__new__(cls)
        out._els = None
        out._bits = bits
        out._offset = offset if bits else 0
        return out

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntegerSet":
        """The integers from ``lo`` to ``hi`` inclusive (empty if lo > hi)."""
        if lo > hi:
            return cls()
        if not (INT64_MIN <= lo and hi <= INT64_MAX):
            raise ArithmeticRangeError("interval endpoint outside signed 64-bit range")
        # a wider interval would leave the bit-vector path, and its pairs
        # would exceed the fallback's budget
        if hi - lo > DENSE_DIAMETER_LIMIT:
            raise ResourceLimitError(
                f"interval of more than {DENSE_DIAMETER_LIMIT + 1} elements")
        return cls._from_sorted(np.arange(lo, hi + 1, dtype=np.int64))

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
            value = int(token)
            if items and value <= items[-1]:
                raise InvalidParameterError(
                    f"set literal: token {pos} ({token!r}) is not strictly increasing"
                )
            items.append(value)
        return cls(items)

    # ---- basic queries ----

    @property
    def elements(self) -> np.ndarray:
        """Sorted elements as a read-only int64 array."""
        if self._els is None:
            self._els = self._materialize()
            self._els.flags.writeable = False
        return self._els

    def _materialize(self) -> np.ndarray:
        bits, offset = self._bits, self._offset
        if not bits:
            return np.empty(0, dtype=np.int64)
        raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.nonzero(flags)[0].astype(np.int64) + offset

    @property
    def is_empty(self) -> bool:
        return self._bits == 0 if self._els is None else len(self._els) == 0

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
        return int(self._els[0])

    @property
    def max(self) -> int:
        if self.is_empty:
            raise InvalidParameterError("empty set has no maximum")
        if self._els is None:
            return self._offset + self._bits.bit_length() - 1
        return int(self._els[-1])

    @property
    def diameter(self) -> int:
        """max - min; 0 for singletons (and raises on empty)."""
        return self.max - self.min

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements.tolist())

    def __contains__(self, value: int) -> bool:
        if self.is_empty or not (INT64_MIN <= value <= INT64_MAX):
            return False
        if self._bits is not None:
            idx = value - self._offset
            return 0 <= idx and bool((self._bits >> idx) & 1)
        els = self._els
        i = int(np.searchsorted(els, value))
        return i < len(els) and int(els[i]) == value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        return bool(np.array_equal(self.elements, other.elements))

    def __hash__(self) -> int:
        if self.is_empty:
            return hash(())
        return hash((len(self), self.min, self.max, self.elements.tobytes()))

    def __repr__(self) -> str:
        els = self.elements
        if len(els) <= 12:
            body = ", ".join(str(x) for x in els.tolist())
        else:
            head = ", ".join(str(x) for x in els[:6].tolist())
            tail = ", ".join(str(x) for x in els[-3:].tolist())
            body = f"{head}, ... {tail}"
        return f"IntegerSet([{body}])"

    def to_text(self) -> str:
        """Canonical text form: ASCII decimals, comma-separated, increasing."""
        return ",".join(str(x) for x in self.elements.tolist())

    def to_list(self) -> list[int]:
        return self.elements.tolist()

    # ---- set algebra ----

    def union(self, *others: "IntegerSet") -> "IntegerSet":
        arrays = [self.elements] + [o.elements for o in others]
        return IntegerSet._from_sorted(
            np.unique(np.concatenate(arrays)) if len(arrays) > 1 else arrays[0]
        )

    def difference(self, other: "IntegerSet") -> "IntegerSet":
        keep = ~self._membership_mask(other)
        return IntegerSet._from_sorted(self.elements[keep])

    def intersection(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet._from_sorted(self.elements[self._membership_mask(other)])

    def _membership_mask(self, other: "IntegerSet") -> np.ndarray:
        """Boolean mask over self.elements: which are members of ``other``."""
        mine, theirs = self.elements, other.elements
        if len(theirs) == 0 or len(mine) == 0:
            return np.zeros(len(mine), dtype=bool)
        idx = np.searchsorted(theirs, mine)
        idx[idx == len(theirs)] = len(theirs) - 1
        return theirs[idx] == mine

    def issubset(self, other: "IntegerSet") -> bool:
        if len(self) > len(other):
            return False
        return bool(self._membership_mask(other).all())

    def ispropersubset(self, other: "IntegerSet") -> bool:
        return len(self) < len(other) and self.issubset(other)

    def contains_interval(self, lo: int, hi: int) -> bool:
        """True iff every integer in [lo, hi] is present (vacuous if lo > hi)."""
        if lo > hi:
            return True
        if self.is_empty or lo < self.min or hi > self.max:
            return False
        els = self.elements
        i = int(np.searchsorted(els, lo))
        j = int(np.searchsorted(els, hi))
        # contiguous block of j - i + 1 entries covering [lo, hi]
        return int(els[i]) == lo and int(els[j]) == hi and (j - i) == (hi - lo)

    def missing_in_interval(self, lo: int, hi: int) -> list[int]:
        """The integers in [lo, hi] that are not elements, ascending."""
        if lo > hi:
            return []
        els = self.elements
        inside = els[(els >= lo) & (els <= hi)]
        window = np.arange(lo, hi + 1, dtype=np.int64)
        return np.setdiff1d(window, inside, assume_unique=True).tolist()

    def shift(self, y: int) -> "IntegerSet":
        """Translate every element by ``y``."""
        return affine(self, 1, y)

    # ---- bit-vector internals ----

    def _bitvector(self) -> tuple[int, int]:
        """(bits, offset) with bit i meaning offset + i is present."""
        if self._bits is None:
            els = self._els
            if len(els) == 0:
                self._bits, self._offset = 0, 0
            else:
                offset = int(els[0])
                width = int(els[-1]) - offset + 1
                buf = np.zeros(width, dtype=np.uint8)
                buf[els - offset] = 1
                packed = np.packbits(buf, bitorder="little")
                self._bits = int.from_bytes(packed.tobytes(), "little")
                self._offset = offset
        return self._bits, self._offset

    def _runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive elements as (start, end) pairs."""
        els = self.elements
        if len(els) == 0:
            return []
        breaks = np.nonzero(np.diff(els) != 1)[0]
        starts = els[np.concatenate(([0], breaks + 1))]
        ends = els[np.concatenate((breaks, [len(els) - 1]))]
        return list(zip(starts.tolist(), ends.tolist()))


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
    if a.is_empty:
        raise InvalidParameterError(f"{op}: set must be nonempty")


def _check_sum_range(a: IntegerSet) -> None:
    if 2 * a.min < INT64_MIN or 2 * a.max > INT64_MAX:
        raise ArithmeticRangeError("sumset would leave signed 64-bit range")


def _check_diff_range(a: IntegerSet) -> None:
    if a.max - a.min > INT64_MAX:
        raise ArithmeticRangeError("difference set would leave signed 64-bit range")


def _check_pair_budget(a: IntegerSet, op: str) -> None:
    if len(a) ** 2 > _WIDE_PAIR_LIMIT:
        raise ResourceLimitError(
            f"{op}: {len(a)} elements over a diameter above {DENSE_DIAMETER_LIMIT} "
            f"would need more than {_WIDE_PAIR_LIMIT} pairs")


def _outer_unique(left: np.ndarray, right: np.ndarray, subtract: bool = False) -> np.ndarray:
    """Unique pairwise sums (or differences) of two int64 arrays, in row blocks.

    The pairwise results themselves are known to fit int64 before this is
    called; subtraction is done directly so no intermediate negation can wrap.
    """
    op = np.subtract if subtract else np.add
    parts = [
        np.unique(op(left[i:i + _OUTER_BLOCK, None], right[None, :]))
        for i in range(0, len(left), _OUTER_BLOCK)
    ]
    return np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]


def sumset(a: IntegerSet) -> IntegerSet:
    """The set of pairwise sums {x + y : x, y in a}. Empty input -> empty."""
    if a.is_empty:
        return IntegerSet()
    _check_sum_range(a)
    if a.diameter <= DENSE_DIAMETER_LIMIT:
        bits, offset = a._bitvector()
        acc = 0
        for start, end in a._runs():
            acc |= _smear(bits, end - start + 1) << (start - offset)
        return IntegerSet._from_bits(acc, 2 * offset)
    _check_pair_budget(a, "sumset")
    els = a.elements
    return IntegerSet._from_sorted(_outer_unique(els, els))


def diffset(a: IntegerSet) -> IntegerSet:
    """The set of pairwise differences {x - y}; symmetric about 0."""
    if a.is_empty:
        return IntegerSet()
    _check_diff_range(a)
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
    els = a.elements
    return IntegerSet._from_sorted(_outer_unique(els, els, subtract=True))


def affine(a: IntegerSet, x: int, y: int) -> IntegerSet:
    """The image {x*e + y : e in a}; requires x != 0.

    Dilation and translation preserve both the sumset and difference-set
    cardinalities, so profiles carry over unchanged.
    """
    if x == 0:
        raise InvalidParameterError("affine: dilation factor x must be nonzero")
    if a.is_empty:
        return IntegerSet()
    # the extremes bound every x*e and x*e + y, so checking them suffices
    for corner in (x * a.min, x * a.max, x * a.min + y, x * a.max + y):
        if not (INT64_MIN <= corner <= INT64_MAX):
            raise ArithmeticRangeError("affine image leaves signed 64-bit range")
    out = a.elements * np.int64(x) + np.int64(y)
    return IntegerSet._from_sorted(out[::-1].copy() if x < 0 else out)


def classify(a: IntegerSet) -> Classification:
    """MSTD, MDTS, or BALANCED by comparing |a+a| with |a-a|."""
    _require_nonempty(a, "classify")
    return profile(a).classification


def symmetry_center(a: IntegerSet) -> Optional[int]:
    """The integer c with c - a == a, if one exists.

    Only c = min + max can work, so that single candidate is checked.
    Symmetric sets are always balanced.
    """
    if a.is_empty:
        return None
    c = a.min + a.max
    els = a.elements
    if INT64_MIN <= c <= INT64_MAX:
        return c if bool(np.array_equal(c - els[::-1], els)) else None
    # c itself can exceed 64 bits even though every c - e is in range
    values = els.tolist()
    return c if all(c - e in a for e in values) else None


def is_pn(a: IntegerSet, n: int) -> bool:
    """Completeness of both hulls except within n of each extreme.

    True iff [2*min + n, 2*max - n] is contained in a+a and
    [-(diam) + n, diam - n] is contained in a-a; vacuously true when the
    ranges are empty.
    """
    _require_nonempty(a, "is_pn")
    if n < 0:
        raise InvalidParameterError("is_pn: n must be nonnegative")
    lo, hi = a.min, a.max
    return (
        sumset(a).contains_interval(2 * lo + n, 2 * hi - n)
        and diffset(a).contains_interval(-(hi - lo) + n, (hi - lo) - n)
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
