"""Nested sequences of integer sets alternating between MSTD and MDTS.

Four methods are provided. Two fill in every gap of the previous set
before appending fringe ("fill1" and "fill2"); two never add an element
inside the previous set's span, so every gap stays a gap forever
("nonfill", the explicit sequence, and "thm31", the fringe-shift method
whose difference-dominated steps are found by search).

Each method has a lazy iterator yielding its steps on demand, as bare
:class:`IntegerSet` objects, plus a convenience wrapper that materializes
a :class:`ChainRecord` with profiles. Past thm31's base, which checks the
caller's fringes, the iterators build their steps with the constructions'
unchecked private builders, so each step is checked once: the wrappers
profile it and apply the chain rules. :func:`verify_chain` re-derives
everything from scratch and reports each check with witnesses. The two
chain rules, proper nesting and strict MSTD/MDTS alternation, are written
once: the wrappers raise on the first witness of a broken rule, and
verification lists them all. Whether gaps must stay gaps is carried by
the record itself (``ChainRecord.no_fill_in_required``).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import filterfalse
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import (_check_fringe_seed, _hole_interval, _interval_plus_point,
                            _nathanson_set, _nonfill_add_point, _nonfill_mstd,
                            thm31_base)
from .errors import ArithmeticRangeError, ChainBreakError, InvalidParameterError
from .intset import (Classification, IntegerSet, SetProfile, _integers, _sets,
                     affine, classify, profile)
from . import search
from .rounding import round3_float

@dataclass(frozen=True)
class ChainStep:
    """One set of a chain with its profile."""

    index: int
    set: IntegerSet
    profile: SetProfile


@dataclass(frozen=True)
class ChainRecord:
    """An ordered run of chain steps.

    Generator output always nests strictly and alternates MSTD/MDTS;
    records loaded from JSON may violate either, which is exactly what
    :func:`verify_chain` exists to detect, so nothing is enforced here.
    """

    method: Optional[str]
    steps: tuple[ChainStep, ...]
    no_fill_in_required: bool = False

    def ratios(self) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
        """Per-step (cardinality ratio, diameter ratio) vs the previous step.

        The first step has no predecessor; a zero previous diameter also
        yields None.
        """
        out: list[tuple[Optional[Fraction], Optional[Fraction]]] = [(None, None)]
        for prev, cur in zip(self.steps, self.steps[1:]):
            card = Fraction(cur.profile.cardinality, prev.profile.cardinality)
            diam = (Fraction(cur.profile.diameter, prev.profile.diameter)
                    if prev.profile.diameter > 0 else None)
            out.append((card, diam))
        return out


def chain_to_json(record: ChainRecord) -> str:
    """Serialize a chain as a JSON array of per-step objects.

    Density and ratio fields carry the same 3-decimal values the table
    renderers show; counts are exact integers.
    """
    rows = []
    for step, (card_ratio, diam_ratio) in zip(record.steps, record.ratios()):
        p = step.profile
        rows.append({
            "index": step.index,
            "elements": step.set.to_list(),
            "sums": p.sum_count,
            "diffs": p.diff_count,
            "classification": p.classification.value,
            "card": p.cardinality,
            "diam": p.diameter,
            "density": round3_float(p.density),
            "card_ratio": round3_float(card_ratio),
            "diam_ratio": round3_float(diam_ratio),
        })
    return json.dumps(rows, indent=2)


def _json_int(row: dict, key: str, least: Optional[int] = None) -> int:
    value = row[key]
    if type(value) is not int:  # bool is an int subclass; JSON true is not a count
        raise InvalidParameterError(f"{key!r} must be a JSON integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidParameterError(f"{key!r} must be >= {least}, got {value}")
    return value


def chain_from_json(text: str, no_fill_in_required: bool = False) -> ChainRecord:
    """Rebuild a chain from its JSON array form.

    Elements and the ``index``, ``card``, ``diam``, ``sums`` and ``diffs``
    fields must be JSON integers, ``card`` at least 1 and the other counts
    at least 0. Steps are numbered consecutively: the first ``index`` is at
    least 1, each later one is the previous step's plus one, and a step
    without one takes that number. So an excerpt may start past step 1, but
    no step can claim another's place. Stored counts and classifications
    are kept as read, not recomputed, so verification can catch records
    that disagree with their own elements.
    """
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer past int()'s digit limit, or nesting too deep
        raise InvalidParameterError(f"chain JSON: {exc}") from None
    if not isinstance(rows, list) or not rows:
        raise InvalidParameterError("chain JSON: expected a nonempty array of steps")
    steps = []
    for i, row in enumerate(rows):
        try:
            elements = IntegerSet(row["elements"])
            counts = SetProfile.from_counts(_json_int(row, "card", 1), _json_int(row, "diam", 0),
                                            _json_int(row, "sums", 0), _json_int(row, "diffs", 0))
            stored = replace(counts, classification=Classification(row["classification"]))
            following = steps[-1].index + 1 if steps else 1
            index = _json_int(row, "index", 1) if "index" in row else following
            if steps and index != following:
                raise InvalidParameterError(
                    f"'index' must be {following}, the previous step's plus one, got {index}")
            steps.append(ChainStep(index=index, set=elements, profile=stored))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"chain JSON: step {i + 1}: {exc}") from None
        except ArithmeticRangeError as exc:
            raise ArithmeticRangeError(f"chain JSON: step {i + 1}: {exc}") from None
    return ChainRecord(method=None, steps=tuple(steps),
                       no_fill_in_required=no_fill_in_required)


# ---------------------------------------------------------------------------
# chain generators
# ---------------------------------------------------------------------------

def _rule_witnesses(steps: Sequence[ChainStep], profiles: Sequence[SetProfile]
                    ) -> tuple[list[str], list[str]]:
    """Witnesses against proper nesting and against strict alternation.

    Classifications are read from ``profiles``, one per step. No step may
    be balanced, and no step may share its predecessor's classification.
    """
    nesting = [f"step {b.index} does not properly contain step {a.index}"
               for a, b in zip(steps, steps[1:]) if not a.set.ispropersubset(b.set)]
    kinds = [p.classification for p in profiles]
    alternation = []
    for i, (step, kind) in enumerate(zip(steps, kinds)):
        if kind == Classification.BALANCED:
            alternation.append(f"step {step.index} is balanced")
        elif i and kind == kinds[i - 1]:
            alternation.append(f"step {step.index} classifies {kind.value} after {kind.value}")
    return nesting, alternation


def _assemble(method: str, stream: Iterable[IntegerSet],
              num_steps: int, no_fill_in_required: bool) -> ChainRecord:
    (num_steps,) = _integers("chain", num_steps=num_steps)
    if num_steps < 1:
        raise InvalidParameterError("chain: num_steps must be >= 1")
    steps = [ChainStep(index=index, set=current, profile=profile(current))
             for index, current in zip(range(1, num_steps + 1), stream)]
    nesting, alternation = _rule_witnesses(steps, [s.profile for s in steps])
    if nesting or alternation:
        # the generators are theorem-backed; a violation here is a bug
        raise AssertionError(f"{method}: {(nesting + alternation)[0]}")
    return ChainRecord(method=method, steps=tuple(steps),
                       no_fill_in_required=no_fill_in_required)


def iter_fill1_chain(seed: IntegerSet) -> Iterator[IntegerSet]:
    """Endless fill-in chain: interval-plus-point MDTS steps alternating
    with interval-with-hole MSTD steps, starting from any MSTD seed.

    The seed is translated so its minimum is 0 (translations change
    neither sum nor difference counts).
    """
    _sets("fill1_chain", seed=seed)
    if classify(seed) != Classification.MSTD:
        raise InvalidParameterError("fill1_chain: seed must be MSTD")
    current = affine(seed, 1, -seed.min)
    yield current
    while True:
        m = current.max
        # the MSTD step is an interval of length n = p + 2 for odd p and
        # p + 5 for even p, so the shortest comes from the least odd p > m + 1
        p = m + 3 - m % 2
        yield _interval_plus_point(m, p)
        n = p + 2
        r = n - 3  # p - 1 > m, so the hole misses [0, m] | {p}
        current = _nathanson_set(n, _hole_interval(n, r), IntegerSet([r]), 2)
        yield current


def fill1_chain(seed: IntegerSet, num_steps: int) -> ChainRecord:
    return _assemble("fill1", iter_fill1_chain(seed), num_steps,
                     no_fill_in_required=False)


def iter_fill2_chain(L: IntegerSet, R: IntegerSet, n: int) -> Iterator[IntegerSet]:
    """Endless fill-in chain with linear growth.

    After the seed, step 2l is the filled interval [(1-l)n, (l+1)n] minus
    {n} plus the point (l+2)n, and step 2l+1 re-attaches the shifted
    fringes L - ln - 1 and R + ln. Past the second step every diameter
    grows by exactly n. The seed L | R must meet the hypotheses of
    ``miller_mstd`` and must not contain n, the hole of every filled step.
    """
    (n,) = _integers("fill2_chain", n=n)
    _sets("fill2_chain", L=L, R=R)
    if n in L or n in R:
        raise InvalidParameterError("fill2_chain: n must not be an element of L | R")
    seed = _check_fringe_seed(L, R, n, "fill2_chain")
    yield seed
    l = 1
    while True:
        filled = IntegerSet.interval((1 - l) * n, (l + 1) * n).difference(IntegerSet([n]))
        yield filled.union(IntegerSet([(l + 2) * n]))
        yield affine(L, 1, -l * n - 1).union(filled, affine(R, 1, l * n))
        l += 1


def fill2_chain(L: IntegerSet, R: IntegerSet, n: int, num_steps: int) -> ChainRecord:
    return _assemble("fill2", iter_fill2_chain(L, R, n), num_steps,
                     no_fill_in_required=False)


def iter_nonfill_chain() -> Iterator[IntegerSet]:
    """Endless explicit non-filling-in chain; every new element lands
    beyond the previous maximum."""
    l = 1
    while True:
        mstd = _nonfill_mstd(l)
        yield mstd
        yield _nonfill_add_point(mstd, l)
        l += 1


def nonfill_chain(num_steps: int) -> ChainRecord:
    return _assemble("nonfill", iter_nonfill_chain(), num_steps,
                     no_fill_in_required=True)


def _mdts_interposer(prev: IntegerSet, nxt: IntegerSet) -> Optional[IntegerSet]:
    """First difference-dominated set strictly between prev and nxt.

    Candidates are the proper prefixes of the sorted new elements, tried
    smallest first: a subset that skipped a smaller new element would leave
    a gap that the following step fills, destroying the never-fill-a-gap
    discipline, since every new element eventually lands in nxt. Prefixes
    are exactly the gap-safe choices, and taking the shortest one keeps the
    step deterministic and minimal.
    """
    fresh = nxt.difference(prev).to_list()
    for size in range(1, len(fresh)):
        candidate = prev.union(IntegerSet(fresh[:size]))
        if classify(candidate) == Classification.MDTS:
            return candidate
    return None


def iter_thm31_chain(L: IntegerSet, R: IntegerSet, n: int, m: int,
                     mode: str = "strict") -> Iterator[IntegerSet]:
    """Endless fringe-shift chain.

    Odd steps append the reflected fringe m + (k+1)n - R and are MSTD by
    construction under the strict conditions; in generalized mode each is
    classified, and one that is not MSTD raises ChainBreakError. Each even
    step is searched for among the sets strictly between consecutive odd
    steps and raises ChainBreakError when no difference-dominated one
    exists (existence is not guaranteed).
    """
    _sets("thm31_chain", L=L, R=R)
    current = thm31_base(L, R, n, m, mode)
    yield current
    k = 1
    while True:
        nxt = current.union(affine(R, -1, m + (k + 1) * n))
        even = _mdts_interposer(current, nxt)
        if even is None:
            raise ChainBreakError(2 * k)  # the even step of round k
        yield even
        if mode == "generalized" and (got := classify(nxt)) != Classification.MSTD:
            raise ChainBreakError(2 * k + 1, f"step {2 * k + 1} classifies {got.value}, not MSTD")
        yield nxt
        current = nxt
        k += 1


def thm31_chain(L: IntegerSet, R: IntegerSet, n: int, m: int,
                num_steps: int, mode: str = "strict") -> ChainRecord:
    return _assemble("thm31", iter_thm31_chain(L, R, n, m, mode), num_steps,
                     no_fill_in_required=True)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    witnesses: tuple[str, ...] = ()

    def describe(self) -> str:
        state = "SKIPPED" if self.skipped else ("PASS" if self.passed else "FAIL")
        return "\n    ".join((f"{self.name}: {state}", *self.witnesses))


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [c.describe() for c in self.checks]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


_ORACLE_CARD_LIMIT = 2000


def verify_chain(record: ChainRecord) -> VerificationReport:
    """Re-derive every profile and re-check the chain's structural claims.

    Profiles are recomputed from the raw elements, via the independent
    double-loop oracle up to ``_ORACLE_CARD_LIMIT`` elements and the
    bit-vector engine above it. Checks: stored profiles match, steps nest
    properly, classifications strictly alternate, and (when the record
    requires it) no gap of any step is ever filled by a later step; force
    that last check with ``dataclasses.replace(record,
    no_fill_in_required=True)``. Failures land in the report, not in
    exceptions.
    """
    if len(record.steps) < 2:
        raise InvalidParameterError("verify_chain: chain must have at least 2 steps")

    recomputed: list[SetProfile] = []
    profile_witnesses: list[str] = []
    for step in record.steps:
        if step.set.is_empty:
            profile_witnesses.append(f"step {step.index}: empty set")
            recomputed.append(step.profile)
            continue
        small = len(step.set) <= _ORACLE_CARD_LIMIT
        fresh = search.oracle_profile(step.set) if small else profile(step.set)
        recomputed.append(fresh)
        if fresh != step.profile:
            # card and diam show only when one of them is wrong
            shape = ((step.profile.cardinality, step.profile.diameter)
                     != (fresh.cardinality, fresh.diameter))
            stored, recount = (
                (f"card={p.cardinality}, diam={p.diameter}, " if shape else "")
                + f"sums={p.sum_count}, diffs={p.diff_count}, {p.classification.value}"
                for p in (step.profile, fresh))
            profile_witnesses.append(f"step {step.index}: stored ({stored}) "
                                     f"!= recomputed ({recount})")
    checks = [CheckResult("profiles", not profile_witnesses,
                          witnesses=tuple(profile_witnesses))]

    for name, witnesses in zip(("nesting", "alternation"),
                               _rule_witnesses(record.steps, recomputed)):
        checks.append(CheckResult(name, not witnesses, witnesses=tuple(witnesses)))

    if not record.no_fill_in_required:
        checks.append(CheckResult("no_fill_in", True, skipped=True))
    else:
        gap_witnesses = []
        later = IntegerSet()
        # walk right to left; a gap is violated iff some later step holds it
        for step in reversed(record.steps):
            if not later.is_empty and not step.set.is_empty:
                els = later.elements
                inside = els[bisect_left(els, step.set.min):bisect_right(els, step.set.max)]
                filled = list(filterfalse(set(step.set).__contains__, inside))
                if filled:
                    gap_witnesses.append(f"gaps of step {step.index} filled later: "
                                         + ",".join(map(str, filled)))
            later = later.union(step.set)
        gap_witnesses.reverse()
        checks.append(CheckResult("no_fill_in", not gap_witnesses,
                                  witnesses=tuple(gap_witnesses)))

    return VerificationReport(checks=tuple(checks))
