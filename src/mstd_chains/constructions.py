"""Generators for sum-dominated (MSTD) and difference-dominated (MDTS) sets.

Each generator checks its hypotheses eagerly and raises
InvalidParameterError naming the failed clause: the constructions are only
valid inside their hypotheses, and silent misuse would hand back sets that
do not classify as advertised. Postconditions (hull identities, the
advertised classification) are cheap at the sizes in scope and are always
verified; no construction takes a switch to skip them. The chain
generators, which profile every step they emit anyway, build their steps
with the unchecked private builders these functions wrap. The fringe-seed
hypotheses of ``miller_mstd`` are checked in one place, which the linear
fill-in chain shares, since its seeds are the same fringe pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Optional

from .errors import InvalidParameterError
from .intset import (Classification, IntegerSet, _gaps, _integers, _sets, affine,
                     classify, diffset, is_pn, sumset)


def _require_classification(a: IntegerSet, who: str) -> None:
    got = classify(a)
    if got != Classification.MSTD:
        raise AssertionError(f"{who}: output classifies {got.value}, expected MSTD")


def _hole_interval(m: int, r: int) -> IntegerSet:
    """[0, m-1] without r, unchecked."""
    return IntegerSet.interval(0, m - 1).difference(IntegerSet([r]))


def interval_minus_point(m: int, r: int) -> IntegerSet:
    """[0, m-1] with the single point r removed.

    Requires m >= 4 and 2 <= r <= m-3; under those bounds the result keeps
    the full sum hull [0, 2m-2] and difference hull [-(m-1), m-1].
    """
    m, r = _integers("interval_minus_point", m=m, r=r)
    if m < 4:
        raise InvalidParameterError("interval_minus_point: m must be >= 4")
    if not (2 <= r <= m - 3):
        raise InvalidParameterError("interval_minus_point: r must satisfy 2 <= r <= m-3")
    out = _hole_interval(m, r)
    if sumset(out) != IntegerSet.interval(0, 2 * m - 2):
        raise AssertionError("interval_minus_point: sum hull identity failed")
    if diffset(out) != IntegerSet.interval(-(m - 1), m - 1):
        raise AssertionError("interval_minus_point: difference hull identity failed")
    return out


def _nathanson_set(m: int, B: IntegerSet, lstar: IntegerSet, k: int) -> IntegerSet:
    """B, the ladder (m - lstar) + m*[1, k], its mirror and the point m, unchecked."""
    ladder = IntegerSet(m - s + m * j for s in lstar for j in range(1, k + 1))
    c = (k + 3) * m - lstar.min - lstar.max
    return B.union(ladder, affine(B, -1, c), IntegerSet([m]))


def nathanson_mstd(m: int, B: IntegerSet, lstar: IntegerSet, k: int) -> IntegerSet:
    """MSTD set built from an interval-like base, a ladder, and a mirror.

    ``B`` must be a subset of [0, m-1] whose sumset is the full interval
    [0, 2m-2] and whose difference set is [-(m-1), m-1]; ``lstar`` is a
    nonempty set inside the complement of B with its predecessor in B, and
    m must not be a sum of two lstar elements; k >= 2 controls the ladder
    length. m and k are integers.

    The ladder is (m - lstar) + m*[1, k]; the mirror is c - B where
    c = (k+3)m - min(lstar) - max(lstar) is the sum of the ladder extremes.
    The output is B, ladder, mirror, and the point m, together.
    """
    m, k = _integers("nathanson_mstd", m=m, k=k)
    _sets("nathanson_mstd", B=B, lstar=lstar)
    if m < 4:
        raise InvalidParameterError("nathanson_mstd: m must be >= 4")
    if k < 2:
        raise InvalidParameterError("nathanson_mstd: k must be >= 2")
    if B.is_empty or not (0 <= B.min and B.max <= m - 1):
        raise InvalidParameterError("nathanson_mstd: B must lie inside [0, m-1]")
    if sumset(B) != IntegerSet.interval(0, 2 * m - 2):
        raise InvalidParameterError("nathanson_mstd: B+B must equal [0, 2m-2]")
    if diffset(B) != IntegerSet.interval(-(m - 1), m - 1):
        raise InvalidParameterError("nathanson_mstd: B-B must equal [-(m-1), m-1]")
    if lstar.is_empty:
        raise InvalidParameterError("nathanson_mstd: lstar must be nonempty")
    if not (0 <= lstar.min and lstar.max <= m - 1) or not lstar.intersection(B).is_empty:
        raise InvalidParameterError("nathanson_mstd: lstar must lie inside [0, m-1] \\ B")
    if (lstar.min - 1) not in B:
        raise InvalidParameterError("nathanson_mstd: min(lstar) - 1 must be in B")
    if m in sumset(lstar):
        raise InvalidParameterError("nathanson_mstd: m must not be in lstar + lstar")
    out = _nathanson_set(m, B, lstar, k)
    _require_classification(out, "nathanson_mstd")
    return out


def _interval_plus_point(m: int, p: int) -> IntegerSet:
    """[0, m] plus the point p, unchecked."""
    return IntegerSet.interval(0, m).union(IntegerSet([p]))


def mdts_interval_plus_point(m: int, p: int) -> tuple[IntegerSet, int]:
    """[0, m] plus one point p > m+1, with its difference surplus.

    Returns (set, surplus) where surplus = |A-A| - |A+A| equals m when
    p > 2m and p - m - 1 otherwise; the set is always MDTS.
    """
    m, p = _integers("mdts_interval_plus_point", m=m, p=p)
    if m < 1:
        raise InvalidParameterError("mdts_interval_plus_point: m must be >= 1")
    if p <= m + 1:
        raise InvalidParameterError("mdts_interval_plus_point: p must exceed m + 1")
    out = _interval_plus_point(m, p)
    surplus = m if p > 2 * m else p - m - 1
    got = len(diffset(out)) - len(sumset(out))
    if got != surplus:
        raise AssertionError(
            f"mdts_interval_plus_point: surplus {got}, formula gives {surplus}"
        )
    return out, surplus


def _check_fringe_seed(L: IntegerSet, R: IntegerSet, n: int, who: str) -> IntegerSet:
    """Return L | R after checking the fringe-seed hypotheses of ``miller_mstd``.

    ``who`` prefixes the message of the first clause that fails.
    """
    if n < 1:
        raise InvalidParameterError(f"{who}: n must be >= 1")
    if L.is_empty or L.min < 1 or L.max > n:
        raise InvalidParameterError(f"{who}: L must be a nonempty subset of [1, n]")
    if R.is_empty or R.min < n + 1 or R.max > 2 * n:
        raise InvalidParameterError(f"{who}: R must be a nonempty subset of [n+1, 2n]")
    seed = L.union(R)
    if 1 not in seed:
        raise InvalidParameterError(f"{who}: 1 must be an element of L | R")
    if 2 * n not in seed:
        raise InvalidParameterError(f"{who}: 2n must be an element of L | R")
    if not is_pn(seed, n):
        raise InvalidParameterError(f"{who}: L | R must have complete hulls "
                                    "except within n of each extreme")
    if classify(seed) != Classification.MSTD:
        raise InvalidParameterError(f"{who}: L | R must be MSTD")
    return seed


def miller_mstd(L: IntegerSet, R: IntegerSet, n: int, k: int, m: int,
                middle: Optional[IntegerSet] = None) -> IntegerSet:
    """Stretch a fringe-complete MSTD set L | R by inserting middle blocks.

    L lives in [1, n], R in [n+1, 2n], their union contains 1 and 2n, is
    MSTD, and has complete sum/difference hulls except within n of each
    extreme. For k >= n and any filler ``middle`` inside [n+k+1, n+k+m]
    that avoids n+k+1 and never leaves more than k consecutive holes, the
    output L | [n+1, n+k] | middle | [n+k+m+1, n+2k+m] | (R + 2k + m)
    is again MSTD.
    """
    n, k, m = _integers("miller_mstd", n=n, k=k, m=m)
    middle = IntegerSet() if middle is None else middle
    _sets("miller_mstd", L=L, R=R, middle=middle)
    _check_fringe_seed(L, R, n, "miller_mstd")
    if k < n:
        raise InvalidParameterError("miller_mstd: k must be >= n")
    if m < 0:
        raise InvalidParameterError("miller_mstd: m must be >= 0")
    if not middle.is_empty:
        if middle.min < n + k + 1 or middle.max > n + k + m:
            raise InvalidParameterError("miller_mstd: middle must lie inside [n+k+1, n+k+m]")
        if (n + k + 1) in middle:
            raise InvalidParameterError("miller_mstd: n+k+1 must not be in middle")
    if max(map(len, _gaps(middle, n + k + 1, n + k + m)), default=0) > k:
        raise InvalidParameterError(
            "miller_mstd: middle leaves a run of more than k missing elements"
        )
    out = L.union(
        IntegerSet.interval(n + 1, n + k),
        middle,
        IntegerSet.interval(n + k + m + 1, n + 2 * k + m),
        R.shift(2 * k + m),
    )
    _require_classification(out, "miller_mstd")
    return out


_NONFILL_SEED = (0, 1, 2, 5, 8, 9, 10)
_NONFILL_OFFSETS = (6, 7, 9, 10)


def _nonfill_mstd(l: int) -> IntegerSet:
    """Step 2l-1 of the non-filling-in sequence, unchecked."""
    return IntegerSet(_NONFILL_SEED).union(
        IntegerSet(8 * j + off for j in range(1, l + 1) for off in _NONFILL_OFFSETS)
    )


def _nonfill_add_point(mstd: IntegerSet, l: int) -> IntegerSet:
    """Step 2l from step 2l-1 (``mstd``) of the non-filling-in sequence."""
    return mstd.union(IntegerSet([8 * l + 14]))


def nonfill_explicit_mstd(l: int) -> IntegerSet:
    """Step 2l-1 of the explicit non-filling-in sequence; always MSTD.

    The seed {0,1,2,5,8,9,10} is extended by 8*[1,l] + {6,7,9,10}. Its
    sumset is [0, 16l+20] minus {21} and its difference set is the full
    interval [-8l-10, 8l+10] minus the pair +-(8l+3), so it has 16l+20
    sums against 16l+19 differences.
    """
    (l,) = _integers("nonfill_explicit_mstd", l=l)
    if l < 1:
        raise InvalidParameterError("nonfill_explicit_mstd: l must be >= 1")
    out = _nonfill_mstd(l)
    if sumset(out) != IntegerSet.interval(0, 16 * l + 20).difference(IntegerSet([21])):
        raise AssertionError("nonfill_explicit_mstd: sumset identity failed")
    holes = IntegerSet([-(8 * l + 3), 8 * l + 3])
    if diffset(out) != IntegerSet.interval(-8 * l - 10, 8 * l + 10).difference(holes):
        raise AssertionError("nonfill_explicit_mstd: difference-set identity failed")
    return out


def nonfill_explicit_mdts(l: int) -> IntegerSet:
    """Step 2l of the explicit non-filling-in sequence; always MDTS.

    Adds the single element 8l+14 to step 2l-1, which brings exactly 4 new
    sums and 6 new differences: 16l+24 sums against 16l+25 differences.
    """
    (l,) = _integers("nonfill_explicit_mdts", l=l)
    if l < 1:
        raise InvalidParameterError("nonfill_explicit_mdts: l must be >= 1")
    out = _nonfill_add_point(_nonfill_mstd(l), l)
    if len(sumset(out)) != 16 * l + 24:
        raise AssertionError("nonfill_explicit_mdts: sum count identity failed")
    if len(diffset(out)) != 16 * l + 25:
        raise AssertionError("nonfill_explicit_mdts: difference count identity failed")
    return out


def _missing(a: IntegerSet, lo: int, hi: int) -> tuple[int, list[int]]:
    """How many integers of [lo, hi] are not in ``a``, and the first ten of them.

    Both come from the gaps between the runs of ``a``, so neither the cost
    nor the output grows with the number of elements or the width of the
    window.
    """
    gaps = _gaps(a, lo, hi)
    return sum(g.stop - g.start for g in gaps), list(islice(chain.from_iterable(gaps), 10))


def _describe(count: int, first: list[int]) -> str:
    """``first`` as a list, with the full count when the list is cut short."""
    return str(first) if count == len(first) else f"{count} values, first {first}"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the fringe-pair condition check, with witnesses.

    ``missing`` maps a condition label to the first ten elements of [0, n-1]
    absent from the relevant sum combination, and ``missing_count`` to how
    many are absent. Truthiness follows ``passed``.
    """

    passed: bool
    failures: tuple[str, ...]
    missing: dict = field(default_factory=dict)
    missing_count: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def check_thm31_conditions(L: IntegerSet, R: IntegerSet, n: int,
                           mode: str = "strict") -> ConditionReport:
    """Check the fringe-pair hypotheses on L, R inside [0, n].

    Strict mode requires: n in both L and R; [0, n-1] covered by L+L and
    by R+R; and [0, n-1] NOT covered by L+R (the uncovered value is what
    punches the hole in the difference set). Generalized mode keeps the
    first requirement and instead asks that fewer than twice as many
    values of [0, n-1] are missing from L+L as from L+R.
    """
    if mode not in ("strict", "generalized"):
        raise InvalidParameterError("check_thm31_conditions: mode must be "
                                    "'strict' or 'generalized'")
    (n,) = _integers("check_thm31_conditions", n=n)
    _sets("check_thm31_conditions", L=L, R=R)
    if n < 1:
        raise InvalidParameterError("check_thm31_conditions: n must be >= 1")
    for name, S in (("L", L), ("R", R)):
        if S.is_empty or S.min < 0 or S.max > n:
            raise InvalidParameterError(
                f"check_thm31_conditions: {name} must be a nonempty subset of [0, n]"
            )
    failures: list[str] = []
    if n not in L or n not in R:
        failures.append("n must be in both L and R")
    # with s = 2n + 1, the sums of (L - s) | R fall in three disjoint
    # windows: L+L shifted by -2s, L+R by -s and R+R by 0
    s = 2 * n + 1
    sums = sumset(L.shift(-s).union(R))
    count, missing = {}, {}
    for label, shift in (("L+L", 2 * s), ("R+R", 0), ("L+R", s)):
        count[label], first = _missing(sums, -shift, n - 1 - shift)
        missing[label] = [v + shift for v in first]
    if mode == "strict":
        for label in ("L+L", "R+R"):
            if count[label]:
                failures.append(f"[0, n-1] not covered by {label} "
                                f"(missing {_describe(count[label], missing[label])})")
        if not count["L+R"]:
            failures.append("[0, n-1] must not be fully covered by L+R")
    elif not count["L+L"] < 2 * count["L+R"]:
        failures.append(f"need |missing from L+L| < 2 * |missing from L+R| "
                        f"({count['L+L']} vs {count['L+R']})")
    return ConditionReport(passed=not failures, failures=tuple(failures),
                           missing=missing, missing_count=count)


def thm31_base(L: IntegerSet, R: IntegerSet, n: int, m: int,
               mode: str = "strict") -> IntegerSet:
    """First set of the fringe-shift sequence: L | [n, m] | (m + n - R).

    Requires the fringe-pair conditions (strict or generalized), m >= n,
    and that the output's sumset covers [n+1, 2m+n-1] lacking at most one
    element. The strict conditions then make the output MSTD; the
    generalized ones do not always, and a base that is not MSTD is refused.
    """
    n, m = _integers("thm31_base", n=n, m=m)
    _sets("thm31_base", L=L, R=R)
    report = check_thm31_conditions(L, R, n, mode)
    if not report:
        raise InvalidParameterError(
            "thm31_base: fringe-pair conditions failed: " + "; ".join(report.failures)
        )
    if m < n:
        raise InvalidParameterError("thm31_base: m must be >= n")
    out = L.union(IntegerSet.interval(n, m), affine(R, -1, m + n))
    gap = _missing(sumset(out), n + 1, 2 * m + n - 1)
    if gap[0] > 1:
        raise InvalidParameterError(
            f"thm31_base: m unsuitable, sumset misses {_describe(*gap)} in [n+1, 2m+n-1]"
        )
    got = classify(out)
    if got != Classification.MSTD:
        raise InvalidParameterError(f"thm31_base: the base classifies {got.value}, not MSTD")
    return out


def from_config(config: dict) -> IntegerSet:
    """Build a set from a JSON-style parameter bundle.

    The bundle is keyed by construction name, e.g.
    ``{"construction": "mdts_interval_plus_point", "m": 14, "p": 17}``.
    Set-valued fields, ``lstar`` among them, are element lists.
    """
    cfg = dict(config)
    try:
        kind = cfg.pop("construction")
    except KeyError:
        raise InvalidParameterError("from_config: missing 'construction' key") from None
    if kind == "interval_minus_point":
        return interval_minus_point(cfg["m"], cfg["r"])
    if kind == "nathanson_mstd":
        return nathanson_mstd(cfg["m"], IntegerSet(cfg["B"]), IntegerSet(cfg["lstar"]), cfg["k"])
    if kind == "mdts_interval_plus_point":
        return mdts_interval_plus_point(cfg["m"], cfg["p"])[0]
    if kind == "miller_mstd":
        return miller_mstd(
            IntegerSet(cfg["L"]), IntegerSet(cfg["R"]), cfg["n"], cfg["k"],
            cfg["m"], IntegerSet(cfg.get("middle", ())),
        )
    if kind == "nonfill_explicit_mstd":
        return nonfill_explicit_mstd(cfg["l"])
    if kind == "nonfill_explicit_mdts":
        return nonfill_explicit_mdts(cfg["l"])
    if kind == "thm31_base":
        return thm31_base(IntegerSet(cfg["L"]), IntegerSet(cfg["R"]),
                          cfg["n"], cfg["m"], cfg.get("mode", "strict"))
    raise InvalidParameterError(f"from_config: unknown construction {kind!r}")
