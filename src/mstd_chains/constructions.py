"""Generators for sum-dominated (MSTD) and difference-dominated (MDTS) sets.

Each generator checks its hypotheses eagerly and raises
InvalidParameterError naming the failed clause: the constructions are only
valid inside their hypotheses, and silent misuse would hand back sets that
do not classify as advertised. Postconditions (hull identities, the
advertised classification) are cheap at the sizes in scope and are always
verified. Only ``interval_minus_point`` and the two explicit
non-filling-in steps take ``check=False``, which the chain generators pass:
they profile every step they emit. The fringe-seed hypotheses of
``miller_mstd`` are checked in one place, which the linear fill-in chain
shares, since its seeds are the same fringe pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .errors import InvalidParameterError
from .intset import (Classification, IntegerSet, affine, classify, diffset,
                     is_pn, sumset)


@dataclass(frozen=True)
class MultiDimAP:
    """A multi-dimensional arithmetic progression.

    Expands to {base + sum(x_i * steps[i])} where each coordinate x_i runs
    over starts[i] .. starts[i] + lengths[i] - 1. Dimension 0 is the single
    point {base}.
    """

    base: int
    steps: tuple[int, ...] = ()
    starts: tuple[int, ...] = ()
    lengths: tuple[int, ...] = ()

    def __post_init__(self):
        if not (len(self.steps) == len(self.starts) == len(self.lengths)):
            raise InvalidParameterError("MultiDimAP: steps/starts/lengths lengths differ")
        if any(k < 1 for k in self.lengths):
            raise InvalidParameterError("MultiDimAP: every length must be >= 1")

    @property
    def dimension(self) -> int:
        return len(self.steps)

    @staticmethod
    def point(value: int) -> "MultiDimAP":
        return MultiDimAP(base=value)

    def expansion(self) -> IntegerSet:
        axes = [range(lo, lo + k) for lo, k in zip(self.starts, self.lengths)]
        return IntegerSet(
            self.base + sum(x * m for x, m in zip(coords, self.steps))
            for coords in product(*axes)
        )


@dataclass(frozen=True)
class NathansonParams:
    """Inputs for the interval-with-hole MSTD construction.

    ``B`` must be a subset of [0, m-1] whose sumset is the full interval
    [0, 2m-2] and whose difference set is [-(m-1), m-1]; ``lstar`` expands
    inside the complement of B with its predecessor in B, and m must not be
    a sum of two lstar elements; k >= 2 controls the ladder length.
    """

    m: int
    B: IntegerSet
    lstar: MultiDimAP
    k: int

    def validate(self) -> None:
        if self.m < 4:
            raise InvalidParameterError("nathanson_mstd: m must be >= 4")
        if self.k < 2:
            raise InvalidParameterError("nathanson_mstd: k must be >= 2")
        B = self.B
        if B.is_empty or not (0 <= B.min and B.max <= self.m - 1):
            raise InvalidParameterError("nathanson_mstd: B must lie inside [0, m-1]")
        if sumset(B) != IntegerSet.interval(0, 2 * self.m - 2):
            raise InvalidParameterError("nathanson_mstd: B+B must equal [0, 2m-2]")
        if diffset(B) != IntegerSet.interval(-(self.m - 1), self.m - 1):
            raise InvalidParameterError("nathanson_mstd: B-B must equal [-(m-1), m-1]")
        ex = self.lstar.expansion()
        if ex.is_empty:
            raise InvalidParameterError("nathanson_mstd: lstar expansion is empty")
        if not (0 <= ex.min and ex.max <= self.m - 1) or not ex.intersection(B).is_empty:
            raise InvalidParameterError(
                "nathanson_mstd: lstar must expand inside [0, m-1] \\ B"
            )
        if (ex.min - 1) not in B:
            raise InvalidParameterError("nathanson_mstd: min(lstar) - 1 must be in B")
        if self.m in sumset(ex):
            raise InvalidParameterError("nathanson_mstd: m must not be in lstar + lstar")


def _require_classification(a: IntegerSet, want: Classification, who: str) -> None:
    got = classify(a)
    if got != want:
        raise AssertionError(f"{who}: output classifies {got.value}, expected {want.value}")


def interval_minus_point(m: int, r: int, check: bool = True) -> IntegerSet:
    """[0, m-1] with the single point r removed.

    Requires m >= 4 and 2 <= r <= m-3; under those bounds the result keeps
    the full sum hull [0, 2m-2] and difference hull [-(m-1), m-1].
    """
    if m < 4:
        raise InvalidParameterError("interval_minus_point: m must be >= 4")
    if not (2 <= r <= m - 3):
        raise InvalidParameterError("interval_minus_point: r must satisfy 2 <= r <= m-3")
    out = IntegerSet.interval(0, m - 1).difference(IntegerSet([r]))
    if check:
        if sumset(out) != IntegerSet.interval(0, 2 * m - 2):
            raise AssertionError("interval_minus_point: sum hull identity failed")
        if diffset(out) != IntegerSet.interval(-(m - 1), m - 1):
            raise AssertionError("interval_minus_point: difference hull identity failed")
    return out


def nathanson_mstd(params: NathansonParams) -> IntegerSet:
    """MSTD set built from an interval-like base, a ladder, and a mirror.

    The ladder is (m - lstar) + m*[1, k]; the mirror is c - B where
    c = (k+3)m - min(lstar) - max(lstar) is the sum of the ladder extremes.
    The output is B, ladder, mirror, and the point m, together.
    """
    params.validate()
    m, B, k = params.m, params.B, params.k
    ex = params.lstar.expansion()
    ladder = IntegerSet(m - s + m * j for s in ex for j in range(1, k + 1))
    c = (k + 3) * m - ex.min - ex.max
    out = B.union(ladder, affine(B, -1, c), IntegerSet([m]))
    _require_classification(out, Classification.MSTD, "nathanson_mstd")
    return out


def mdts_interval_plus_point(m: int, p: int) -> tuple[IntegerSet, int]:
    """[0, m] plus one point p > m+1, with its difference surplus.

    Returns (set, surplus) where surplus = |A-A| - |A+A| equals m when
    p > 2m and p - m - 1 otherwise; the set is always MDTS.
    """
    if m < 1:
        raise InvalidParameterError("mdts_interval_plus_point: m must be >= 1")
    if p <= m + 1:
        raise InvalidParameterError("mdts_interval_plus_point: p must exceed m + 1")
    out = IntegerSet.interval(0, m).union(IntegerSet([p]))
    surplus = m if p > 2 * m else p - m - 1
    got = len(diffset(out)) - len(sumset(out))
    if got != surplus:
        raise AssertionError(
            f"mdts_interval_plus_point: surplus {got}, formula gives {surplus}"
        )
    if got <= 0:
        raise AssertionError("mdts_interval_plus_point: output is not MDTS")
    return out, surplus


def _max_missing_run(middle: IntegerSet, lo: int, hi: int) -> int:
    """Longest run of integers in [lo, hi] absent from ``middle``.

    The window borders count as present, matching how the blocks on either
    side of the window are filled in by the construction.
    """
    pts = [lo - 1] + [e for e in middle] + [hi + 1]
    return max(b - a - 1 for a, b in zip(pts, pts[1:]))


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
    middle = IntegerSet() if middle is None else middle
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
    if _max_missing_run(middle, n + k + 1, n + k + m) > k:
        raise InvalidParameterError(
            "miller_mstd: middle leaves a run of more than k missing elements"
        )
    out = L.union(
        IntegerSet.interval(n + 1, n + k),
        middle,
        IntegerSet.interval(n + k + m + 1, n + 2 * k + m),
        R.shift(2 * k + m),
    )
    _require_classification(out, Classification.MSTD, "miller_mstd")
    return out


_NONFILL_SEED = (0, 1, 2, 5, 8, 9, 10)
_NONFILL_OFFSETS = (6, 7, 9, 10)


def nonfill_explicit_mstd(l: int, check: bool = True) -> IntegerSet:
    """Step 2l-1 of the explicit non-filling-in sequence; always MSTD.

    The seed {0,1,2,5,8,9,10} is extended by 8*[1,l] + {6,7,9,10}. Its
    sumset is [0, 16l+20] minus {21} and its difference set is the full
    interval [-8l-10, 8l+10] minus the pair +-(8l+3), so it has 16l+20
    sums against 16l+19 differences.
    """
    if l < 1:
        raise InvalidParameterError("nonfill_explicit_mstd: l must be >= 1")
    out = IntegerSet(_NONFILL_SEED).union(
        IntegerSet(8 * j + off for j in range(1, l + 1) for off in _NONFILL_OFFSETS)
    )
    if check:
        want_sum = IntegerSet.interval(0, 16 * l + 20).difference(IntegerSet([21]))
        if sumset(out) != want_sum:
            raise AssertionError("nonfill_explicit_mstd: sumset identity failed")
        want_diff = IntegerSet.interval(-8 * l - 10, 8 * l + 10).difference(
            IntegerSet([-(8 * l + 3), 8 * l + 3])
        )
        if diffset(out) != want_diff:
            raise AssertionError("nonfill_explicit_mstd: difference-set identity failed")
    return out


def nonfill_explicit_mdts(l: int, check: bool = True) -> IntegerSet:
    """Step 2l of the explicit non-filling-in sequence; always MDTS.

    Adds the single element 8l+14 to step 2l-1, which brings exactly 4 new
    sums and 6 new differences: 16l+24 sums against 16l+25 differences.
    """
    if l < 1:
        raise InvalidParameterError("nonfill_explicit_mdts: l must be >= 1")
    out = nonfill_explicit_mstd(l, check=False).union(IntegerSet([8 * l + 14]))
    if check:
        if len(sumset(out)) != 16 * l + 24:
            raise AssertionError("nonfill_explicit_mdts: sum count identity failed")
        if len(diffset(out)) != 16 * l + 25:
            raise AssertionError("nonfill_explicit_mdts: difference count identity failed")
    return out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the fringe-pair condition check, with witnesses.

    ``missing`` maps a condition label to the elements of [0, n-1] that are
    absent from the relevant sum combination. Truthiness follows ``passed``.
    """

    mode: str
    passed: bool
    failures: tuple[str, ...]
    missing: dict = field(default_factory=dict)

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
    if n < 1:
        raise InvalidParameterError("check_thm31_conditions: n must be >= 1")
    for name, S in (("L", L), ("R", R)):
        if S.is_empty or S.min < 0 or S.max > n:
            raise InvalidParameterError(
                f"check_thm31_conditions: {name} must be a nonempty subset of [0, n]"
            )
    failures: list[str] = []
    missing: dict = {}
    if n not in L or n not in R:
        failures.append("n must be in both L and R")
    miss_LL = sumset(L).missing_in_interval(0, n - 1)
    miss_RR = sumset(R).missing_in_interval(0, n - 1)
    miss_LR = IntegerSet(l + r for l in L for r in R).missing_in_interval(0, n - 1)
    missing["L+L"] = miss_LL
    missing["R+R"] = miss_RR
    missing["L+R"] = miss_LR
    if mode == "strict":
        if miss_LL:
            failures.append(f"[0, n-1] not covered by L+L (missing {miss_LL})")
        if miss_RR:
            failures.append(f"[0, n-1] not covered by R+R (missing {miss_RR})")
        if not miss_LR:
            failures.append("[0, n-1] must not be fully covered by L+R")
    else:
        if not len(miss_LL) < 2 * len(miss_LR):
            failures.append(
                f"need |missing from L+L| < 2 * |missing from L+R| "
                f"({len(miss_LL)} vs {len(miss_LR)})"
            )
    return ConditionReport(mode=mode, passed=not failures,
                           failures=tuple(failures), missing=missing)


def thm31_base(L: IntegerSet, R: IntegerSet, n: int, m: int,
               mode: str = "strict") -> IntegerSet:
    """First set of the fringe-shift sequence: L | [n, m] | (m + n - R).

    Requires the fringe-pair conditions (strict or generalized), m >= n,
    and that the output's sumset covers [n+1, 2m+n-1] lacking at most one
    element; the output then classifies MSTD.
    """
    report = check_thm31_conditions(L, R, n, mode)
    if not report:
        raise InvalidParameterError(
            "thm31_base: fringe-pair conditions failed: " + "; ".join(report.failures)
        )
    if m < n:
        raise InvalidParameterError("thm31_base: m must be >= n")
    out = L.union(IntegerSet.interval(n, m), affine(R, -1, m + n))
    gap = sumset(out).missing_in_interval(n + 1, 2 * m + n - 1)
    if len(gap) > 1:
        raise InvalidParameterError(
            f"thm31_base: m unsuitable, sumset misses {gap} in [n+1, 2m+n-1]"
        )
    _require_classification(out, Classification.MSTD, "thm31_base")
    return out


def from_config(config: dict) -> IntegerSet:
    """Build a set from a JSON-style parameter bundle.

    The bundle is keyed by construction name, e.g.
    ``{"construction": "mdts_interval_plus_point", "m": 14, "p": 17}``.
    Set-valued fields are element lists; the ladder parameter of
    ``nathanson_mstd`` is {"base": ..., "steps": [...], "starts": [...],
    "lengths": [...]}.
    """
    cfg = dict(config)
    try:
        kind = cfg.pop("construction")
    except KeyError:
        raise InvalidParameterError("from_config: missing 'construction' key") from None
    if kind == "interval_minus_point":
        return interval_minus_point(cfg["m"], cfg["r"])
    if kind == "nathanson_mstd":
        ap = cfg["lstar"]
        params = NathansonParams(
            m=cfg["m"],
            B=IntegerSet(cfg["B"]),
            lstar=MultiDimAP(
                base=ap["base"],
                steps=tuple(ap.get("steps", ())),
                starts=tuple(ap.get("starts", ())),
                lengths=tuple(ap.get("lengths", ())),
            ),
            k=cfg["k"],
        )
        return nathanson_mstd(params)
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
