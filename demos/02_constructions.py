"""One generator per construction, each with checked hypotheses.

Every generator validates its preconditions eagerly (the constructions are
only guaranteed inside them) and re-checks its advertised postcondition on
the way out.
"""

from mstd_chains import (IntegerSet, InvalidParameterError, check_thm31_conditions,
                         interval_minus_point, mdts_interval_plus_point,
                         miller_mstd, nathanson_mstd, nonfill_explicit_mdts,
                         nonfill_explicit_mstd, profile, thm31_base)


def show(label, a):
    p = profile(a)
    print(f"{label}: |A+A|={p.sum_count} |A-A|={p.diff_count} "
          f"{p.classification.value}  card={p.cardinality} diam={p.diameter}")


# An interval with one interior hole keeps both hulls complete.
b = interval_minus_point(19, 16)
print("B = [0,18] \\ {16}  ->  B+B = [0,36], B-B = [-18,18]")
show("  profile", b)
print()

# Base-and-mirror MSTD construction on top of such a B.
a3 = nathanson_mstd(19, b, IntegerSet([16]), 2)
show("base+ladder+mirror", a3)
print("  ladder {22, 41} and apex 63:", IntegerSet([22, 41]).issubset(a3), a3.max)
print()

# An interval plus one far point is always difference-dominated, with a
# surplus given in closed form.
for m, p in ((14, 17), (2, 10)):
    a, surplus = mdts_interval_plus_point(m, p)
    show(f"[0,{m}] + {{{p}}} (surplus {surplus})", a)
print()

# Stretching a fringe-complete MSTD seed keeps it MSTD.
L, R = IntegerSet([1, 3, 4, 8, 9]), IntegerSet([12, 13, 15, 18, 19, 20])
show("stretched seed (k=10)", miller_mstd(L, R, n=10, k=10, m=1))
show("stretched seed (k=25)", miller_mstd(L, R, n=10, k=25, m=1))
print()

# The explicit non-filling-in family: closed-form hulls at every step.
for l in (1, 2, 10):
    show(f"non-fill step {2 * l - 1}", nonfill_explicit_mstd(l))
    show(f"non-fill step {2 * l}", nonfill_explicit_mdts(l))
print()

# Fringe pairs: the strict conditions, and the generalized counting form.
L8, R8 = IntegerSet([0, 1, 2, 5, 8]), IntegerSet([0, 1, 3, 4, 8])
print("strict fringe conditions (n=8):",
      check_thm31_conditions(L8, R8, 8).passed)
show("fringe-shift base (n=8, m=10)", thm31_base(L8, R8, 8, 10))

L7, R7 = IntegerSet([0, 1, 3, 7]), IntegerSet([0, 1, 2, 4, 7])
report = check_thm31_conditions(L7, R7, 7, mode="strict")
print("strict conditions (n=7):", report.passed, "-", report.failures[0])
print("generalized conditions (n=7):",
      check_thm31_conditions(L7, R7, 7, mode="generalized").passed)
show("fringe-shift base (n=7, m=8)",
     thm31_base(L7, R7, 7, 8, mode="generalized"))
print()

# Hypothesis violations are named, never silent.
try:
    interval_minus_point(5, 4)
except InvalidParameterError as exc:
    print("rejected:", exc)
