"""Infinite nested sequences alternating between MSTD and MDTS.

Each chain method produces A_1 properly contained in A_2 contained in ...
with classifications strictly alternating. Two methods fill in the gaps of
the previous set before appending fringe; two never touch the interior, so
every gap stays a gap forever.
"""

from dataclasses import replace
from itertools import islice

from mstd_chains import (CONWAY_SET, IntegerSet, emit_table, fill1_chain,
                         fill2_chain, iter_nonfill_chain, nonfill_chain,
                         thm31_chain, verify_chain)

print("== fill-in method 1: works from ANY MSTD seed, grows exponentially ==")
record = fill1_chain(CONWAY_SET, 7)
print(emit_table(record))

print("== fill-in method 2: linear growth from a fringe-complete seed ==")
L, R = IntegerSet([1, 3, 4, 8, 9]), IntegerSet([12, 13, 15, 18, 19, 20])
print(emit_table(fill2_chain(L, R, 10, 7)))

print("== non-filling-in: every new element lands beyond the previous max ==")
nf = nonfill_chain(7)
print(emit_table(nf))

print("== fringe-shift: MSTD steps by construction, MDTS steps by search ==")
L8, R8 = IntegerSet([0, 1, 2, 5, 8]), IntegerSet([0, 1, 3, 4, 8])
ts = thm31_chain(L8, R8, 8, 10, 7)
print(emit_table(ts))

# Chains are streamed lazily; a step budget is all that bounds them.
print("first elements added at each of 12 lazy non-fill steps:")
previous = None
for a in islice(iter_nonfill_chain(), 12):
    fresh = a if previous is None else a.difference(previous)
    print("  +", fresh.to_text())
    previous = a
print()

# Verification re-derives everything from scratch. A non-filling-in chain
# carries the gap check in its record; a fill-in chain skips it.
print("non-fill chain verification:")
print(verify_chain(nf))
print()

print("fill-in chains do fill gaps; forcing the gap check exposes that:")
report = verify_chain(replace(record, no_fill_in_required=True))
print(report)
