"""Finite integer-set algebra, MSTD/MDTS constructions, and alternating chains.

A set A is MSTD (more sums than differences) when |A+A| > |A-A| and MDTS
when the inequality flips. This package computes sumsets and difference
sets exactly, ships one generator per construction with checked
hypotheses, builds arbitrarily long nested sequences that alternate
between the two classes, and brute-forces desk-scale facts about the MSTD
landscape with an independent oracle.
"""

from .chains import (ChainRecord, ChainStep, VerificationReport, chain_from_json,
                     chain_to_json, fill1_chain, fill2_chain, iter_fill1_chain,
                     iter_fill2_chain, iter_nonfill_chain, iter_thm31_chain,
                     nonfill_chain, thm31_chain, verify_chain)
from .constructions import (ConditionReport, check_thm31_conditions,
                            from_config, interval_minus_point,
                            mdts_interval_plus_point, miller_mstd,
                            nathanson_mstd, nonfill_explicit_mdts,
                            nonfill_explicit_mstd, thm31_base)
from .errors import (ArithmeticRangeError, ChainBreakError,
                     InvalidParameterError, ResourceLimitError)
from .intset import (Classification, IntegerSet, SetProfile, affine, classify,
                     diffset, is_pn, profile, sumset, symmetry_center)
from .report import (GOLDEN_TABLES, KNOWN_DISCREPANCIES, MethodGrowth,
                     TableComparison, compare_to_golden, emit_growth_summary,
                     emit_table, growth_rows)
from .search import (SearchReport, exhaustive_by_diameter, find_fill2_seeds,
                     min_cardinality_scan, oracle_profile,
                     sample_mstd_proportion, wilson_interval)

__version__ = "0.1.0"

CONWAY_SET = IntegerSet([0, 2, 3, 4, 7, 11, 12, 14])
