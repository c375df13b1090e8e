"""Exact sum and difference counts that share no code with ``mstd_chains``.

The benchmark checks every profile the package returns against these.
Two methods are used, chosen by the shape of the input in ``counts``:

* sort-and-count over pairs, for small and scattered sets: form every
  pairwise sum (i <= j) and positive difference (i < j), sort, and count
  distinct values;
* FFT convolution of the indicator vector, for dense sets: a value is a
  sum (difference) iff the convolution (correlation) there is positive.

Both take a plain sequence of Python ints, never an ``IntegerSet``.
"""

from __future__ import annotations

import numpy as np

# Pair arrays are built in row blocks so memory stays at BLOCK * k values.
_BLOCK = 512
# Largest indicator vector the FFT path will allocate (values, not bytes).
FFT_MAX_WIDTH = 1 << 24
# Sets up to this size are counted by pairs whatever their shape.
PAIRS_MAX = 2048


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    values = np.sort(values)
    if len(values) == 0:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct_count(chunks: list[np.ndarray]) -> int:
    return len(_sorted_distinct(np.concatenate(chunks))) if chunks else 0


def pair_counts(elements) -> tuple[int, int]:
    """(|A+A|, |A-A|) by sorting all pairwise sums and differences."""
    els = _sorted_distinct(np.asarray(list(elements), dtype=np.int64))
    k = len(els)
    if k == 0:
        raise ValueError("pair_counts: empty set")
    sums, diffs = [], []
    for lo in range(0, k, _BLOCK):
        rows = els[lo:lo + _BLOCK, None]
        cols = np.arange(k)[None, :]
        upper = cols >= np.arange(lo, min(lo + _BLOCK, k))[:, None]
        sums.append(_sorted_distinct((rows + els[None, :])[upper]))
        strict = cols > np.arange(lo, min(lo + _BLOCK, k))[:, None]
        diffs.append(_sorted_distinct((els[None, :] - rows)[strict]))
    return _distinct_count(sums), 2 * _distinct_count(diffs) + 1


def fft_counts(elements) -> tuple[int, int]:
    """(|A+A|, |A-A|) from the convolution of the indicator vector."""
    els = np.asarray(list(elements), dtype=np.int64)
    if len(els) == 0:
        raise ValueError("fft_counts: empty set")
    lo = int(els.min())
    width = int(els.max()) - lo + 1
    if width > FFT_MAX_WIDTH:
        raise ValueError("fft_counts: set too wide for the FFT reference")
    indicator = np.zeros(width, dtype=np.float64)
    indicator[els - lo] = 1.0
    size = 1 << (2 * width - 1).bit_length()
    spectrum = np.fft.rfft(indicator, size)
    conv = np.fft.irfft(spectrum * spectrum, size)[:2 * width - 1]
    corr = np.fft.irfft(spectrum * np.conj(spectrum), size)
    # circular correlation: lags 0..width-1 then negative lags at the end
    corr = np.concatenate((corr[size - width + 1:], corr[:width]))
    return int(np.count_nonzero(conv > 0.5)), int(np.count_nonzero(corr > 0.5))


def counts(elements) -> tuple[int, int]:
    """(|A+A|, |A-A|) by the method that fits: FFT for large dense sets,
    pairs for small and scattered ones."""
    els = list(elements)
    width = max(els) - min(els) + 1
    if len(els) > PAIRS_MAX and width <= min(FFT_MAX_WIDTH, 64 * len(els)):
        return fft_counts(els)
    return pair_counts(els)


def class_of(sums: int, diffs: int) -> str:
    """'MSTD', 'MDTS' or 'BALANCED' from a pair of counts."""
    return "MSTD" if sums > diffs else "MDTS" if sums < diffs else "BALANCED"


def classify(elements) -> str:
    """The class of a set from the reference counts."""
    return class_of(*counts(elements))
