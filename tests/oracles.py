"""Brute-force references that the library's closed forms and its block CSV
writer are checked against."""

from __future__ import annotations

import math

import numpy as np

from gridpulse.errors import ProtocolError


def correction_scan_oracle(h_own, h_min, h_max, kappa, theta, extra: int = 2):
    """``compute_correction`` by scanning every discretization step s up to
    the crossing plus ``extra``, with the same arithmetic per step."""
    if h_own is None or h_min is None:
        raise ProtocolError("correction needs the self-copy and first-neighbor timestamps")
    half = kappa / 2
    if h_max is None:
        return min(h_own - h_min + 3 * half, 0 * half)
    a = h_own - h_max
    b = h_own - h_min
    s_max = max(0, math.ceil((h_max - h_min) / (8 * kappa))) + extra
    delta = min(max(a + 4 * s * kappa, b - 4 * s * kappa) for s in range(s_max + 1)) - half
    if delta < 0:
        return min(h_own - h_min + 3 * half, 0 * half)
    if delta > theta * kappa:
        return max(h_own - h_max - 3 * half, theta * kappa)
    return delta


def csv_rows_by_field(present, arrays) -> str:
    """The lines below the header that ``report._write_columns`` writes, each
    field formatted on its own: the indices by str(), floats with 17
    significant digits and NaN as an empty field, text as it is."""
    layer, v, k = np.nonzero(present.transpose(0, 2, 1))
    at = (layer, k, v)
    columns = [map(str, index.tolist()) for index in (layer, v, k + 1)]
    columns += [a[at].tolist() if a.dtype == object else
                ("" if math.isnan(x) else "%.17g" % x for x in a[at].tolist()) for a in arrays]
    return "".join(map("%s\n".__mod__, map(",".join, zip(*columns))))
