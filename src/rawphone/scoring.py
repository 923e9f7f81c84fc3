"""Sequence scoring: label mapping, path collapsing and Levenshtein edit distance.

Phoneme accuracy is 100 * (N - E) / N with N the reference length and E
the minimal edit distance under unit substitution/deletion/insertion
costs; heavy insertion can push it negative. The S/D/I breakdown comes
from one deterministic minimal alignment (preference match > sub > del >
ins during backtrace) since the split itself need not be unique.
"""

import numpy as np

from .errors import DataError


def read_mapping(path):
    """Parse a many-to-one mapping file: `source target` per line."""
    table = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected `source target`, got {line!r}")
            table[parts[0]] = parts[1]
    return table


def map_labels(seq, table):
    """Apply a many-to-one label table elementwise."""
    out = []
    for sym in seq:
        if sym not in table:
            raise DataError(f"symbol {sym!r} has no mapping")
        out.append(table[sym])
    return out


def collapse_path(labels, strip=None):
    """Merge maximal runs of identical labels into single tokens.

    With `strip` set, tokens equal to it are removed after collapsing
    (adjacent survivors are not re-merged).
    """
    seq = list(labels)
    if not seq:
        raise ValueError("cannot collapse an empty sequence")
    out = [seq[0]]
    for x in seq[1:]:
        if x != out[-1]:
            out.append(x)
    if strip is not None:
        out = [x for x in out if x != strip]
    return out


def levenshtein(ref, hyp):
    """Edit distance plus one minimal (substitutions, deletions, insertions).

    The distance is unique; the breakdown follows the deterministic
    backtrace preference match > substitution > deletion > insertion.
    Each DP row takes three array operations: X[0] = i and
    X[k] = min(D[i-1, k-1] + cost, D[i-1, k] + 1) cover substitution and
    deletion, and the running minimum D[i, j] = j + min_{k<=j} (X[k] - k)
    adds the insertion chains, all in exact integers.
    """
    codes = {}
    r = [codes.setdefault(x, len(codes)) for x in ref]
    h = [codes.setdefault(x, len(codes)) for x in hyp]
    n, m = len(r), len(h)
    h_codes = np.array(h, dtype=np.int64)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    k = np.arange(m + 1)
    d[0] = k
    x = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        x[0] = i
        np.minimum(d[i - 1, :-1] + (h_codes != r[i - 1]), d[i - 1, 1:] + 1, out=x[1:])
        x -= k
        np.minimum.accumulate(x, out=d[i])
        d[i] += k
    d = d.tolist()
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and r[i - 1] == h[j - 1] and d[i][j] == d[i - 1][j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return d[n][m], (subs, dels, ins)
