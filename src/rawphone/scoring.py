"""Sequence scoring: label mapping, path collapsing, edit distance, corpus report.

Phoneme accuracy is 100 * (N - E) / N with N the reference length and E
the minimal edit distance under unit substitution/deletion/insertion
costs; heavy insertion can push it negative. The S/D/I breakdown comes
from one deterministic minimal alignment (preference match > sub > del >
ins during backtrace) since the split itself need not be unique.
"""

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
    Each DP column is held as two bit vectors along the reference, in
    Python ints (Myers 1999, in Hyyrö's 2001 form for the global
    distance): bit i-1 of vp[j] (vn[j]) is set where D[i][j] - D[i-1][j]
    is +1 (-1). A column costs a dozen integer operations whatever the
    reference length, and the backtrace reads each cell it visits as
    D[i][j] = j + popcount(vp[j] & low_i) - popcount(vn[j] & low_i),
    with low_i = 2^i - 1, all in exact integers.
    """
    n, m = len(ref), len(hyp)
    mask = (1 << n) - 1
    peq = {}  # symbol -> the bits of its positions in ref
    for i, x in enumerate(ref):
        peq[x] = peq.get(x, 0) | (1 << i)
    pv, mv = mask, 0  # column 0: D[i][0] = i
    vp, vn = [pv], [mv]
    for y in hyp:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | 1  # row 0 steps by +1: D[0][j] = j
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        vp.append(pv)
        vn.append(mv)

    def cell(i, j):
        low = (1 << i) - 1
        return j + (vp[j] & low).bit_count() - (vn[j] & low).bit_count()

    subs = dels = ins = 0
    i, j = n, m
    dist = d = cell(n, m)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            if ref[i - 1] == hyp[j - 1]:  # a match: then D[i][j] == D[i-1][j-1]
                i, j = i - 1, j - 1
                continue
            diag = cell(i - 1, j - 1)
            if d == diag + 1:
                subs += 1
                i, j, d = i - 1, j - 1, diag
                continue
        if i > 0:
            up = d - (vp[j] >> (i - 1) & 1) + (vn[j] >> (i - 1) & 1)
            if d == up + 1:
                dels += 1
                i, d = i - 1, up
                continue
        ins += 1
        j, d = j - 1, d - 1
    return dist, (subs, dels, ins)


def corpus_report(sequences):
    """Report rows for (id, reference, hypothesis) triples plus the OVERALL row.

    Returns the rows and the corpus-pooled phoneme accuracy.
    """
    rows = []
    total_n = total_e = 0
    for uid, ref_seq, hyp_seq in sequences:
        n = len(ref_seq)
        if n == 0:
            raise DataError(f"utterance {uid}: empty reference after stripping")
        dist, (subs, dels, ins) = levenshtein(ref_seq, hyp_seq)
        rows.append([uid, n, dist, f"{100.0 * (n - dist) / n:.6f}", subs, dels, ins])
        total_n += n
        total_e += dist
    overall = 100.0 * (total_n - total_e) / total_n if total_n else 0.0
    rows.append(["OVERALL", total_n, total_e, f"{overall:.6f}", "", "", ""])
    return rows, overall
