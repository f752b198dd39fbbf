"""Composition partition-function table Z(N, n) and its identities.

Z(N, n) sums prod_i w_{d_i+1} over all length-N compositions d_1+...+d_N = n.
Everything about the tree measure reduces to this table:

  Z_N                = Z(N, N-1) / N             (trees with N edges)
  P(sigma(s) = k+1)  ~ k w_{k+1} Z(N-1, N-1-k)

The table is built row by row in the log domain; each row is a log-domain
convolution of the previous row with the weight sequence, evaluated with a
per-entry max shift so that entries thousands of log-units apart stay
accurate.  The convolution runs in blocks of output entries that skip the
structural zeros (the d > n padding and weights past a custom table's end),
and keeps np.exp on its fast path: shifted values below -746 are the exact
0 np.exp gives there, and those in [-746, -707.5) are certified, not
computed, by two sums that bound the row's and agree.  Row sums keep the
full width, so numpy's pairwise summation groups the same terms and the
table is bit for bit the per-entry log-sum-exp.  log_row computes one row
without the table, by the power-of-series recurrence, in O(N^2) time and
O(N) memory, and log_z_n reads log Z_N from it.  For families with rational
weights, exact_corner computes a corner of the same table in Fractions.
"""

from __future__ import annotations

import json
import math
import os
import struct
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .weights import LOG_ZERO, WeightSequence

DEFAULT_N_MAX_CAP = 1500

_MAGIC = b"SGTZ"
_VERSION = 1


class TableSizeError(ValueError):
    """Requested table exceeds the configured desk-scale budget."""


_ROW_BLOCK = 64  # output entries per block of the row convolution
_EXP_FAST = -707.5  # np.exp is on its fast path at and above this input
_EXP_ZERO = -746.0  # and returns exactly 0 below this one
_EXP_BAND_MAX = math.exp(-707.0)  # above np.exp of every input below _EXP_FAST


def _exp_row_sums(m: np.ndarray, slow: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Row sums of np.exp(m) in the scratch terms, 0 past m's c columns, bit
    for bit; slow marks m < _EXP_FAST, -inf entries optional.  With no value
    in the band [_EXP_ZERO, _EXP_FAST) this is one np.exp call (0 below the
    band, at a few ns).  Else each row sum, a fixed tree of monotone IEEE
    additions, lies between its sums with the band as 0 and as _EXP_BAND_MAX;
    only rows where those differ get np.exp of the whole row."""
    block = terms[:, : m.shape[1]]
    band = slow & (m >= _EXP_ZERO) if slow.any() else slow
    if not band.any():
        np.exp(m, out=block)
        return terms.sum(axis=1)
    np.exp(np.maximum(m, _EXP_FAST, out=block), out=block)
    np.copyto(block, 0.0, where=m < _EXP_FAST)  # the -inf padding too; below _EXP_ZERO np.exp gives 0
    s = terms.sum(axis=1)  # s_lo
    np.copyto(block, _EXP_BAND_MAX, where=band)
    fix = np.flatnonzero(terms.sum(axis=1) != s)  # rows with s_lo < s_hi
    block[fix] = np.exp(m[fix])
    s[fix] = terms[fix].sum(axis=1)
    return s


def _log_conv_row(prev: np.ndarray, log_terms: np.ndarray) -> np.ndarray:
    """out[n] = logsumexp_d (log_terms[d] + prev[n-d]), d = 0..n.

    prev and log_terms have equal length W; the result has length W.  Each
    entry is shifted by its own max and summed over the full window, so the
    result is bit for bit the per-entry log-sum-exp; only work whose result
    is a known 0 is skipped:

    - entries are computed in blocks of _ROW_BLOCK rows [a, b), which read
      only columns d < b (the rest of their rows is the d > n padding) and
      no column past the last finite log term (a custom table's end);
    - shifted values in [_EXP_ZERO, _EXP_FAST), where np.exp runs ~100x
      slower, are certified, not computed (see _exp_row_sums).

    Each row's sum still runs over the full width W, with zeros past the
    block: numpy's pairwise summation groups the terms by the length summed,
    so a shorter sum would round differently.
    """
    w = prev.shape[0]
    finite_terms = np.flatnonzero(log_terms > -np.inf)
    hi = int(finite_terms[-1]) + 1 if finite_terms.size else 1  # columns d >= hi add 0
    rev = np.full(2 * w - 1, -np.inf)
    rev[:w] = prev[::-1]
    t = sliding_window_view(rev, w)[::-1]  # t[n, d] = prev[n-d], unit stride along d
    rows = min(_ROW_BLOCK, w)
    below_diag = np.tri(rows, dtype=bool)  # [i, j]: column a+j is inside row a+i
    shifted = np.empty(rows * min(w, hi))
    terms = np.zeros((rows, w))
    out = np.empty(w)
    for a in range(0, w, rows):
        b = min(a + rows, w)
        c = min(b, hi)
        m = shifted[: (b - a) * c].reshape(b - a, c)
        np.add(t[a:b, :c], log_terms[:c], out=m)
        mx = m.max(axis=1)
        np.subtract(m, np.where(mx > -np.inf, mx, 0.0)[:, None], out=m)
        slow = m < _EXP_FAST
        if c > a:
            slow[:, a:] &= below_diag[: b - a, : c - a]  # the d > n padding stays -inf: exp gives 0
        s = _exp_row_sums(m, slow, terms[: b - a])
        np.log(s, out=s, where=s > 0)
        out[a:b] = mx + s  # a row with no finite term has mx = -inf and s = 0
    return out


class ZTable:
    """Log-domain table of Z(N, n) for 0 <= N, n <= n_max.

    The float table is the whole state: n_max is its side less one and
    log_w is row 1, Z(1, n) = w_{n+1}.  The sampler's scalar loop reads
    row_views (per-row memoryviews sharing the table's memory, so indexing
    yields a Python float without a copy) and log_w_list.  Nothing is
    assigned after construction.
    """

    def __init__(self, ws: WeightSequence, log_table: np.ndarray):
        self.ws = ws
        self.log_table = log_table
        self.n_max = log_table.shape[0] - 1
        self.log_w = log_table[1]  # log_w[d] = log w_{d+1}, a view
        self.row_views = [memoryview(row) for row in log_table]
        self.log_w_list: list[float] = self.log_w.tolist()

    # -- conditional degree laws ---------------------------------------------

    def root_degree_pmf(self, n_edges: int) -> np.ndarray:
        """p[k] = P(sigma(s) = k+1) under the N-edge measure, k = 1..N-1.

        Entry 0 is zero padding.  The values come straight from the
        pendant-forest identity and sum to 1 analytically; no renormalizing
        is applied here.
        """
        n = n_edges
        if n < 2:
            raise ValueError("root-degree law needs N >= 2")
        if n > self.n_max:
            raise ValueError(f"N={n} outside table bound {self.n_max}")
        log_zn = self.log_table[n, n - 1]
        if log_zn == -np.inf:
            raise ValueError(f"Z({n},{n-1}) = 0: no trees with {n} edges")
        ks = np.arange(1, n)
        t = (
            math.log(n)
            - math.log(n - 1)
            + np.log(ks)
            + self.log_w[1:n]
            + self.log_table[n - 1, n - 1 - ks]
            - log_zn
        )
        p = np.zeros(n)
        p[1:] = np.exp(t)
        return p

    # -- identities ------------------------------------------------------------

    def sum_identity_residuals(self, n_vertices: int) -> np.ndarray:
        """Relative residuals of sum_l l w_{l+1} Z(N-1, n-l) = (n/N) Z(N, n)
        for every n = 0..n_max of row N; the left sides are one convolution.

        Zero sums on both sides count as a zero residual; a one-sided zero
        reports inf.
        """
        if not 1 <= n_vertices <= self.n_max:
            raise ValueError("arguments outside table bound")
        with np.errstate(divide="ignore", invalid="ignore"):
            log_l = np.log(np.arange(self.n_max + 1.0))
            lhs = _log_conv_row(self.log_table[n_vertices - 1], log_l + self.log_w)
            rhs = log_l - math.log(n_vertices) + self.log_table[n_vertices]
            out = np.abs(np.expm1(lhs - rhs))
        lhs_zero, rhs_zero = lhs == LOG_ZERO, rhs == LOG_ZERO
        out[lhs_zero != rhs_zero] = np.inf
        out[lhs_zero & rhs_zero] = 0.0
        return out

    def shift_inequality_holds(self, eps: float, bound: int) -> np.ndarray:
        """holds[N-1, n]: Z(N,n) <= eps Z(N,n+1) + C_eps^N, up to a relative
        slack of 1e-12, for N = 1..bound and n = 0..bound.

        bound < n_max keeps Z(N, n+1) inside the table for every entry; a
        bound of 0 gives an empty array and never looks for A_eps.
        """
        if not 0 <= bound < self.n_max:
            raise ValueError(f"need 0 <= bound < n_max = {self.n_max}, got {bound}")
        if bound == 0:
            return np.ones((0, 1), dtype=bool)
        _, log_c = self.ws.shift_index(eps, self.n_max)
        rows = self.log_table[1 : bound + 1]
        rhs = np.logaddexp(math.log(eps) + rows[:, 1 : bound + 2], np.arange(1, bound + 1)[:, None] * log_c)
        return rows[:, : bound + 1] <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))


def log_row(log_w: np.ndarray, n_vertices: int, upto: int) -> np.ndarray:
    """log Z(N, n) for n = 0..upto, N = n_vertices, without the table.

    Row N holds the coefficients of W(x)^N, W(x) = sum_d w_{d+1} x^d, and
    P'W = N W'P gives J.C.P. Miller's recurrence for a power of a series
    (Knuth, TAOCP Vol. 2, 4.7):

        n w_1 Z(N, n) = sum_{k=1..n} ((N+1)k - n) w_{k+1} Z(N, n-k).

    Each entry is one log-sum-exp: O(N upto) time and O(upto) memory, and
    only w_1 > 0 is needed.  For n <= N+1 no coefficient is negative (a zero
    one drops its term); past N+1 they are, so upto > N+1 is a ValueError,
    as is upto past the end of log_w (log_w[d] = log w_{d+1}).
    """
    if n_vertices < 0:
        raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
    if not 0 <= upto <= n_vertices + 1:
        raise ValueError(f"need 0 <= upto <= N+1 = {n_vertices + 1}, got {upto}: coefficients go negative past N+1")
    if upto >= len(log_w):
        raise ValueError(f"upto={upto} needs log_w[0..{upto}]; got {len(log_w)} entries")
    if log_w[0] == LOG_ZERO:
        raise ValueError("the row recurrence needs w_1 > 0")
    out = np.empty(upto + 1)
    out[0] = n_vertices * log_w[0]
    ks = np.arange(1, upto + 1)
    t = np.empty(upto)
    with np.errstate(divide="ignore"):
        for n in range(1, upto + 1):
            tn = t[:n]
            np.log((n_vertices + 1) * ks[:n] - n, out=tn)
            tn += log_w[1 : n + 1]
            tn += out[n - 1 :: -1]  # Z(N, n-k) for k = 1..n
            mx = tn.max()
            if mx == LOG_ZERO:
                out[n] = LOG_ZERO
                continue
            tn -= mx
            np.exp(tn, out=tn)
            out[n] = mx + math.log(tn.sum()) - math.log(n) - log_w[0]
    return out


def log_z_n(ws: WeightSequence, n_edges: int) -> float:
    """log Z_N = log Z(N, N-1) - log N, the log total weight of the trees
    with N edges, from row N by log_row: no table, no size cap, N >= 1."""
    if n_edges < 1:
        raise ValueError(f"need N >= 1 edges, got {n_edges}")
    return float(log_row(ws.log_weights_upto(n_edges - 1), n_edges, n_edges - 1)[-1]) - math.log(n_edges)


def exact_corner(ws: WeightSequence, m: int) -> list[list[Fraction]]:
    """Z(N, n) for N, n <= m in Fractions, by the same row convolution as
    the log-domain build; rational weight families only.  The one source of
    exact table values."""
    if not ws.is_exact:
        raise ValueError(f"exact values need a rational weight family, not {ws.to_config()}")
    ew = [ws.exact_weight(d + 1) for d in range(m + 1)]
    rows = [[Fraction(1)] + [Fraction(0)] * m]
    for _ in range(m):
        prev = rows[-1]
        rows.append([sum((ew[d] * prev[n - d] for d in range(n + 1)), Fraction(0)) for n in range(m + 1)])
    return rows


def worst_exact_sum_residual(ws: WeightSequence, m: int) -> Fraction:
    """Largest |sum_l l w_{l+1} Z(N-1, n-l) - (n/N) Z(N, n)| over
    1 <= N <= m and 0 <= n <= m, in Fractions from one exact corner; zero
    when the size-bias identity holds exactly."""
    z = exact_corner(ws, m)
    ew = [ws.exact_weight(d + 1) for d in range(m + 1)]
    return max(
        abs(sum(el * ew[el] * z[nv - 1][n - el] for el in range(1, n + 1)) - Fraction(n, nv) * z[nv][n])
        for nv in range(1, m + 1)
        for n in range(m + 1)
    )


def build_ztable(ws: WeightSequence, n_max: int, allow_large: bool = False) -> ZTable:
    """Row-by-row log-domain build; O(n_max^3) scalar work, vectorized.

    The full table is retained because sequential sampling consults every
    row.  Row 1 is the log weights themselves: convolving row 0 with them
    leaves one finite term per entry, which the kernel returns bit for bit.
    Sizes beyond the desk-scale default require allow_large.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DEFAULT_N_MAX_CAP and not allow_large:
        raise TableSizeError(
            f"n_max={n_max} exceeds the default cap {DEFAULT_N_MAX_CAP}; "
            "pass allow_large to override"
        )
    log_table = np.empty((n_max + 1, n_max + 1))
    log_table[0] = -np.inf
    log_table[0, 0] = 0.0
    log_table[1] = ws.log_weights_upto(n_max)
    for row in range(2, n_max + 1):
        log_table[row] = _log_conv_row(log_table[row - 1], log_table[1])
    return ZTable(ws, log_table)


# -- persistence ---------------------------------------------------------------


def save_ztable(table: ZTable, path: str) -> None:
    """Binary container: magic 'SGTZ', version byte, JSON descriptor,
    then (n_max+1)^2 row-major float64 log values, little endian."""
    descriptor = json.dumps({"weights": table.ws.to_config(), "n_max": table.n_max}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<I", len(descriptor)))
        fh.write(descriptor)
        fh.write(np.ascontiguousarray(table.log_table, dtype="<f8").data)  # no copy of a built table


def load_ztable(path: str) -> ZTable:
    """Read a container written by save_ztable, payload straight into the table.

    Every malformed file raises ValueError naming the path: a cut header or
    descriptor, a descriptor that is not an object with `n_max` and
    `weights`, a short or overlong payload (checked against the file size
    before the table is allocated), and a table whose rows 0 and 1
    are not what every build writes: (0, -inf, ...) and the descriptor's log
    weights, bit for bit.  Descriptor keys other than `weights` and `n_max`
    are ignored, so files written with retired keys still load.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a ztable container")
        head = fh.read(5)
        if len(head) != 5:
            raise ValueError(f"{path}: header ends before the descriptor")
        version, desc_len = struct.unpack("<BI", head)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        try:
            descriptor = json.loads(fh.read(desc_len).decode("utf-8"))
            n_max = int(descriptor["n_max"])
            ws = WeightSequence.from_config(descriptor["weights"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed descriptor: {exc!r}") from exc
        if n_max < 1:
            raise ValueError(f"{path}: n_max must be >= 1, got {n_max}")
        payload, need = os.fstat(fh.fileno()).st_size - fh.tell(), 8 * (n_max + 1) ** 2
        if payload < need:
            raise ValueError(f"{path}: truncated table payload")
        if payload > need:
            raise ValueError(f"{path}: bytes after the table payload")
        log_table = np.empty((n_max + 1, n_max + 1), dtype="<f8")
        if fh.readinto(log_table) != log_table.nbytes:
            raise ValueError(f"{path}: truncated table payload")
    if not (log_table[0, 0] == 0.0 and np.all(log_table[0, 1:] == -np.inf)):
        raise ValueError(f"{path}: row 0 is not (0, -inf, ...)")
    if log_table[1].tobytes() != ws.log_weights_upto(n_max).tobytes():
        raise ValueError(f"{path}: row 1 is not the log weights of {descriptor['weights']}")
    return ZTable(ws, log_table)


def write_ztable_csv(table: ZTable, path: str) -> None:
    """N,n,logZ triples for external tooling."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("N,n,logZ\n")
        for n_vertices, row in enumerate(table.log_table):
            fh.write("".join(f"{n_vertices},{n},{x!r}\n" for n, x in enumerate(row.tolist())))
