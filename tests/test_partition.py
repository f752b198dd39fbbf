import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from sgtree import (
    TableSizeError,
    WeightDecayError,
    build_ztable,
    custom_weights,
    exact_nu,
    factorial_alpha_weights,
    lambda_factorial_weights,
    load_ztable,
    save_ztable,
    uniform_weights,
)
from sgtree.partition import (
    _EXP_FAST,
    _EXP_ZERO,
    _EXP_BAND_MAX,
    _ROW_BLOCK,
    _exp_row_sums,
    _log_conv_row,
    exact_corner,
    log_row,
    log_z_n,
    worst_exact_sum_residual,
)


def test_boundary_rows(table_uniform_small):
    t, z = table_uniform_small, exact_corner(uniform_weights(), 9)
    assert z[0] == [1] + [0] * 9
    # Z(N, 0) = w_1^N
    for n_vertices in range(1, 10):
        assert z[n_vertices][0] == 1
        assert t.log_table[n_vertices, 0] == 0.0


def test_known_small_values():
    # stars-and-bars: uniform Z(3,2) = C(4,2) = 6
    assert exact_corner(uniform_weights(), 3)[3][2] == 6
    # hand enumeration with w_2 = lam: Z(3,2) = 6 + 3 lam^2
    assert exact_corner(lambda_factorial_weights(1), 3)[3][2] == 9
    assert exact_corner(lambda_factorial_weights(2), 4)[3][2] == 6 + 3 * 4


def test_z_n_values(table_uniform_small):
    z = exact_corner(uniform_weights(), 3)
    assert z[1][0] == 1  # Z_1 = Z(1, 0): the single edge
    assert z[3][2] / 3 == 2  # Z_N = Z(N, N-1) / N
    assert exact_corner(lambda_factorial_weights(1), 3)[3][2] / 3 == 3
    assert math.exp(table_uniform_small.log_table[3, 2] - math.log(3)) == pytest.approx(2.0, rel=1e-12)


def test_forest_values():
    """(m/N) Z(N, N-m) counts ordered forests of m trees with N edges."""
    z = exact_corner(uniform_weights(), 3)
    assert Fraction(2, 2) * z[2][0] == 1  # two single edges
    assert Fraction(2, 3) * z[3][1] == 2  # a single edge beside a 2-edge tree, in either order


def test_recurrence_consistency():
    """Recompute 1000 random entries from the previous row."""
    t = build_ztable(factorial_alpha_weights(0.5), 120)
    rng = np.random.default_rng(7)
    lw = t.log_w
    for _ in range(1000):
        n_vertices = int(rng.integers(1, 121))
        n = int(rng.integers(0, 121))
        terms = lw[: n + 1] + t.log_table[n_vertices - 1, n::-1]
        mx = terms.max()
        recomputed = mx + math.log(np.exp(terms - mx).sum())
        assert recomputed == pytest.approx(t.log_table[n_vertices, n], rel=1e-12)


def _close(got: np.ndarray, ref: np.ndarray, tol: float = 1e-12) -> bool:
    """Equal -inf entries, and finite ones within tol * max(1, |ref|)."""
    zero = ref == -np.inf
    if not np.array_equal(got == -np.inf, zero):
        return False
    return bool(np.all(np.abs(got[~zero] - ref[~zero]) <= tol * np.maximum(1.0, np.abs(ref[~zero]))))


def test_log_row_matches_exact_fractions():
    """Rational family: every entry n <= min(N+1, 12) of rows N <= 12
    against the log of exact_corner's Fractions."""
    ws = lambda_factorial_weights(2)
    z = exact_corner(ws, 12)
    log_w = ws.log_weights_upto(12)
    for n_vertices in range(1, 13):
        upto = min(n_vertices + 1, 12)
        ref = np.array([math.log(x.numerator) - math.log(x.denominator) for x in z[n_vertices][: upto + 1]])
        assert _close(log_row(log_w, n_vertices, upto), ref)


@pytest.mark.parametrize(
    "ws",
    [
        uniform_weights(),
        lambda_factorial_weights(1),
        lambda_factorial_weights(2),
        factorial_alpha_weights(0.3),
        factorial_alpha_weights(0.6),
        factorial_alpha_weights(1.5),
        custom_weights([1, 0, 2, 0, 5, 1, 0, 3]),
        custom_weights([1, 0, 1]),
    ],
    ids=lambda ws: str(ws.to_config()),
)
def test_log_row_matches_table_rows(ws):
    """Rows of the n_max = 400 table, n <= min(N+1, n_max), and log_z_n
    against the table's entry log Z(N, N-1) - log N; the custom families'
    zero entries are -inf in both (w = [1, 0, 1] has no tree with an even
    number of edges)."""
    t = build_ztable(ws, 400)
    for n_vertices in (1, 2, 3, 64, 199, 200, 399, 400):
        upto = min(n_vertices + 1, 400)
        assert _close(log_row(t.log_w, n_vertices, upto), t.log_table[n_vertices, : upto + 1])
        log_zn = t.log_table[n_vertices, n_vertices - 1] - math.log(n_vertices)
        assert _close(np.array([log_z_n(ws, n_vertices)]), np.array([log_zn]))


def test_log_row_one_vertex_is_the_weights():
    ws = custom_weights([1, 0, 2])
    row = log_row(ws.log_weights_upto(2), 1, 2)
    assert row[0] == 0.0 and row[1] == -math.inf
    assert row[2] == pytest.approx(math.log(2), rel=1e-15)


def test_log_row_rejects_what_it_cannot_compute():
    log_w = factorial_alpha_weights(0.5).log_weights_upto(20)
    with pytest.raises(ValueError, match="N\\+1 = 6"):
        log_row(log_w, 5, 7)  # coefficients ((N+1)k - n) go negative past N+1
    with pytest.raises(ValueError, match="log_w"):
        log_row(log_w[:10], 20, 15)
    log_row(log_w, 5, 6)  # N+1 itself is fine
    with pytest.raises(ValueError, match="w_1 > 0"):
        log_row(np.array([-np.inf, 0.0, 0.0]), 2, 2)


@pytest.mark.parametrize("ws", [uniform_weights(), lambda_factorial_weights(1), lambda_factorial_weights(2)],
                         ids=lambda ws: str(ws.to_config()))
def test_log_z_n_matches_exact_fractions(ws):
    """Rational families: log Z_N for N <= 12 against log(Z(N, N-1)/N) from exact_corner."""
    z = exact_corner(ws, 12)
    for n in range(1, 13):
        exact = z[n][n - 1] / n
        assert log_z_n(ws, n) == pytest.approx(math.log(exact.numerator) - math.log(exact.denominator), rel=1e-12)


def test_log_z_n_matches_enumeration_irrational():
    """alpha = 0.37: log Z_N for N <= 12 against the sum over every tree with N edges."""
    ws = factorial_alpha_weights(0.37)
    for n in range(1, 13):
        assert log_z_n(ws, n) == pytest.approx(exact_nu(n, ws).log_total, rel=1e-12)


def test_log_z_n_rejects_no_edges():
    for n in (0, -3):
        with pytest.raises(ValueError, match="N >= 1"):
            log_z_n(uniform_weights(), n)


def _compositions(n_slots, total):
    if n_slots == 1:
        yield (total,)
        return
    for d in range(total + 1):
        for rest in _compositions(n_slots - 1, total - d):
            yield (d,) + rest


@pytest.mark.parametrize("family", ["uniform", "lam2"])
def test_exact_entries_against_composition_enumeration(family):
    """Independent oracle: brute-force sum over compositions."""
    ws = uniform_weights() if family == "uniform" else lambda_factorial_weights(2)
    exact = exact_corner(ws, 12)
    grid = [(nv, n) for nv in range(1, 8) for n in range(0, 8)]
    grid += [(12, 3), (11, 4), (10, 2)]
    for n_vertices, n in grid:
        direct = Fraction(0)
        for comp in _compositions(n_vertices, n):
            w = Fraction(1)
            for d in comp:
                w *= ws.exact_weight(d + 1)
            direct += w
        assert direct == exact[n_vertices][n]


def test_root_degree_pmf_examples(table_uniform_small, table_lam1_small):
    p = table_uniform_small.root_degree_pmf(3)
    assert p[1] == pytest.approx(0.5, rel=1e-12)
    assert p[2] == pytest.approx(0.5, rel=1e-12)
    p = table_lam1_small.root_degree_pmf(3)
    assert p[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert p[2] == pytest.approx(2.0 / 3.0, rel=1e-12)
    p = table_uniform_small.root_degree_pmf(2)
    assert p[1] == pytest.approx(1.0, rel=1e-12)  # N=2: sigma(s)=2 always


def test_root_degree_pmf_rejects_sizes_without_a_law(table_uniform_small):
    with pytest.raises(ValueError, match="N >= 2"):
        table_uniform_small.root_degree_pmf(1)
    with pytest.raises(ValueError, match="outside table bound 12"):
        table_uniform_small.root_degree_pmf(13)
    # w_2 = 0 leaves every vertex an even outdegree, so no tree has an even edge count
    with pytest.raises(ValueError, match="Z\\(4,3\\) = 0"):
        build_ztable(custom_weights(["1", "0", "1"]), 6).root_degree_pmf(4)


def test_root_degree_pmf_normalization(table_alpha05_small):
    for n in range(2, 61):
        total = table_alpha05_small.root_degree_pmf(n).sum()
        assert abs(total - 1.0) < 1e-10


def test_sum_identity(table_uniform_small):
    t = table_uniform_small
    # hand computation: lhs = Z(2,1) + 2 Z(2,0) = 4 = (2/3) Z(3,2)
    assert t.sum_identity_residuals(3)[2] < 1e-14
    assert t.sum_identity_residuals(3)[0] == 0.0
    assert t.sum_identity_residuals(1)[5] < 1e-14  # reduces to k w_{k+1} both sides
    assert worst_exact_sum_residual(uniform_weights(), 3) == 0


def test_sum_identity_sweep(table_alpha05_small):
    worst = max(
        table_alpha05_small.sum_identity_residuals(nv)[n]
        for nv in range(1, 61)
        for n in range(0, 61)
    )
    assert worst < 1e-11


def test_shift_inequality():
    ws = factorial_alpha_weights(0.5)
    table = build_ztable(ws, 60)
    assert ws.shift_index(0.5, 60)[0] == 5  # least A with A^(-1/2) < 1/2
    holds = table.shift_inequality_holds(0.5, 50)
    assert holds.shape == (50, 51) and holds.all()
    with pytest.raises(ValueError, match="bound"):
        table.shift_inequality_holds(0.5, 60)  # Z(N, n_max + 1) is not stored


def test_shift_inequality_needs_decaying_ratios(table_uniform_small):
    with pytest.raises(WeightDecayError):
        table_uniform_small.shift_inequality_holds(0.5, 3)


def test_table_size_cap():
    with pytest.raises(TableSizeError):
        build_ztable(uniform_weights(), 1501)


def test_zero_weight_family_zero_entries():
    # support only at degrees 1 and 3: odd-size constraints leave gaps
    ws = custom_weights(["1", "0", "1"])
    t, z = build_ztable(ws, 8), exact_corner(ws, 8)
    assert z[2][3] == 0
    assert t.log_table[2, 3] == -math.inf
    assert z[2][4] == 1  # both slots outdegree 2


def test_log_w_is_row_1(tmp_path):
    """log_w is a view of row 1, the log weights bit for bit, for a built
    table and for a loaded one."""
    for ws, n_max in ((factorial_alpha_weights(0.5), 8), (factorial_alpha_weights(1.5), 20)):
        table = build_ztable(ws, n_max)
        path = str(tmp_path / "t.sgtz")
        save_ztable(table, path)
        for t in (table, load_ztable(path)):
            assert np.shares_memory(t.log_w, t.log_table[1])
            assert t.log_w.tobytes() == ws.log_weights_upto(n_max).tobytes()


def test_save_load_round_trip(tmp_path):
    ws = lambda_factorial_weights(2)
    table = build_ztable(ws, 30)
    path = str(tmp_path / "t.sgtz")
    save_ztable(table, path)
    again = load_ztable(path)
    assert again.n_max == 30
    assert again.ws == ws
    assert np.array_equal(again.log_table, table.log_table)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SGTZ"


def test_load_ignores_retired_truncated_key(tmp_path):
    """Files written while the descriptor still carried `truncated` load."""
    table = build_ztable(uniform_weights(), 5)
    desc = json.dumps({"weights": {"family": "uniform"}, "n_max": 5, "truncated": False, "exact_upto": -1})
    path = tmp_path / "old.sgtz"
    path.write_bytes(
        b"SGTZ" + struct.pack("<B", 1) + struct.pack("<I", len(desc)) + desc.encode() + table.log_table.astype("<f8").tobytes()
    )
    assert np.array_equal(load_ztable(str(path)).log_table, table.log_table)


def _sgtz_file(tmp_path, payload: bytes, n_max: int = 5, weights=None) -> str:
    """An SGTZ file around `payload`, with a uniform descriptor by default."""
    desc = json.dumps({"weights": weights or {"family": "uniform"}, "n_max": n_max}).encode()
    path = tmp_path / "t.sgtz"
    path.write_bytes(b"SGTZ" + struct.pack("<BI", 1, len(desc)) + desc + payload)
    return str(path)


def _header(desc: bytes, desc_len: int) -> bytes:
    return b"SGTZ" + struct.pack("<BI", 1, desc_len) + desc


_DESC = json.dumps({"weights": {"family": "uniform"}, "n_max": 5}).encode()
_NO_N_MAX = json.dumps({"weights": {"family": "uniform"}}).encode()
_LIST = json.dumps([{"family": "uniform"}, 5]).encode()


@pytest.mark.parametrize(
    "head",
    [b"SGTZ", _header(_DESC[:-6], len(_DESC)), _header(_NO_N_MAX, len(_NO_N_MAX)), _header(_LIST, len(_LIST))],
    ids=["magic_only", "cut_descriptor", "no_n_max", "descriptor_is_list"],
)
def test_load_rejects_malformed_header(tmp_path, head):
    """Every malformed header is a ValueError that names the file."""
    path = tmp_path / "h.sgtz"
    path.write_bytes(head)
    with pytest.raises(ValueError, match="h.sgtz"):
        load_ztable(str(path))


@pytest.mark.parametrize(
    "head, message",
    [(b"SGTY" + struct.pack("<BI", 1, len(_DESC)) + _DESC, "not a ztable container"),
     (b"SGTZ" + struct.pack("<BI", 2, len(_DESC)) + _DESC, "unsupported version 2")],
    ids=["wrong_magic", "version_2"],
)
def test_load_rejects_other_containers(tmp_path, head, message):
    path = tmp_path / "h.sgtz"
    path.write_bytes(head + build_ztable(uniform_weights(), 5).log_table.tobytes())
    with pytest.raises(ValueError, match=f"h.sgtz: {message}"):
        load_ztable(str(path))


def test_load_rejects_truncated_payload(tmp_path):
    payload = build_ztable(uniform_weights(), 5).log_table.tobytes()
    with pytest.raises(ValueError, match="truncated table payload"):
        load_ztable(_sgtz_file(tmp_path, payload[:-8]))


@pytest.mark.parametrize("n_max", [3_000_000, 10**12])
def test_load_rejects_huge_n_max_before_allocating(tmp_path, n_max):
    """A header that claims a table no machine can hold, and no payload."""
    with pytest.raises(ValueError, match="t.sgtz: truncated table payload"):
        load_ztable(_sgtz_file(tmp_path, b"", n_max=n_max))


def test_load_rejects_bytes_after_payload(tmp_path):
    payload = build_ztable(uniform_weights(), 5).log_table.tobytes()
    with pytest.raises(ValueError, match="after the table payload"):
        load_ztable(_sgtz_file(tmp_path, payload + b"\0"))


def test_load_rejects_n_max_below_1(tmp_path):
    with pytest.raises(ValueError, match="n_max"):
        load_ztable(_sgtz_file(tmp_path, struct.pack("<d", 0.0), n_max=0))


def test_load_rejects_bad_row_0(tmp_path):
    log_table = build_ztable(uniform_weights(), 5).log_table.copy()
    log_table[0, 3] = 0.0
    with pytest.raises(ValueError, match="row 0"):
        load_ztable(_sgtz_file(tmp_path, log_table.tobytes()))


def test_load_rejects_row_1_not_the_weights(tmp_path):
    """A lam=2 table under a lam=1 descriptor, then one ulp off in row 1."""
    log_table = build_ztable(lambda_factorial_weights(2), 5).log_table.copy()
    with pytest.raises(ValueError, match="row 1"):
        load_ztable(_sgtz_file(tmp_path, log_table.tobytes(), weights={"family": "lambda_factorial", "lam": "1"}))
    lam2 = lambda_factorial_weights(2).to_config()
    assert load_ztable(_sgtz_file(tmp_path, log_table.tobytes(), weights=lam2)).n_max == 5
    log_table[1, 4] = np.nextafter(log_table[1, 4], np.inf)
    with pytest.raises(ValueError, match="row 1"):
        load_ztable(_sgtz_file(tmp_path, log_table.tobytes(), weights=lam2))


def test_alpha_one_descriptor_loads_as_lam_one(tmp_path):
    """Files whose descriptor spells alpha = 1 as factorial_alpha load as
    the lam = 1 table they hold."""
    lam1 = lambda_factorial_weights(1)
    payload = build_ztable(lam1, 6).log_table.tobytes()
    again = load_ztable(_sgtz_file(tmp_path, payload, n_max=6, weights={"family": "factorial_alpha", "alpha": 1.0}))
    assert again.ws == lam1 and again.log_table.tobytes() == payload


def test_exact_z_needs_rational_weights():
    with pytest.raises(ValueError, match="rational"):
        exact_corner(factorial_alpha_weights(0.5), 2)


def test_csv_dump(tmp_path):
    table = build_ztable(uniform_weights(), 3)
    path = str(tmp_path / "t.csv")
    from sgtree.partition import write_ztable_csv

    write_ztable_csv(table, path)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "N,n,logZ"
    assert len(lines) == 1 + 16
    parsed = np.full_like(table.log_table, np.nan)
    for line in lines[1:]:
        n_vertices, n, log_z = line.split(",")
        parsed[int(n_vertices), int(n)] = float(log_z)
    assert parsed.tobytes() == table.log_table.tobytes()
    assert "0,1,-inf" in lines


def test_save_bytes_pinned(tmp_path):
    """Header, descriptor and little-endian payload of a small table's SGTZ file."""
    path = tmp_path / "t.sgtz"
    save_ztable(build_ztable(factorial_alpha_weights(0.5), 8), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "3e8767e2e3ba7d94b9c18356c6cd51fcab984af992243bf631fdf00fea7369e0"


def test_certified_table_pinned():
    """A whole table whose rows hold band values (22,344 of them), so every
    row sum goes through the certificate; its bits are those of the
    per-entry log-sum-exp kernel the certificate replaced."""
    table = build_ztable(factorial_alpha_weights(3), 400)
    assert _exp_band_counts(table.log_table[399], table.log_w)[1] > 0
    assert hashlib.sha256(table.log_table.tobytes()).hexdigest() == (
        "ee46b207ad7d0d7613949bc39fec7dbb3f82cdf5e0cb0b78e45728e89772994e"
    )


def test_save_does_not_copy_the_table(tmp_path):
    table = build_ztable(factorial_alpha_weights(0.5), 200)
    tracemalloc.start()
    try:
        save_ztable(table, str(tmp_path / "t.sgtz"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.log_table.nbytes / 4


# -- the row kernel ------------------------------------------------------------------


def _reference_log_conv_row(prev, log_terms):
    """The per-entry log-sum-exp over the full window, one exp per entry:
    the row kernel before it was blocked, kept as the bitwise reference."""
    w = prev.shape[0]
    pad = np.full(2 * w - 1, -np.inf)
    pad[w - 1 :] = prev
    t = sliding_window_view(pad[::-1], w)[::-1]  # t[n, d] = prev[n-d]
    m = t + log_terms[None, :]
    mx = m.max(axis=1)
    finite = mx > -np.inf
    shift = np.where(finite, mx, 0.0)
    np.subtract(m, shift[:, None], out=m)
    np.exp(m, out=m)
    s = m.sum(axis=1)
    out = np.full(w, -np.inf)
    np.log(s, out=s, where=s > 0)
    out[finite] = mx[finite] + s[finite]
    return out


def _exp_band_counts(prev, log_terms):
    """Finite shifted values of the full window below _EXP_ZERO, and in
    [_EXP_ZERO, _EXP_FAST): the two bands the kernel keeps out of its main
    exp call."""
    w = prev.shape[0]
    pad = np.concatenate([np.full(w - 1, -np.inf), prev])
    m = sliding_window_view(pad[::-1], w)[::-1] + log_terms
    mx = m.max(axis=1)
    m -= np.where(mx > -np.inf, mx, 0.0)[:, None]
    zero = np.count_nonzero((m < _EXP_ZERO) & (m > -np.inf))
    return int(zero), int(np.count_nonzero((m >= _EXP_ZERO) & (m < _EXP_FAST)))


_KERNEL_WEIGHTS = (
    uniform_weights(),
    factorial_alpha_weights(1.5),
    lambda_factorial_weights(2),
    custom_weights([1, 0, 2, 0, 5, 1, 0, 3]),
    factorial_alpha_weights(50.5),  # the one whose rows reach both exp bands below n_max = 300
)


def test_row_kernel_bitwise_equals_per_entry_reference():
    """Rows of real tables (row 0 included) at widths around the block size,
    against the weights and against the identity terms log l + log w, whose
    entry 0 is -inf.  The cases must reach both bands the kernel keeps out of
    its main exp call."""
    zero_band = subnormal_band = 0
    log_l = np.log(np.arange(300.0), where=np.arange(300) > 0, out=np.full(300, -np.inf))
    for ws in _KERNEL_WEIGHTS:
        table = build_ztable(ws, 299)
        for w in (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 300):
            for prev_row in sorted(set(range(0, w, 1 if w <= _ROW_BLOCK + 1 else 11)) | {w - 1}):
                prev = table.log_table[prev_row, :w]
                for terms in (table.log_w[:w], log_l[:w] + table.log_w[:w]):
                    got = _log_conv_row(prev, terms)
                    assert got.tobytes() == _reference_log_conv_row(prev, terms).tobytes(), (ws, w, prev_row)
                    zero, subnormal = _exp_band_counts(prev, terms)
                    zero_band, subnormal_band = zero_band + zero, subnormal_band + subnormal
    assert zero_band > 1000 and subnormal_band > 1000


def test_row_sums_compute_the_rows_the_band_can_move():
    """A crafted block whose bounds differ: rows without their max term 1.0,
    whose sums are band values alone, which no row of a table has.  Those
    rows take the fallback; the others are certified.  Every sum is the
    reference's: np.exp of the block padded to the full width with -inf,
    summed along rows."""
    w, c = 300, 200  # past 128 terms numpy's pairwise sum splits the row
    m = np.full((5, c), -np.inf)
    m[0, :4] = [-710.0, -720.0, -745.9, -800.0]  # band and zero band: s_lo = 0 < s_hi
    m[1, :12] = np.linspace(-707.6, -745.0, 12)  # band alone, 12 values: a pairwise sum
    m[2, :3] = [0.0, -710.0, -3.0]  # the max term 1.0 with band values: certified
    m[3, :2] = [-800.0, -1e4]  # the zero band alone: s_lo = s_hi = 0, exact
    m[4] = np.linspace(-700.0, -745.9, c)  # fast and band values, no max
    terms = np.zeros((5, w))
    terms[:, :c] = 7.0  # what an earlier block left behind
    slow = m < _EXP_FAST
    full = np.full((5, w), -np.inf)
    full[:, :c] = m
    want = np.exp(full).sum(axis=1)
    got = _exp_row_sums(m.copy(), slow, terms)
    assert got.tobytes() == want.tobytes()
    assert got[0] > 0 and got[1] > 0 and got[3] == 0.0
    quiet = np.array([[0.0, -3.0, -800.0, -1e4, -np.inf]])  # slow values, none in the band
    ref = np.exp(np.pad(quiet, ((0, 0), (0, w - 5)), constant_values=-np.inf)).sum(axis=1)
    assert _exp_row_sums(quiet.copy(), quiet < _EXP_FAST, np.zeros((1, w))).tobytes() == ref.tobytes()
    fast = np.where(slow, 0.0, np.exp(m))
    s_lo, s_hi = fast.sum(axis=1), np.where(slow & (m >= _EXP_ZERO), _EXP_BAND_MAX, fast).sum(axis=1)
    assert (s_lo != s_hi).tolist() == [True, True, False, False, True]


def test_band_max_bounds_every_exp_below_the_fast_path():
    """_EXP_BAND_MAX is an upper bound on np.exp over the band, so s_hi is
    an upper bound on the row sum."""
    below = np.nextafter(_EXP_FAST, -np.inf)
    assert np.exp(below) < _EXP_BAND_MAX
    grid = np.linspace(_EXP_ZERO, below, 100001)
    assert np.all(np.exp(grid) <= _EXP_BAND_MAX)


def test_exp_is_exactly_zero_below_the_zero_band():
    """The row kernel writes 0 for shifted values below _EXP_ZERO without
    calling np.exp; that is what np.exp returns there (+0.0, not -0.0)."""
    below = np.nextafter(_EXP_ZERO, -np.inf)
    grid = np.concatenate([np.linspace(below, -800.0, 20001), -np.logspace(np.log10(800.0), 300.0, 1001), [-np.inf]])
    assert np.exp(grid).tobytes() == np.zeros_like(grid).tobytes()
