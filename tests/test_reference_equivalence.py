"""The vectorised FCIDUMP parser and writer, the column-wise pivoted Cholesky,
the eigendecomposition step, the truncation kernel and the lambda scan against
the loop references kept in ``tests/reference.py``: equal results, the same
numbers and bytes bit for bit, and the same errors on the same lines.  The
factor and tensor rebuilds, matrix products in the package, match their loops
within a tolerance."""

import io
import itertools
import math
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.inputs import make_integrals
from qdf import factorization, integrals
from qdf.costmodel import ErrorBudget, estimate
from qdf.factorization import (
    DoubleFactorization,
    NotPositiveSemidefiniteError,
    SingleFactorization,
    alpha_df,
    double_factorize,
    rank_sums,
    reconstruct_two_body,
    single_factorize,
)
from qdf.integrals import (
    AdjustedOneBody,
    FcidumpError,
    MolecularIntegrals,
    canonical_orbit,
    adjusted_one_body,
    parse_fcidump,
    write_fcidump,
)
from qdf.truncation import default_grid, threshold_sweep, truncate
from tests.conftest import fixture_path, packed, scaled
from tests.reference import (
    adjusted_one_body_einsum,
    alpha_df_loop,
    canonical_orbits,
    double_factorize_whole,
    eigenpair_groups_loop,
    estimate_full_scan,
    factor_matrix_loop,
    fill_orbits,
    groups_of,
    orbit_members,
    parse_fcidump_lines,
    rank_sums_loop,
    reconstruct_two_body_loop,
    score_eigenpairs_loop,
    single_factorize_deflation,
    truncate_loop,
    write_fcidump_loop,
)


def _tensor(factors: np.ndarray) -> np.ndarray:
    """sum_r A_r (x) A_r for symmetric A_r: exactly 8-fold symmetric."""
    n = factors.shape[1]
    g = np.zeros((n, n, n, n))
    for a in factors:
        g += np.einsum("ij,kl->ijkl", a, a)
    return g


def _assert_same_factorization(m, tol=1e-10):
    """Both factorizations of ``m`` for one ``tol``; None if both raise the
    same NotPositiveSemidefiniteError."""
    try:
        ref = single_factorize_deflation(m, tol=tol)
    except NotPositiveSemidefiniteError as exc:
        with pytest.raises(NotPositiveSemidefiniteError) as info:
            single_factorize(m, tol=tol)
        assert str(info.value) == str(exc)
        return None
    new = single_factorize(m, tol=tol)
    assert new.rank == ref.rank
    for a, b in zip(new.factors, ref.factors):
        assert np.array_equal(a, b)
    # The residual diagonal is part of the residual matrix, bit for bit.
    assert new.residual_sup_norm <= ref.residual_sup_norm
    return new, ref


def _psd_instance(n: int, rank: int, seed: int, integers: bool, scale: float) -> MolecularIntegrals:
    rng = np.random.default_rng(seed)
    if integers:
        # Small integers make equal diagonals, so argmax breaks pivot ties.
        raw = rng.integers(-2, 3, size=(rank, n, n)).astype(float)
    else:
        raw = rng.normal(size=(rank, n, n))
    factors = 0.5 * (raw + raw.transpose(0, 2, 1))
    return MolecularIntegrals(n, n, 0.0, np.zeros((n, n)), _tensor(factors) * scale)


@st.composite
def psd_instances(draw, log10_scale=(-6.0, 9.0)):
    n = draw(st.integers(min_value=1, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=n * (n + 1) // 2 + 2))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # At large scales the rounding residual d - (sqrt d)^2 of a pivot can
    # exceed tol, so a pair is picked again and the rank passes N(N+1)/2.
    scale = 10.0 ** draw(st.floats(*log10_scale))
    return _psd_instance(n, rank, seed, draw(st.booleans()), scale)


# Rank 4 = N^2 at N=2 (the pivot cap) and rank 7 of at most 9 at N=3: both
# above the N(N+1)/2 orbital pairs.
REPEATED_PIVOTS = [_psd_instance(2, 2, 0, False, 1e7), _psd_instance(3, 3, 8, False, 1e7)]


@settings(max_examples=150, deadline=None)
@given(psd_instances(), st.sampled_from([1e-12, 1e-10, 1e-3]))
@example(REPEATED_PIVOTS[0], 1e-10)
def test_cholesky_matches_deflation(m, tol):
    _assert_same_factorization(m, tol)


@pytest.mark.parametrize("m", REPEATED_PIVOTS)
def test_repeated_pivots_match_deflation(m):
    new, ref = _assert_same_factorization(m)
    n = m.n_orbitals
    assert n * (n + 1) // 2 < ref.rank <= n * n
    assert new.residual_sup_norm == ref.residual_sup_norm


@settings(max_examples=40, deadline=None)
@given(psd_instances(), st.floats(min_value=0.1, max_value=2.0))
def test_cholesky_indefinite_matches_deflation(m, weight):
    # Subtracting a rank-1 term usually leaves an indefinite supermatrix.
    n = m.n_orbitals
    a = np.arange(n * n, dtype=float).reshape(n, n) / (n * n)
    a = a + a.T + np.eye(n)
    g = m.two_body - weight * np.einsum("ij,kl->ijkl", a, a)
    _assert_same_factorization(MolecularIntegrals(n, n, 0.0, m.one_body, g))


def test_negative_tensor_rejected_by_both():
    g = -np.ones((2, 2, 2, 2))
    m = MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), g)
    for factorize in (single_factorize, single_factorize_deflation):
        with pytest.raises(NotPositiveSemidefiniteError):
            factorize(m)


def test_h4_residual_matches_deflation(h4):
    new = single_factorize(h4, tol=1e-10)
    ref = single_factorize_deflation(h4, tol=1e-10)
    assert abs(new.residual_sup_norm - ref.residual_sup_norm) <= 1e-12


def _scaled_to(m: MolecularIntegrals, top: float) -> MolecularIntegrals:
    return scaled(m, top / np.abs(m.pair_matrix).max())


# An exactly PSD rank-2 tensor with entries up to 6.5e7.  The rounding
# residual of its pivots reaches -1.49e-8: below an absolute 1e-8, far above
# 1e-8 times its largest diagonal.
LARGE_PSD = _scaled_to(_psd_instance(2, 2, 41, False, 1.0), 6.5e7)


def test_large_exactly_psd_tensor_accepted_by_both():
    new, ref = _assert_same_factorization(LARGE_PSD)
    assert new.rank == ref.rank >= 2


def test_large_indefinite_tensor_refused_by_both():
    a = np.array([[1.0, 0.5], [0.5, -1.0]])
    g = LARGE_PSD.two_body - 6.5e7 * np.einsum("ij,kl->ijkl", a, a)
    m = MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), g)
    assert _assert_same_factorization(m) is None


@pytest.mark.parametrize("negative, refused", [(-0.9, False), (-1.1, True)])
def test_psd_bound_is_relative_to_largest_diagonal(negative, refused):
    # W is diagonal: (11|11) = 1e8 and (22|22) = negative, so the refusal
    # bound is -1e-8 * 1e8 = -1.
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 0, 0], g[1, 1, 1, 1] = 1e8, negative
    m = MolecularIntegrals(2, 2, 0.0, np.zeros((2, 2)), g)
    outcome = _assert_same_factorization(m)
    assert (outcome is None) == refused
    if not refused:
        assert outcome[0].rank == 1


def _seeded_integrals(n: int, rank: int, seed: int) -> MolecularIntegrals:
    """A rank-``rank`` PSD tensor from decaying random factors on the orbital
    pairs, scattered to the full 8-fold symmetric tensor."""
    rng = np.random.default_rng(seed)
    rows, cols = np.tril_indices(n)
    decay = np.exp(-np.arange(rank) * 8.0 / rank)
    factors = rng.standard_normal((rank, rows.size)) * (decay / np.sqrt(np.sum(decay**2)))[:, None]
    pair_matrix = factors.T @ factors
    pair_matrix = 0.5 * (pair_matrix + pair_matrix.T)
    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[rows, cols] = np.arange(rows.size)
    pair_of[cols, rows] = np.arange(rows.size)
    flat = pair_of.reshape(-1)
    two_body = pair_matrix[np.ix_(flat, flat)].reshape(n, n, n, n)
    one_body = rng.standard_normal((n, n))
    one_body = 0.5 * (one_body + one_body.T) - 2.0 * np.eye(n)
    return MolecularIntegrals(n, n, float(rng.uniform(1.0, 10.0)), one_body, two_body)


def test_n20_rank120_parse_and_factors_match_references():
    m = _seeded_integrals(20, 120, seed=7)
    text = write_fcidump(m)
    assert text == write_fcidump_loop(m)
    m = parse_fcidump(text)
    assert m == parse_fcidump_lines(text)
    new = single_factorize(m)
    ref = single_factorize_deflation(m)
    assert new.rank == ref.rank == 120
    for a, b in zip(new.factors, ref.factors):
        assert np.array_equal(a, b)


# Values the writer must spell exactly as the loop does: zeros of both signs
# (skipped), 17-digit values, extremes and non-finite values.
_WRITER_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, -2 / 3, 0.12345678901234568,
                  1.0000000000000002, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  1e16, 123456789012345678.0, math.inf, -math.inf, math.nan]


@st.composite
def writer_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    orbit_values = rng.normal(size=len(canonical_orbits(n)))
    h = rng.normal(size=(n, n))
    # The values fill whole orbits of the tensor; h need not be symmetric,
    # as the writer reads only h_ij with i >= j.
    for flat in (orbit_values, h.reshape(-1)):
        planted = rng.integers(flat.size, size=draw(st.integers(0, flat.size)))
        flat[planted] = np.take(_WRITER_VALUES, rng.integers(len(_WRITER_VALUES), size=planted.size))
    core = draw(st.sampled_from(_WRITER_VALUES) | st.floats(allow_nan=False))
    return MolecularIntegrals(n, n, core, h, fill_orbits(n, orbit_values))


@settings(max_examples=100, deadline=None)
@given(writer_instances())
def test_writer_matches_loop(m):
    assert write_fcidump(m) == write_fcidump_loop(m)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _outcome(parse, text):
    """(result or (line, message), warnings) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except FcidumpError as exc:
            result = (exc.line, str(exc))
    return result, [str(w.message) for w in caught]


def _assert_same_outcome(text):
    new, new_warnings = _outcome(parse_fcidump, text)
    ref, ref_warnings = _outcome(parse_fcidump_lines, text)
    if isinstance(ref, MolecularIntegrals):
        assert isinstance(new, MolecularIntegrals), new
        assert new == ref
    else:
        assert new == ref
    assert new_warnings == ref_warnings


def _format_value(v: float, style: int) -> str:
    return [repr(v), f"{v:.17g}", f"{v:.17e}", f"{v:.17E}".replace("E", "D"),
            f"{v:.17e}".replace("e", "d"), f"{v:.3g}"][style]


def _random_member(rng, i, j, k, l):
    members = sorted(orbit_members(i, j, k, l))
    return members[rng.integers(len(members))]


def _records(rng, norb: int) -> list[str]:
    """Body lines: a random subset of orbits, each written as a random member,
    plus the core energy, orbital energies and benign duplicates."""
    records = []
    for i in range(norb):
        for j in range(i + 1):
            for k in range(i + 1):
                for l in range(k + 1):
                    if (i, j) >= (k, l) and rng.random() < 0.6:
                        member = _random_member(rng, i, j, k, l)
                        records.append((rng.normal(), tuple(x + 1 for x in member)))
    for i in range(norb):
        for j in range(i + 1):
            if rng.random() < 0.6:
                pair = (i + 1, j + 1) if rng.random() < 0.5 else (j + 1, i + 1)
                records.append((rng.normal(), pair + (0, 0)))
    for i in range(norb):
        if rng.random() < 0.2:
            records.append((rng.normal(), (i + 1, 0, 0, 0)))
    if rng.random() < 0.8:
        records.append((rng.uniform(-5, 5), (0, 0, 0, 0)))
    for _ in range(rng.integers(3)):
        if records:
            v, idx = records[rng.integers(len(records))]
            if idx[2] != 0:
                idx = tuple(x + 1 for x in _random_member(rng, *(y - 1 for y in idx)))
            records.append((v, idx))
    rng.shuffle(records)
    lines = []
    for v, idx in records:
        style = int(rng.integers(6)) if idx != (0, 0, 0, 0) else 0
        sep = " " if rng.random() < 0.8 else "\t "
        lines.append(_format_value(v, style) + sep + sep.join(str(x) for x in idx)
                     + ("  " if rng.random() < 0.2 else ""))
        if rng.random() < 0.1:
            lines.append("" if rng.random() < 0.5 else "   ")
    return lines


def _text(rng, norb: int, lines: list[str]) -> str:
    header = [f" &FCI NORB={norb},NELEC={norb},MS2=0,", "  ORBSYM=" + "1," * norb, "  ISYM=1,", " &END"]
    if rng.random() < 0.3:
        header = [f"&FCI NORB= {norb}, NELEC= {norb}, MS2=0, ORBSYM=" + "1," * norb + " /"]
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    end = newline if rng.random() < 0.9 else ""
    return newline.join(header + lines) + end


@st.composite
def fcidump_texts(draw):
    norb = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return _text(rng, norb, _records(rng, norb))


@settings(max_examples=150, deadline=None)
@given(fcidump_texts())
def test_parser_matches_line_reference(text):
    _assert_same_outcome(text)


# Tokens and bytes where a vectorised reading could part from float() and
# int(): invalid spellings, and valid ones such as underscores, signs,
# leading zeros, inf and nan.
_EDGE_TOKENS = [
    "abc", "1.5", "1e", "1e5", "", "nan", "-nan", "inf", "Infinity", "1_0", "_1", "1__0", "1_",
    "+1", "-0", "01", "0x10", "1d0", "1D0", "NaN(1)", "99999999999999999999", "-1", "0", "5",
    "1-1", ".", "+", "1..2", "0.5d", "1,0", "1;", "\x00",
]
_EDGE_BYTES = list("\x00\x01\t\x0b\x0c\r\x1c\x1d\x1e\x1f !#,.e+-_0123456789dDxn")


@st.composite
def mutated_fcidump_texts(draw):
    norb = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lines = _records(rng, norb) or ["0.5 0 0 0 0"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = int(rng.integers(len(lines)))
        tokens = lines[at].split()
        kind = draw(st.integers(min_value=0, max_value=6))
        if kind == 0 and tokens:
            tokens[int(rng.integers(len(tokens)))] = draw(st.sampled_from(_EDGE_TOKENS))
            lines[at] = " ".join(tokens)
        elif kind == 1 and tokens:
            del tokens[int(rng.integers(len(tokens)))]
            lines[at] = " ".join(tokens)
        elif kind == 2:
            lines[at] = lines[at] + " " + draw(st.sampled_from(["1", "0", "x"]))
        elif kind == 3:
            line = lines[at]
            pos = int(rng.integers(len(line) + 1))
            lines[at] = line[:pos] + draw(st.sampled_from(_EDGE_BYTES)) + line[pos:]
        elif kind == 4 and len(tokens) == 5 and _value(tokens[0]) is not None:
            # a conflicting (or, within the tolerance, benign) duplicate
            shift = draw(st.sampled_from([1e-3, 1e-11, 0.0]))
            duplicate = " ".join([repr(_value(tokens[0]) + shift)] + tokens[1:])
            lines.insert(int(rng.integers(len(lines) + 1)), duplicate)
        elif kind == 5:
            pattern = draw(st.sampled_from(["1 2 2 0", "0 1 0 0", "1 0 1 0", "0 0 0 1", "1 1 0 0",
                                            "0 0 0 0", f"{norb + 1} 1 1 1", "1 0 0 0"]))
            lines.insert(int(rng.integers(len(lines) + 1)), f"{rng.normal()!r} {pattern}")
        elif kind == 6:
            lines.insert(int(rng.integers(len(lines) + 1)), draw(st.sampled_from(["", "  ", "\x0c", "&END"])))
    return _text(rng, norb, lines)


def _value(token: str):
    try:
        return float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(mutated_fcidump_texts())
def test_parser_errors_match_line_reference(text):
    _assert_same_outcome(text)


_HEAD = "&FCI NORB=3,NELEC=2,\n&END\n0.5 1 1 1 1\n"


# Index tokens go through digit arithmetic, values through a float parser of
# their own: spellings int() accepts or refuses, indices of 19 digits and
# more, and the last record, with and without a final newline.
@pytest.mark.parametrize("text", [
    _HEAD + "0.25 +3 1 1 1\n",
    _HEAD + "0.25 003 1 1 1\n",
    _HEAD + "0.25 2 -0 0 0\n0.75 2 1 -0 0\n",
    _HEAD + "0.25 -1 1 1 1\n",
    _HEAD + "0.25 1 1 " + "1" * 30 + " 1\n",
    _HEAD + "0.25 1 -" + "9" * 30 + " 1 1\n",
    _HEAD + "0.25 1 1 " + "0" * 29 + "2 1\n",
    _HEAD + "0.25 1 1 " + "0" * 17 + "3 1\n",
    _HEAD + "0.25 1 1 -" + "0" * 21 + "1 1\n",
    _HEAD + "0.25 1 1 1 " + "1" * 5000 + "\n",
    _HEAD + "0.25 1e0 1 1 1\n",
    _HEAD + "0.25 1 1.0 1 1\n",
    _HEAD + "0.25 1 1 inf 1\n",
    _HEAD + "0.25 1 1 1 1_0\n",
    _HEAD + "0.25 1 1 1 1_\n",
    _HEAD + "0.25 1 1 1 +\n",
    _HEAD + "0.25 1 1 1 " + "1" * 25 + "x\n",
    _HEAD + "0.25 1 1 1 2\n0.5 1 1 1 x\n0.25 1 1 1 9\n",
    _HEAD + "0.25 1 1 1 9\n0.5 1 1 1 x\n",
    _HEAD + "0.25 2 2 2 2\nabc 1 1 1 1\n",
    _HEAD + "0.25 2 2 2 2\n1.5.5 1 1 1 1",
    _HEAD + "0.25 2 1 1 1\n0.5 2 1 1 1.5\n1e 2 2 1 1\n",
    _HEAD + "1e 2 1 1 1\n0.5 2 1 1 1.5\n",
    "&FCI NORB=2,NELEC=2,\r\n&END\r\n0.25D-01 2 2 2 2\r\n-1.5d+00 1 1 0 0\r\n0.5D0 0 0 0 0\r\n",
    "&FCI NORB=2,NELEC=2,\r\n&END\r\n0.25D-01 2 2 2 2\r\n-1.5d+0x 1 1 0 0\r\n",
    _HEAD + "0.25 2 2 2 2",
    _HEAD + "0.25 2 2 2 12",
    _HEAD + "0.25 2 2 2 2x",
    _HEAD + "0.25 2 2 2",
    # Only the stored values are checked for finiteness: a non-finite value
    # that a later record overwrites, or an ignored orbital energy, is not one.
    _HEAD + "nan 2 2 2 2\n",
    _HEAD + "nan 2 2 2 2\n0.25 2 2 2 2\n",
    _HEAD + "0.25 2 2 2 2\nnan 2 2 2 2\n",
    _HEAD + "-inf 2 1 0 0\n",
    _HEAD + "inf 0 0 0 0\n",
    _HEAD + "nan 0 0 0 0\n0.5 0 0 0 0\n",
    _HEAD + "nan 1 0 0 0\n",
    _HEAD + "0.25 1 1 1 -9223372036854775808\n",
])
def test_index_and_value_decoding_match_line_reference(text):
    _assert_same_outcome(text)


# Every token of 1 to 4 of the bytes that spell a plain number, as a value
# and as an index: the whole-array reader accepts exactly what float() and
# int() accept, and reads the same number, down to the sign of a zero.
_TOKENS = ["".join(t) for n in range(1, 5) for t in itertools.product("019+-.eE", repeat=n)]


def test_every_short_token_matches_line_reference():
    assert len(_TOKENS) == 4680
    for token in _TOKENS:
        for text in (_HEAD + f"{token} 2 2 2 2\n", _HEAD + f"0.25 2 2 {token} 1\n"):
            new, ref = _outcome(parse_fcidump, text), _outcome(parse_fcidump_lines, text)
            assert new == ref, text
            if isinstance(ref[0], MolecularIntegrals):
                assert new[0].pair_matrix.tobytes() == ref[0].pair_matrix.tobytes(), text


@pytest.mark.parametrize("text, line", [
    ("&FCI NORB=1,NELEC=1,\n&END\n0.5 1 1 1 1\n\xe9\n", 4),
    ("&FCI NORB=1,NELEC=1,\r\n&END\r\n0.5 1 1 1 1 \n", 3),
    ("&FCI NORB=²,NELEC=1,\n&END\n", 1),
])
def test_non_ascii_rejected_with_line(text, line):
    for content in (text, text.encode("utf-8")):
        with pytest.raises(FcidumpError, match="non-ASCII byte 0xc[23]") as info:
            parse_fcidump(content)
        assert info.value.line == line


def test_pair_with_leading_zero_is_malformed():
    text = "&FCI NORB=2,NELEC=2,\n&END\n0.5 1 1 1 1\n0.1 0 2 0 0\n"
    with pytest.raises(FcidumpError, match="malformed") as info:
        parse_fcidump(text)
    assert info.value.line == 4


def test_canonical_key_in_conflict_message():
    text = "&FCI NORB=3,NELEC=2,\n&END\n0.5 1 3 2 1\n0.6 3 1 1 2\n"
    with pytest.raises(FcidumpError) as info:
        parse_fcidump(text)
    assert str(canonical_orbit(0, 2, 1, 0)) in str(info.value)
    assert info.value.line == 4


# The body is read by whole arrays when plainly spelled, and by the line
# reader otherwise.  A fast path that declined every body would pass every
# equivalence test above, only slower: these tests pin the choice of path.
def _line_reader_refused():
    def refuse(*args):
        raise AssertionError("the line reader ran on a plain body")
    return mock.patch.object(integrals, "_line_entries", refuse)


def _line_reader_counted():
    return mock.patch.object(integrals, "_line_entries", wraps=integrals._line_entries)


def _fixture_text(name: str) -> str:
    with open(fixture_path(name)) as fh:
        return fh.read()


# CRLF, D and d exponents, tabs and \x1f, blank lines, orbital energies,
# signed indices, benign duplicates (one written with an 18-digit index).
_PLAIN_TEXT = (
    "&FCI NORB=3,NELEC=2,\r\n&END\r\n0.25D-01\t2 2\t2 2  \r\n\r\n-1.5d+00 1 1 0 0\r\n"
    "0.5 3 0 0 0\r\n  \r\n0.25E-01 2 2 2 2\r\n7.5e-1 2 1 1 1\r\n0.75 1 1 1 2\r\n"
    "1 1 0 0 0\r\n-1.5 1 1 0 0\r\n2.5D0 0 0 0 0\r\n0.125 3 1\x1f2 1\r\n"
    "0.125 1 2 1 " + "0" * 17 + "3\r\n0.375 +3 1 -0 0\r\n"
)


@pytest.mark.parametrize("text", [
    pytest.param(lambda: _fixture_text("h2_sto3g.fcidump"), id="h2"),
    pytest.param(lambda: _fixture_text("h4_sto3g.fcidump"), id="h4"),
    pytest.param(lambda: write_fcidump(make_integrals(integrals, 12, 60, 0, 0)), id="n12"),
    pytest.param(lambda: _PLAIN_TEXT, id="crlf-d-tabs-blank-orbital-duplicates"),
])
def test_plain_body_read_by_whole_arrays(text):
    text = text()
    ref, ref_warnings = _outcome(parse_fcidump_lines, text)
    assert isinstance(ref, MolecularIntegrals)
    with _line_reader_refused():
        assert _outcome(parse_fcidump, text) == (ref, ref_warnings)


@settings(max_examples=100, deadline=None)
@given(fcidump_texts())
def test_generated_texts_read_by_whole_arrays(text):
    # A duplicate written once in full and once to 3 digits is an error,
    # which only the line reader raises.
    if isinstance(_outcome(parse_fcidump_lines, text)[0], MolecularIntegrals):
        with _line_reader_refused():
            _assert_same_outcome(text)
    else:
        with _line_reader_counted() as reader:
            _assert_same_outcome(text)
        assert reader.call_count == 1


@pytest.mark.parametrize("text", [
    _HEAD + "nan 2 2 2 2\n0.25 2 2 2 2\n",
    _HEAD + "inf 1 0 0 0\n",
    _HEAD + "1_0 2 2 2 2\n",
    _HEAD + "0.25 2 2 1_0 1\n",
])
def test_unusual_spelling_read_by_lines(text):
    with _line_reader_counted() as reader:
        _assert_same_outcome(text)
    assert reader.call_count == 1


# Signed and zero-padded indices that int() accepts and int64 holds are plain.
@pytest.mark.parametrize("text", [
    _HEAD + "0.25 +3 1 1 1\n",
    _HEAD + "0.25 2 -0 0 0\n",
    _HEAD + "0.25 1 1 " + "0" * 18 + "3 1\n",
])
def test_signed_and_padded_indices_read_by_whole_arrays(text):
    with _line_reader_refused():
        _assert_same_outcome(text)


# The line reader decodes the text a block of 4 KiB at a time: a file of
# many blocks, read whole (an underscore in an index) or rejected on its
# last line.
@pytest.mark.parametrize("at, edit", [
    (4, lambda line: line.replace(" ", " 0_", 1)),
    (-1, lambda line: line + " 1"),
])
def test_line_reader_across_blocks(at, edit):
    lines = write_fcidump(make_integrals(integrals, 12, 60, 0, 0)).splitlines()
    lines[at] = edit(lines[at])
    text = "\r\n".join(lines)
    assert len(text) > 16 * 4096
    with _line_reader_counted() as reader:
        _assert_same_outcome(text)
    assert reader.call_count == 1


# The whole-array reader reads the body _PLAIN_BLOCK bytes at a time.  With
# blocks of a few bytes a body spans many blocks, and the blocks' records,
# counts and checks must add up to the one-block reading: the same entries,
# warnings in the same order, and the same error and line.
def _plain_block(size: int):
    return mock.patch.object(integrals, "_PLAIN_BLOCK", size)


def _assert_same_across_blocks(text, sizes, plain: bool):
    ref = _outcome(parse_fcidump_lines, text)
    with _plain_block(1 << 30):
        assert _outcome(parse_fcidump, text) == ref
    for size in sizes:
        with _plain_block(size):
            if plain:
                with _line_reader_refused():
                    assert _outcome(parse_fcidump, text) == ref, size
            else:
                with _line_reader_counted() as reader:
                    assert _outcome(parse_fcidump, text) == ref, size
                assert reader.call_count == 1


@settings(max_examples=100, deadline=None)
@given(fcidump_texts(), st.sampled_from([0, 1, 5, 40]))
def test_generated_texts_read_across_blocks(text, size):
    plain = isinstance(_outcome(parse_fcidump_lines, text)[0], MolecularIntegrals)
    _assert_same_across_blocks(text, [size], plain)


_BLOCK_HEAD = "&FCI NORB=3,NELEC=2,\n&END\n"


# Each text is read with every block size up to its length, so that a cut
# falls after every byte where one can: between the two bytes of a b"\r\n",
# before and after blank lines, and between records of one orbit.
_BLOCK_CUT_TEXTS = [
    pytest.param(_PLAIN_TEXT, True, id="crlf-at-a-cut"),
    pytest.param(_BLOCK_HEAD + "0.5 1 1 1 1\n\n  \n0.25 2 2 1 1\n\n0.75 2 1 0 0\n"
                 "0.125 3 3 3 3\n\n0.5 3 1 2 2\n0.5 1 0 0 0\n0.25 2 2 2 2\n",
                 True, id="orbital-energy-after-blank-lines"),
    pytest.param("&FCI NORB=3,NELEC=2,\r&END\r0.5 1 1 1 1\r\n\x0c0.25 2 2 1 1\r\r"
                 "0.75 2 1 0 0\x0b\x1c0.125 3 3 3 3\n\r\n0.5 3 0 0 0\x1d\x1e0.5 1 0 0 0\r",
                 True, id="every-line-break"),
    pytest.param(_BLOCK_HEAD + "0.5 2 2 2 2\n0.25 1 1 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2\n0.6 2 2 2 2\n0.25 2 2 1 1\n",
                 False, id="conflicting-duplicate"),
    pytest.param(_BLOCK_HEAD + "1.5 0 0 0 0\n0.25 1 1 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2\n1.5 0 0 0 0\n0.25 2 2 1 1\n",
                 True, id="core-energy-repeated"),
    pytest.param(_BLOCK_HEAD + "1.5 0 0 0 0\n0.25 1 1 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2\n2.5 0 0 0 0\n0.25 2 2 1 1\n",
                 False, id="conflicting-core-energy"),
    pytest.param(_BLOCK_HEAD + "0.5 2 0 0 0\n0.25 1 1 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2\n0.5 1 0 0 0\n0.25 2 2 1",
                 False, id="declines-in-last-block"),
    pytest.param(_BLOCK_HEAD + "0.5 1 0 0 0\n0.25 1 1 1 1\n0.5 2 0 0 0\n0.75 2 1 0 0\n"
                 "0.125 3 3 3 3\n0.5 3 0 0 0\n0.5 3 1 2 2\n0.5 1 0 0 0\n",
                 True, id="orbital-energies-in-many-blocks"),
    pytest.param(_BLOCK_HEAD + "0.5 1 0 0 0\n0.25 1 1 1 1\n0.5 2 0 0 0\n0.75 2 1 0 0\n"
                 "0.125 3 0 3 3\n0.5 3 0 0 0\n0.5 3 1 2 2\n",
                 False, id="orbital-energies-before-an-error"),
    pytest.param(_BLOCK_HEAD + "0.5 2 0 0 0\n0.25 1 1 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2\n0.5 1 0 0 0\n0.2_5 2 2 1 1\n",
                 False, id="valid-but-declines-in-last-block"),
]


@pytest.mark.parametrize("text, plain", _BLOCK_CUT_TEXTS)
def test_block_cuts_match_one_block(text, plain):
    _assert_same_across_blocks(text, range(len(text) + 1), plain)


# ``load_fcidump`` reads the file itself by blocks, the header from the first
# one, and reads it again, whole, when the whole-array reader declines a
# block.  At every block size the file must read as its bytes do, and both
# as the line-by-line reference reads the text: the same result and notes,
# or the same error and line, with the line reader run once for a declined
# body and never otherwise (a plain body, or an error found before the
# body: an empty file or a non-ASCII byte).
_LONG_HEAD = "&FCI NORB=3,NELEC=2,MS2=0,\n ORBSYM=" + "1," * 40 + "\n ISYM=1,\n&END\n"
_FILE_TEXTS = [pytest.param(p.values[0], 0 if p.values[1] else 1, id=p.id)
               for p in _BLOCK_CUT_TEXTS] + [
    pytest.param(_LONG_HEAD + "0.5 1 1 1 1\n0.25 2 1 0 0\n1.5 0 0 0 0\n", 0,
                 id="header-longer-than-a-block"),
    pytest.param("&FCI NORB=3,NELEC=2,\r&END\r0.5 1 1 1 1\r0.25 2 2 1 1\r\r0.75 2 1 0 0\r"
                 "0.5 3 0 0 0\r", 0, id="cr-only-line-breaks"),
    pytest.param(_BLOCK_HEAD + "0.5 1 1 1 1\n0.25 2 2 1 1\n0.75 2 1 0 0\n0.125 3 3 3 3\n"
                 "0.5 3 1 2 2 \u00e9\n", 0, id="non-ascii-in-a-late-block"),
    pytest.param("", 0, id="empty-file"),
    pytest.param(_BLOCK_HEAD, 0, id="header-only"),
]


def _reference_outcome(text: str):
    """``parse_fcidump_lines``'s outcome of ``text``, or, for a text with a
    non-ASCII character, which that reference reads as any other, the error
    that names the character's first byte on its line."""
    at = next((at for at, char in enumerate(text) if not char.isascii()), None)
    if at is None:
        return _outcome(parse_fcidump_lines, text)
    line = len((text[:at] + "x").splitlines())
    return (line, f"line {line}: non-ASCII byte {text[at].encode()[0]:#04x}"), []


def _assert_file_reads_as_bytes(path, data: bytes, ref, size: int, line_reads: int):
    with _plain_block(size):
        assert _outcome(parse_fcidump, data) == ref, size
        with _line_reader_counted() as reader:
            assert _outcome(integrals.load_fcidump, path) == ref, size
        assert reader.call_count == line_reads, size


@pytest.mark.parametrize("text, line_reads", _FILE_TEXTS)
def test_file_read_by_blocks_matches_its_bytes(tmp_path, text, line_reads):
    data = text.encode("utf-8")
    path = tmp_path / "blocks.fcidump"
    path.write_bytes(data)
    ref = _reference_outcome(text)
    for size in range(len(data) + 1):
        _assert_file_reads_as_bytes(path, data, ref, size, line_reads)


def test_header_ending_at_the_first_block_end(tmp_path):
    # The first block is _PLAIN_BLOCK bytes and the rest of their last line.
    # At these sizes it ends exactly where the header does: the header is read
    # from the first block, and the body from the blocks after it.
    text = _BLOCK_HEAD + "0.5 1 1 1 1\n0.25 2 1 0 0\n"
    data = text.encode("ascii")
    path = tmp_path / "blocks.fcidump"
    path.write_bytes(data)
    ref = _reference_outcome(text)
    for size in range(len("&FCI NORB=3,NELEC=2,\n"), len(_BLOCK_HEAD)):
        with open(path, "rb") as fh:
            assert fh.read(size) + fh.readline() == _BLOCK_HEAD.encode("ascii")
        _assert_file_reads_as_bytes(path, data, ref, size, line_reads=0)


# ``parse_fcidump`` reads a file object's content as it reads that content:
# text from an ``io.StringIO``, bytes from an ``io.BytesIO`` or a binary file.
# A declined body (an underscore in a value) has the in-memory copy of the
# content read again for the line reader.
@pytest.mark.parametrize("text, plain", [
    pytest.param(_BLOCK_HEAD + "0.5 1 1 1 1\n0.25 2 1 0 0\n1.5 0 0 0 0\n", True, id="plain"),
    pytest.param(_BLOCK_HEAD + "0.5 1 1 1 1\n0.2_5 2 1 0 0\n1.5 0 0 0 0\n", False,
                 id="declined"),
])
def test_file_objects_read_as_their_content(tmp_path, text, plain):
    ref = _outcome(parse_fcidump_lines, text)
    assert isinstance(ref[0], MolecularIntegrals)
    assert _outcome(parse_fcidump, text) == ref
    path = tmp_path / "object.fcidump"
    path.write_bytes(text.encode("ascii"))
    for open_content in (lambda: io.StringIO(text), lambda: io.BytesIO(text.encode("ascii")),
                         lambda: open(path, "rb")):
        with open_content() as fh, _line_reader_counted() as reader:
            assert _outcome(parse_fcidump, fh) == ref, fh
        assert reader.call_count == (0 if plain else 1), fh


def test_unseekable_file_read_whole(tmp_path):
    # A pipe cannot be read again: it is read whole, and a body the
    # whole-array reader declines (an underscore) goes to the line reader.
    path = tmp_path / "pipe.fcidump"
    os.mkfifo(path)
    text = _BLOCK_HEAD + "0.5 1 1 1 1\n0.2_5 2 1 0 0\n"
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        assert _outcome(integrals.load_fcidump, path) == _outcome(parse_fcidump_lines, text)
    finally:
        writer.join(timeout=10)


# ---------------------------------------------------------------------------
# Eigendecomposition and truncation
# ---------------------------------------------------------------------------

def _assert_padded_equals_groups(df: DoubleFactorization, groups) -> None:
    """Row r of ``df`` holds the eigenpairs of ``groups[r]`` in its first
    slots, and 0.0 and a zero eigenvector in the rest."""
    n = df.n_orbitals
    values, vectors = np.zeros((len(groups), n)), np.zeros((len(groups), n, n))
    for r, group in enumerate(groups):
        for m, (lam, vec) in enumerate(group):
            values[r, m], vectors[r, m] = lam, vec
    assert df.eigenvalues.tolist() == values.tolist()
    assert df.eigenvectors.shape == vectors.shape and np.array_equal(df.eigenvectors, vectors)


def _assert_holds_groups(df: DoubleFactorization, groups) -> None:
    """The eigenpairs of ``df``, rank by rank, are those of ``groups``."""
    held = groups_of(df)
    assert [[lam for lam, _ in g] for g in held] == [[lam for lam, _ in g] for g in groups]
    assert all(np.array_equal(a, b) for g, h in zip(held, groups) for (_, a), (_, b) in zip(g, h))


def _assert_same_double_factorization(m) -> None:
    sf = single_factorize(m, tol=1e-10)
    df = double_factorize(sf, adjusted_one_body(m))
    groups = eigenpair_groups_loop(sf.factors)
    _assert_padded_equals_groups(df, groups)
    norms = []
    for g in groups:
        acc = 0.0
        for lam, _ in g:
            acc += abs(lam)
        norms.append(acc)
    assert df.schatten_norms.tolist() == norms


@settings(max_examples=60, deadline=None)
@given(psd_instances(log10_scale=(0.0, 0.0)))  # large scales can leave W not PSD
def test_double_factorize_matches_loop(m):
    _assert_same_double_factorization(m)


def test_h4_double_factorize_matches_loop(h4):
    _assert_same_double_factorization(h4)


def _factors_with_zeros(n: int, rank: int, zero_ranks, seed: int) -> np.ndarray:
    """Symmetric factors Q diag(lambda) Q^T; in ``zero_ranks`` half the
    lambda are zero, which ``eigh`` returns as numerical zeros to drop."""
    rng = np.random.default_rng(seed)
    factors = np.empty((rank, n, n))
    for r in range(rank):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = rng.standard_normal(n)
        if r in zero_ranks:
            lam[: n // 2] = 0.0
        factors[r] = (q * lam) @ q.T
        factors[r] = 0.5 * (factors[r] + factors[r].T)
    return factors


# double_factorize decomposes the factors a chunk at a time.  With chunks of
# 1, 3 or 4 factors a rank of 10 spans 10, 4 or 3 chunks, the last one short
# but for 1, and 10 factors are one chunk.  Factors 2 and 3, on each side of
# the first cut of 3, and 9, the last, drop eigenpairs.
@pytest.mark.parametrize("per_chunk", [1, 3, 4, 10])
def test_chunked_double_factorize_matches_whole_stack(monkeypatch, per_chunk):
    n = 6
    sf = SingleFactorization(_factors_with_zeros(n, 10, {2, 3, 9}, seed=per_chunk), 0.0)
    l_minus1 = _factors_with_zeros(n, 1, set(), seed=99)[0]
    adj = AdjustedOneBody(l_minus1, l_minus1, 0.5, 1.5)
    whole = double_factorize_whole(sf, adj)
    assert (np.count_nonzero(whole.eigenvalues, axis=1)[[2, 3, 9]] < n).all()
    monkeypatch.setattr(factorization, "_EIGH_CHUNK", per_chunk * 8 * n * n)
    df = double_factorize(sf, adj)
    for name in ("eigenvalues", "eigenvectors", "schatten_norms"):
        a, b = getattr(df, name), getattr(whole, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for a, b in zip(df.one_body_eigs, whole.one_body_eigs):
        assert a.tobytes() == b.tobytes()
    assert df.one_body is adj and df.n_orbitals == n


@pytest.mark.parametrize("instance", ["h2", "h4", *range(1, 9), 36])
def test_adjusted_one_body_matches_tensor_einsums(instance, request):
    """The contractions read from W add in the order of the einsums over the
    tensor: every bit of h_tilde, l_minus1 and the scalar shift is theirs."""
    if isinstance(instance, str):
        m = request.getfixturevalue(instance)
    else:
        m = make_integrals(integrals, instance, min(10 * instance, instance * (instance + 1) // 2),
                           0, 0)
    new, ref = adjusted_one_body(m), adjusted_one_body_einsum(m)
    assert np.array_equal(new.h_tilde, ref.h_tilde)
    assert np.array_equal(new.l_minus1, ref.l_minus1)
    assert new.scalar_shift == ref.scalar_shift


def _assert_rebuilds_match_loops(df: DoubleFactorization) -> None:
    """Each factor_matrix, and each factor of factor_matrices, is exactly
    symmetric and within 1e-13 max|lambda| of the outer-product loop;
    reconstruct_two_body is within 1e-12 of the per-rank loop at W's
    entries, scaled by the loop's largest |entry| where that exceeds 1
    (|lambda| ~ 1e8 gives entries ~ 1e16)."""
    factors = df.factor_matrices()
    assert factors.shape == (df.rank, df.n_orbitals, df.n_orbitals)
    for r in range(df.rank):
        scale = np.abs(df.eigenvalues[r]).max(initial=0.0)
        for factor in (df.factor_matrix(r), factors[r]):
            assert np.array_equal(factor, factor.T)
            assert np.abs(factor - factor_matrix_loop(df, r)).max() <= 1e-13 * scale
    ref = packed(reconstruct_two_body_loop(df))
    pair_matrix = reconstruct_two_body(df)
    assert pair_matrix.shape == ref.shape
    assert np.abs(pair_matrix - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max())


def _eigenpair_factorization(n: int, counts: list[int], seed: int,
                             scale: float) -> DoubleFactorization:
    """Ranks of min(count, n) eigenpairs each (0 for an emptied rank), with
    orthonormal eigenvectors and |lambda| up to ``scale``.  The slots of no
    eigenpair hold the rest of each orthonormal basis."""
    rng = np.random.default_rng(seed)
    values, vectors = np.zeros((len(counts), n)), np.empty((len(counts), n, n))
    for r, count in enumerate(min(c, n) for c in counts):
        lams = rng.uniform(-scale, scale, count)
        values[r, :count] = lams[np.argsort(-np.abs(lams), kind="stable")]
        vectors[r] = np.linalg.qr(rng.normal(size=(n, n)))[0].T
    return DoubleFactorization(
        one_body=AdjustedOneBody(np.zeros((n, n)), np.zeros((n, n)), 0.0),
        one_body_eigs=(np.zeros(n), np.eye(n)),
        eigenvalues=values,
        eigenvectors=vectors,
        schatten_norms=np.abs(values).sum(axis=1),
        n_orbitals=n,
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    counts=st.lists(st.integers(min_value=0, max_value=6), max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_scale=st.floats(min_value=-3.0, max_value=8.0),
)
@example(n=3, counts=[], seed=0, log10_scale=0.0)  # R = 0
@example(n=4, counts=[3, 0, 4], seed=1, log10_scale=8.0)  # an emptied rank, |lambda| ~ 1e8
def test_rebuilds_match_loops(n, counts, seed, log10_scale):
    _assert_rebuilds_match_loops(
        _eigenpair_factorization(n, counts, seed, 10.0 ** log10_scale))


def test_n20_rank120_rebuilds_match_loops():
    m = _seeded_integrals(20, 120, seed=7)
    df = double_factorize(single_factorize(m), adjusted_one_body(m))
    assert df.rank == 120
    _assert_rebuilds_match_loops(df)


# A few magnitudes, both signs: +-lambda pairs tie inside a rank, repeated
# magnitude lists tie across ranks through equal Schatten norms, 0.0 is a slot
# with no eigenpair (a rank of only 0.0 has none), and 1e-200 alone in a rank
# gives a zero score (its norm times it underflows).
MAGNITUDES = [0.0, 1e-200, 1e-3, 0.25, 0.5, 1.0, 3.0]


@st.composite
def factorizations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rank = draw(st.integers(min_value=0, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    groups = []
    for _ in range(rank):
        if groups and draw(st.booleans()):
            lams = list(groups[-1])
        else:
            mags = draw(st.lists(
                st.one_of(st.sampled_from(MAGNITUDES), st.floats(min_value=1e-6, max_value=10.0)),
                min_size=1, max_size=n,
            ))
            lams = [mag if draw(st.booleans()) else -mag for mag in mags]
        groups.append(sorted(lams, key=abs, reverse=True))
    norms = []
    for lams in groups:
        acc = 0.0
        for lam in lams:
            acc += abs(lam)
        # a norm above the kept sum is what a truncated factorization carries
        norms.append(acc + draw(st.sampled_from([0.0, 0.0, 0.5])))
    values = np.zeros((rank, n))
    for r, lams in enumerate(groups):
        values[r, :len(lams)] = lams
    ob_vals = rng.normal(size=n)
    return DoubleFactorization(
        one_body=AdjustedOneBody(np.zeros((n, n)), np.diag(ob_vals), 0.0),
        one_body_eigs=(ob_vals, np.eye(n)),
        eigenvalues=values,
        eigenvectors=rng.normal(size=(rank, n, n)),
        schatten_norms=np.array(norms, dtype=float),
        n_orbitals=n,
    )


def _budget_boundaries(df) -> list[float]:
    """0, every prefix sum and root-sum-square of the ascending scores as a
    loop accumulates them, their floating-point neighbours, and a budget
    above the total."""
    linear, root_sq = [0.0], [0.0]
    acc_sq = 0.0
    for _, s in score_eigenpairs_loop(df):
        linear.append(linear[-1] + s)
        acc_sq += s * s
        root_sq.append(math.sqrt(acc_sq))
    exact = linear + root_sq
    near = [math.nextafter(b, math.inf) for b in exact]
    near += [math.nextafter(b, 0.0) for b in exact]
    return sorted(set(exact + near + [2.0 * linear[-1] + 1.0]))


def _assert_truncation_matches_loop(df, scheme, eps):
    ref = truncate_loop(df, scheme, eps)
    reduced, plan = truncate(df, scheme, eps)
    assert [divmod(i, df.n_orbitals) for i in plan.removed.tolist()] == ref["removed"]
    assert plan.coherent_score == ref["coherent_score"]
    assert plan.incoherent_score == ref["incoherent_score"]
    assert reduced.rank == len(ref["groups"])
    assert reduced.total_eigenpairs == sum(len(g) for g in ref["groups"])
    assert reduced.eigenvalues.tolist() == ref["eigenvalues"]
    _assert_holds_groups(reduced, ref["groups"])
    assert reduced.schatten_norms.tolist() == ref["schatten_norms"]
    assert alpha_df(reduced) == ref["alpha_df"]
    return ref


def _assert_sweep_matches_loop(df, scheme, grid):
    rows = threshold_sweep(df, scheme, grid)
    assert len(rows) == len(grid)
    for eps, row in zip(grid, rows):
        ref = truncate_loop(df, scheme, eps)
        groups = ref["groups"]
        assert row == (
            eps, len(groups), sum(len(g) for g in groups), max(map(len, groups), default=0),
            ref["alpha_df"], ref["coherent_score"], ref["incoherent_score"],
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncation_matches_loop(data):
    df = data.draw(factorizations())
    boundaries = _budget_boundaries(df)
    eps = data.draw(st.one_of(st.sampled_from(boundaries), st.floats(min_value=0.0, max_value=20.0)))
    for scheme in ("coherent", "incoherent"):
        _assert_truncation_matches_loop(df, scheme, eps)
        _assert_sweep_matches_loop(df, scheme, boundaries)


def test_n20_rank120_sweep_matches_loop():
    m = _seeded_integrals(20, 120, seed=11)
    df = double_factorize(single_factorize(m), adjusted_one_body(m))
    grid = [0.0, *default_grid(1e-6, 1.0, 31)]
    for scheme in ("coherent", "incoherent"):
        _assert_sweep_matches_loop(df, scheme, grid)
        # and on the 128-point grid of the benchmark's sweep
        _assert_sweep_matches_loop(df, scheme, list(default_grid(1e-5, 1.0, 128)))
        for eps in grid[::6]:
            _assert_truncation_matches_loop(df, scheme, eps)


@pytest.mark.parametrize("shape, order", [
    ((5, 0), "C"), ((1, 9), "C"), ((7, 1), "C"), ((360, 36), "C"), ((360, 36), "F"),
    ((100, 200), "F"),
])
def test_rank_sums_adds_like_the_column_loop(shape, order):
    rng = np.random.default_rng(list(shape))
    padded = np.exp(rng.uniform(-30.0, 30.0, shape)) * (rng.random(shape) < 0.7)
    padded = np.asarray(padded, order=order)
    np.testing.assert_array_equal(rank_sums(padded), rank_sums_loop(padded))
    assert rank_sums(padded).shape == (shape[0],)


def test_alpha_df_squares_rank_sums_like_the_loop():
    # x ** 2 calls the C library's pow, which on some platforms rounds a few
    # values differently from x * x; alpha_df must keep the loop's rounding.
    values = np.random.default_rng(5).uniform(0.1, 10.0, 20_000).tolist()
    odd = [x for x in values if x ** 2 != x * x][:20]
    if not odd:
        pytest.skip("x ** 2 == x * x for every sampled value on this platform")
    for x in odd:
        df = DoubleFactorization(
            one_body=AdjustedOneBody(np.zeros((1, 1)), np.zeros((1, 1)), 0.0),
            one_body_eigs=(np.zeros(1), np.eye(1)),
            eigenvalues=np.array([[x]]),
            eigenvectors=np.ones((1, 1, 1)),
            schatten_norms=np.array([x]),
            n_orbitals=1,
        )
        alpha = alpha_df_loop(df.one_body_eigs[0], [[(x, np.ones(1))]])
        assert alpha_df(df) == alpha
        assert threshold_sweep(df, "coherent", [0.0])[0][4] == alpha


def _estimate_outcome(fn, **kwargs):
    try:
        return fn(**kwargs).to_dict()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _small_or_large(hi: int):
    """Integers in [1, hi], often in [1, 8], where lam = 0 can be optimal."""
    return st.one_of(st.integers(1, 8), st.integers(1, hi))


@settings(max_examples=150, deadline=None)
@given(
    n=_small_or_large(64),
    rank=_small_or_large(600),
    m_total=_small_or_large(40000),
    m_max=st.none() | _small_or_large(64),
    alpha=st.floats(1e-3, 1e3),
    delta_e=st.floats(1e-4, 1e-1),
    mode=st.sampled_from(["min_toffoli", "min_qubits", "fixed"]),
    lam=st.integers(0, 64),
)
@example(n=1, rank=1, m_total=1, m_max=1, alpha=1e-3, delta_e=1e-3,
         mode="min_qubits", lam=0)  # lam = 0 is Toffoli-optimal here
@example(n=1, rank=1, m_total=1, m_max=1, alpha=1e-3, delta_e=1e-3,
         mode="min_toffoli", lam=0)
def test_estimate_matches_full_scan(n, rank, m_total, m_max, alpha, delta_e, mode, lam):
    kwargs = dict(n=n, rank=rank, m_total=m_total, m_max=m_max, alpha=alpha,
                  budget=ErrorBudget(delta_e=delta_e), mode=mode, lam=lam)
    assert _estimate_outcome(estimate, **kwargs) == _estimate_outcome(estimate_full_scan, **kwargs)
