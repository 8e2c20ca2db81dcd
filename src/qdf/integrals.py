"""Molecular Hamiltonian integrals: FCIDUMP parsing, symmetry handling, and
the adjusted one-body matrices used by the factorized representations.

Conventions
-----------
The two-electron tensor is stored in chemist notation, ``two_body[i, j, k, l]
= (ij|kl)`` in Hartree, with the full 8-fold permutational symmetry of real
orbitals:

    (ij|kl) = (ji|kl) = (ij|lk) = (ji|lk) = (kl|ij) = (kl|ji) = (lk|ij) = (lk|ji)

Indices are 0-based internally; FCIDUMP files are 1-based.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdjustedOneBody",
    "FcidumpError",
    "MolecularIntegrals",
    "SymmetryViolation",
    "adjusted_one_body",
    "canonical_orbit",
    "load_fcidump",
    "parse_fcidump",
    "validate_symmetry",
    "write_fcidump",
]

#: Two duplicate FCIDUMP entries for the same orbit may differ by at most this
#: much before the file is rejected as self-contradictory.
DUPLICATE_TOLERANCE = 1e-10

#: Absolute tolerance of the symmetry validator, and the most violations it
#: reports for each check.
SYMMETRY_TOLERANCE = 1e-10
MAX_SYMMETRY_REPORT = 100


class FcidumpError(ValueError):
    """Malformed FCIDUMP content.  Carries a 1-based line number when the
    problem is attributable to a specific line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MolecularIntegrals:
    """One- and two-electron integrals of a molecular Hamiltonian.

    Attributes
    ----------
    n_orbitals : int
        Number of spatial orbitals N.
    n_electrons : int
        Electron count (from the NELEC header field).
    core_energy : float
        Scalar core/nuclear-repulsion energy in Hartree.
    one_body : (N, N) ndarray
        Symmetric one-electron integrals h_ij, Hartree.
    two_body : (N, N, N, N) ndarray
        Chemist-notation (ij|kl) tensor, Hartree, 8-fold symmetric.
    """

    n_orbitals: int
    n_electrons: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        n = self.n_orbitals
        if n <= 0:
            raise ValueError(f"n_orbitals must be positive, got {n}")
        if self.n_electrons < 0:
            raise ValueError(f"n_electrons must be non-negative, got {self.n_electrons}")
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body shape {self.one_body.shape} != ({n}, {n})")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError(f"two_body shape {self.two_body.shape} != ({n},)*4")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MolecularIntegrals):
            return NotImplemented
        return (
            self.n_orbitals == other.n_orbitals
            and self.n_electrons == other.n_electrons
            and self.core_energy == other.core_energy
            and np.array_equal(self.one_body, other.one_body)
            and np.array_equal(self.two_body, other.two_body)
        )

    def scaled(self, factor: float) -> "MolecularIntegrals":
        """All integrals (including the core energy) multiplied by ``factor``."""
        return MolecularIntegrals(
            self.n_orbitals,
            self.n_electrons,
            factor * self.core_energy,
            factor * self.one_body,
            factor * self.two_body,
        )


@dataclass(frozen=True)
class AdjustedOneBody:
    """One-body matrices entering the factorized Hamiltonian forms.

    ``h_tilde[i,j] = h_ij - 1/2 sum_l (il|lj)`` absorbs the exchange-like
    contraction of the two-electron tensor; ``l_minus1`` additionally absorbs
    the Coulomb-like contraction, ``l_minus1[i,j] = h_tilde[i,j] +
    sum_l (ll|ij)``; ``scalar_shift`` is the accompanying identity
    coefficient, ``sum_i h_ii - 1/2 sum_il (il|li) + 1/2 sum_il (ll|ii)``.
    ``core_energy`` is carried through from the source integrals so the
    factorized forms stay self-contained representations of the full
    Hamiltonian.
    """

    h_tilde: np.ndarray
    l_minus1: np.ndarray
    scalar_shift: float
    core_energy: float = 0.0


@dataclass(frozen=True)
class SymmetryViolation:
    """A broken integral symmetry: which relation, at which indices, by how much."""

    relation: str
    indices: tuple
    discrepancy: float

    def __str__(self):
        return f"{self.relation} at {self.indices}: |delta| = {self.discrepancy:.3e}"


def canonical_orbit(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Canonical representative of the 8-fold orbit of (i, j, k, l):
    i >= j, k >= l, and (i, j) >= (k, l) lexicographically."""
    if i < j:
        i, j = j, i
    if k < l:
        k, l = l, k
    if (i, j) < (k, l):
        i, j, k, l = k, l, i, j
    return i, j, k, l


_HEADER_FIELD = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=,]*?)(?=\s*(?:,|$|[A-Za-z0-9_]+\s*=))")


def _parse_header(lines) -> tuple[int, int, int]:
    """Read the namelist header from an iterable of lines; returns (norb,
    nelec, number of header lines).  Only the header lines are consumed."""
    header_text = []
    end_idx = None
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        header_text.append(stripped)
        if "&END" in stripped.upper() or stripped.endswith("/") or stripped == "/":
            end_idx = idx
            break
    if end_idx is None:
        raise FcidumpError("namelist header is not terminated by &END or /")
    joined = " ".join(header_text)
    joined = joined.replace("&END", " ").replace("&end", " ").rstrip("/ ")
    joined = re.sub(r"&[A-Za-z]+", " ", joined)

    fields = {m.group(1).upper(): m.group(2).strip() for m in _HEADER_FIELD.finditer(joined)}
    if "NORB" not in fields:
        raise FcidumpError("header is missing NORB", line=1)
    if "NELEC" not in fields:
        raise FcidumpError("header is missing NELEC", line=1)
    try:
        norb = int(fields["NORB"].split(",")[0])
        nelec = int(fields["NELEC"].split(",")[0])
    except ValueError as exc:
        raise FcidumpError(f"non-integer NORB/NELEC: {exc}", line=1) from None
    if norb <= 0:
        raise FcidumpError(f"NORB must be positive, got {norb}", line=1)
    if nelec < 0:
        raise FcidumpError(f"NELEC must be non-negative, got {nelec}", line=1)
    # ORBSYM / ISYM / MS2 are accepted and ignored: no point-group symmetry here.
    return norb, nelec, end_idx + 1


# Whitespace as ``str.split`` sees it becomes b" " and line boundaries as
# ``str.splitlines`` sees them become b"\n" (after b"\r\n" -> b"\n"), so line
# numbers and tokens match a line-by-line reading of the text.  In the body,
# translated in one pass, Fortran double-precision exponents also become E.
_NORMALIZE = bytes.maketrans(b"\t\x1f\r\x0b\x0c\x1c\x1d\x1e", b"  \n\n\n\n\n\n")
_NORMALIZE_BODY = bytes.maketrans(b"\t\x1f\r\x0b\x0c\x1c\x1d\x1eDd", b"  \n\n\n\n\n\nEe")
_LINE_END = re.compile(b"[\n\r\x0b\x0c\x1c\x1d\x1e]")
# Bytes a valid record may contain once underscores are stripped: the
# separators, and what ``float`` accepts (digits, sign, point, exponent and
# the letters of inf, infinity and nan).  Any other byte fails the record.
_RECORD_BYTES = b" \n0123456789+-.eEinftyaINFTYA"
_BAD_BYTE = re.compile(b"[^" + re.escape(_RECORD_BYTES) + b"]")
# An underscore ``float``/``int`` reject: not between two digits.
_BAD_UNDERSCORE = re.compile(rb"(?<![0-9])_|_(?![0-9])")
# Index tokens of at most this many digits are decoded by array arithmetic
# (int64 holds every 18-digit number); longer ones by ``int``.
_INDEX_DIGITS = 18
_INDEX_MIN, _INDEX_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_TOKEN = re.compile(rb"[^ \n]+")


def _split_lines(buf: bytes):
    """Lines of the content, normalized and decoded one at a time."""
    start = 0
    while start < len(buf):
        end = _LINE_END.search(buf, start)
        end = len(buf) if end is None else end.start()
        yield buf[start:end].translate(_NORMALIZE).decode("ascii")
        start = end + 1


def _ascii_bytes(text) -> bytes:
    """FCIDUMP content as ASCII bytes; any other byte is an error."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    if data.isascii():
        return data
    pos = re.search(rb"[^\x00-\x7f]", data).start()
    line = len((data[:pos].decode("ascii") + "x").splitlines())
    raise FcidumpError(f"non-ASCII byte {data[pos]:#04x}", line=line)


def _record_error(stripped: str) -> str:
    """Why a body line that is not a valid record fails, in check order."""
    tokens = stripped.split()
    if len(tokens) != 5:
        return f"expected 'value i j k l', got {stripped!r}"
    try:
        float(tokens[0].replace("D", "E").replace("d", "e"))
    except ValueError:
        return f"non-numeric value field {tokens[0]!r}"
    return f"non-integer index in {stripped!r}"


def _floats(text: bytes) -> np.ndarray | None:
    """The whitespace-separated numbers of ``text``, or None if a token is
    not one.  Older numpy warns about such a token instead of raising."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


class _Body:
    """The FCIDUMP body as arrays, cut back to the first failing record.

    The checks run in the order of a line-by-line reading: the token count
    of each line, then the value (parsed as a float from the value tokens
    only), then the four indices (decoded by digit arithmetic).  Each check
    looks only at the records before the current cut and may move the cut
    earlier, so after all checks the cut is at the first record that a
    line-by-line reading would reject, and ``error`` holds its line number
    and message.  ``body`` starts with the newline that ends the header and
    ends with a newline: body line 0 is the header's last line, and every
    token follows and is followed by whitespace.
    """

    def __init__(self, data: bytes, body: bytes, first_line: int):
        self.data = data  # the original content, for error messages
        self.body = body
        self.first_line = first_line  # file line number of body line 0
        self.error: tuple[int, str] | None = None

    def source_line(self, lineno: int) -> str:
        """Line ``lineno`` (1-based) of the original content, stripped."""
        return self.data.decode("ascii").splitlines()[lineno - 1].strip()

    def line_of(self, r: int) -> int:
        return self.first_line + int(self.rec_line[r])

    def _reject(self, line: int, message: str | None) -> None:
        lineno = self.first_line + line
        if message is None:
            message = _record_error(self.source_line(lineno))
        self.error = (lineno, message)

    def cut_record(self, r: int, message: str | None = None) -> None:
        """Reject record ``r``; keep the records before it."""
        self._reject(int(self.rec_line[r]), message)
        self.n = r

    def _cut_at_byte(self, pos: int) -> None:
        """Reject the line holding byte ``pos``; keep the body before it."""
        self._reject(self.body.count(b"\n", 0, pos), None)
        self.body = self.body[: self.body.rfind(b"\n", 0, pos) + 1]

    def _tokenize(self) -> None:
        """Token start offsets and the line of each record; rejects the first
        line holding other than 0 or 5 tokens."""
        b = np.frombuffer(self.body, dtype=np.uint8)
        ws = b <= 32  # only b" " and b"\n" are left at or below 32
        starts = np.flatnonzero(ws[:-1] > ws[1:])
        starts += 1
        del ws
        # The tokens before each newline, hence in each line (the body ends
        # with a newline, so no token follows the last).
        counts = np.diff(np.concatenate(([0], np.searchsorted(starts, np.flatnonzero(b == 10)))))
        bad = np.flatnonzero((counts != 0) & (counts != 5))
        if bad.size:
            counts = counts[: bad[0]]
            self._reject(int(bad[0]), None)
            starts = starts[: counts.sum()]
        self.starts = starts
        self.rec_line = np.flatnonzero(counts)
        self.n = self.rec_line.size

    def _values(self) -> np.ndarray:
        """The value token of each record as a float; rejects the first
        record whose value ``float`` does not accept."""
        # Only the bytes from each value token to the record's next token,
        # the value and the whitespace after it, are parsed.
        rec = self.starts.reshape(-1, 5)
        span = np.diff(np.concatenate(([0], rec[:, :2].ravel(), [len(self.body)])))
        inside = np.zeros(span.size, dtype=bool)
        inside[1::2] = True
        text = np.frombuffer(self.body, dtype=np.uint8)[np.repeat(inside, span)].tobytes()
        values = _floats(text)
        if values is not None:
            return values
        # Records parse independently, so bisect for the first that fails.
        end = np.cumsum(rec[:, 1] - rec[:, 0])
        lo, hi = 0, self.n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _floats(text[end[lo - 1] if lo else 0: end[mid - 1]]) is not None:
                lo = mid
            else:
                hi = mid
        self.cut_record(lo)
        return _floats(text[: end[lo - 1]]) if lo else np.empty(0)

    def _indices(self) -> np.ndarray:
        """The four index tokens of each record as int64 (n, 4), decoded as
        ``int`` reads them: an optional sign, then ASCII digits.  Rejects the
        first record holding another index token."""
        b = np.frombuffer(self.body, dtype=np.uint8)
        pos = self.starts[: 5 * self.n].reshape(-1, 5)[:, 1:].ravel()
        self.starts = None  # its last use: free it before the decoding arrays
        c = b[pos]
        negative = c == 45  # b"-"
        signed = negative | (c == 43)  # b"+"
        pos += signed
        index = np.zeros(pos.size, dtype=np.int64)
        bad = np.zeros(pos.size, dtype=bool)
        live = np.ones(pos.size, dtype=bool)  # still reading digits
        for width in range(_INDEX_DIGITS + 1):
            c = b[pos]
            digit = c - np.uint8(48)  # wraps above 9 for any other byte
            more = live & (digit < 10)
            ended = live ^ more
            # A token ends at whitespace after at least one digit.
            bad |= (ended & (c > 32)) if width else ended
            live = more
            if width == _INDEX_DIGITS or not live.any():
                break
            np.multiply(index, 10, out=index, where=live)
            np.add(index, digit, out=index, where=live)
            pos += live
        np.negative(index, out=index, where=negative)
        # Longer tokens, rare, are read by int() itself, which also refuses
        # more digits than it converts; values past int64 are out of range.
        for t in np.flatnonzero(live).tolist():
            start = int(pos[t]) - _INDEX_DIGITS - int(signed[t])
            token = _TOKEN.match(self.body, start).group()
            try:
                index[t] = min(max(int(token), _INDEX_MIN), _INDEX_MAX)
            except ValueError:
                bad[t] = True
        if bad.any():
            self.cut_record(int(np.argmax(bad)) // 4)
        return index.reshape(-1, 4)

    def records(self) -> tuple[np.ndarray, np.ndarray]:
        """The values (n,) and the 1-based (i, j, k, l) indices (n, 4) of the
        well-formed records before the first line that is not one: a line
        with other than five tokens, a value ``float`` rejects or an index
        ``int`` rejects."""
        if b"_" in self.body:  # float() and int() skip an underscore between digits
            bad = _BAD_UNDERSCORE.search(self.body)
            if bad:
                self._cut_at_byte(bad.start())
            self.body = self.body.replace(b"_", b"")
        if self.body.translate(None, _RECORD_BYTES):
            self._cut_at_byte(_BAD_BYTE.search(self.body).start())
        self._tokenize()
        values = self._values()
        index = self._indices()
        self.body = None
        return values[: self.n], index[: self.n]


def _store_key(i, j, k, l, norb: int) -> np.ndarray:
    """Sort key of one-body records (k = l = 0), a*N + b for h_ab with a >= b,
    and of two-body records, N^2 plus the (pair, pair) index of the canonical
    orbit; 1-based index arrays in."""
    a, b = np.maximum(i, j) - 1, np.minimum(i, j) - 1
    c, d = np.maximum(k, l) - 1, np.minimum(k, l) - 1
    ab = a * (a + 1) // 2 + b
    cd = c * (c + 1) // 2 + d
    n_pairs = norb * (norb + 1) // 2
    two_body = norb * norb + np.maximum(ab, cd) * n_pairs + np.minimum(ab, cd)
    return np.where(k == 0, a * norb + b, two_body)


def _entries(state: _Body, norb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The core-energy values in file order, the distinct ``_store_key`` keys
    of the one- and two-body records with the last value of each, and the
    number of repeated records.  Warns about each orbital-energy record and
    raises FcidumpError at the first offending line.  The record arrays are
    freed on return, before the tensor is filled."""
    value, index = state.records()
    out_of_range = np.flatnonzero(((index < 0) | (index > norb)).any(axis=1))
    if out_of_range.size:
        r = int(out_of_range[0])
        stripped = state.source_line(state.line_of(r))
        try:
            idx = next(v for v in map(int, stripped.split()[1:]) if v < 0 or v > norb)
            message = f"index {idx} out of range [0, {norb}]"
        except ValueError:  # more digits than int() converts
            message = _record_error(stripped)
        state.cut_record(r, message)
        value, index = value[:r], index[:r]
    i, j, k, l = index.T

    core = (i == 0) & (j == 0) & (k == 0) & (l == 0)
    pair_only = (i != 0) & (k == 0) & (l == 0)
    orbital = pair_only & (j == 0)
    one = pair_only & (j != 0)
    two = (i != 0) & (j != 0) & (k != 0) & (l != 0)
    malformed = np.flatnonzero(~(core | orbital | one | two))
    if malformed.size:
        r = int(malformed[0])
        state.cut_record(
            r,
            f"malformed index pattern ({i[r]} {j[r]} {k[r]} {l[r]}): zeros are only "
            "allowed as trailing k=l=0 or the all-zero core record",
        )

    core_rec = np.flatnonzero(core[: state.n])
    core_value = value[core_rec]
    with np.errstate(invalid="ignore"):  # inf - inf is nan, and nan never conflicts
        clash = np.flatnonzero(np.abs(core_value[:-1] - core_value[1:]) > DUPLICATE_TOLERANCE)
    if clash.size:
        c = int(clash[0])
        state.cut_record(
            int(core_rec[c + 1]),
            f"conflicting core energy: {float(core_value[c])!r} vs {float(core_value[c + 1])!r}",
        )

    # A stable sort groups each key's records in file order: "last wins" is
    # the last of each group, and each repeat is checked against the record
    # before it, which is the value a line-by-line reading would hold.
    stored = np.flatnonzero((one | two)[: state.n])
    key = _store_key(i[stored], j[stored], k[stored], l[stored], norb)
    order = np.argsort(key, kind="stable")
    key, stored = key[order], stored[order]
    del order
    repeat = key[1:] == key[:-1]
    stored_value = value[stored]
    with np.errstate(invalid="ignore"):
        clash = np.flatnonzero(
            repeat & (np.abs(stored_value[:-1] - stored_value[1:]) > DUPLICATE_TOLERANCE)
        )
    if clash.size:
        c = int(clash[np.argmin(stored[clash + 1])])
        r = int(stored[c + 1])
        if k[r] == 0:
            dup_key = (max(i[r], j[r]) - 1, min(i[r], j[r]) - 1)
        else:
            dup_key = canonical_orbit(i[r] - 1, j[r] - 1, k[r] - 1, l[r] - 1)
        dup_key = tuple(int(x) for x in dup_key)
        state.cut_record(
            r,
            f"duplicate entry for {dup_key} conflicts: "
            f"{float(stored_value[c])!r} vs {float(stored_value[c + 1])!r}",
        )

    for r in np.flatnonzero(orbital[: state.n]):
        warnings.warn(
            f"fcidump line {state.line_of(r)}: "
            f"ignoring orbital-energy record for orbital {i[r]}"
        )
    if state.error is not None:
        raise FcidumpError(state.error[1], line=state.error[0])
    last = np.append(~repeat, True)[: key.size]
    return core_value, key[last], stored_value[last], int(repeat.sum())


def _fill(norb: int, key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_ij and (ij|kl) from the stored values at their distinct ``_store_key``
    keys.  The two-body values go to both (pair, pair) entries of the packed
    pair matrix, which one gather expands to the 8-fold symmetric tensor."""
    n_pairs = norb * (norb + 1) // 2
    h1 = np.zeros((norb, norb))
    pair_matrix = np.zeros((n_pairs, n_pairs))
    one = key < norb * norb
    a, b = np.divmod(key[one], norb)
    h1[a, b] = h1[b, a] = value[one]
    ab, cd = np.divmod(key[~one] - norb * norb, n_pairs)
    pair_matrix[ab, cd] = pair_matrix[cd, ab] = value[~one]
    # The pair of orbitals i and j, numbered as in ``_store_key``.
    orbital = np.arange(norb)
    hi, lo = np.maximum.outer(orbital, orbital), np.minimum.outer(orbital, orbital)
    pair_of = (hi * (hi + 1) // 2 + lo).reshape(-1)
    return h1, pair_matrix[np.ix_(pair_of, pair_of)].reshape(norb, norb, norb, norb)


def parse_fcidump(text) -> MolecularIntegrals:
    """Parse FCIDUMP content into :class:`MolecularIntegrals`.

    Parameters
    ----------
    text : str, bytes or file-like
        FCIDUMP content, ASCII.  The body holds ``value i j k l`` records
        with 1-based indices: ``0 0 0 0`` marks the core energy, ``i j 0 0``
        a one-body entry, ``i 0 0 0`` an orbital energy (ignored with a
        warning), and four nonzero indices a two-body entry (chemist
        convention).  Each stored two-body value populates all eight
        symmetry-equivalent slots.

    The body is read with whole-array operations.  One ``np.fromstring``
    parses the value tokens alone, cut out of the body by one boolean mask;
    the index tokens are decoded from their bytes by digit arithmetic, as
    ``int`` reads them.  Masks classify the records, a stable sort on
    canonical keys finds duplicates, and one gather expands the packed
    (pair, pair) matrix of the stored values into the tensor.  Errors name
    the first offending line, as a line-by-line reading would.

    Raises
    ------
    FcidumpError
        Non-ASCII content, missing or invalid NORB/NELEC, a NORB too large
        for the two-electron tensor to fit in memory, out-of-range indices,
        non-numeric values, or duplicate entries that conflict by more than
        ``DUPLICATE_TOLERANCE``.
    """
    if hasattr(text, "read"):
        text = text.read()
    data = _ascii_bytes(text)
    del text
    if not data:
        raise FcidumpError("empty input")

    norm = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    norb, nelec, n_header = _parse_header(_split_lines(norm))
    offset = -1  # the line boundary that ends the header
    for _ in range(n_header):
        end = _LINE_END.search(norm, offset + 1)
        if end is None:
            offset = len(norm)
            break
        offset = end.start()
    state = _Body(data, b"".join((memoryview(norm)[offset:], b"\n")).translate(_NORMALIZE_BODY),
                  n_header)
    del norm
    core_value, key, value, duplicates = _entries(state, norb)
    # The text is needed only for error messages; freeing it before the
    # tensor is filled keeps it out of the process's peak memory.
    del state, data

    if duplicates:
        warnings.warn(f"fcidump: {duplicates} duplicate entr(y/ies) overwritten (last wins)")
    try:
        h1, h2 = _fill(norb, key, value)
    except (MemoryError, ValueError):  # ValueError: larger than numpy can index
        raise FcidumpError(
            f"NORB={norb} is too large: (ij|kl) needs {8 * norb**4} bytes", line=1
        ) from None
    core_energy = float(core_value[-1]) if core_value.size else 0.0

    m = MolecularIntegrals(norb, nelec, core_energy, h1, h2)
    if not (np.isfinite(core_energy) and np.isfinite(h1).all() and np.isfinite(h2).all()):
        raise FcidumpError("non-finite integral value")
    return m


def load_fcidump(path) -> MolecularIntegrals:
    """Parse an FCIDUMP file from disk."""
    with open(path, "rb") as fh:
        return parse_fcidump(fh)


def write_fcidump(m: MolecularIntegrals) -> str:
    """Serialize to FCIDUMP text.

    Values are written with 17 significant digits so that
    ``parse_fcidump(write_fcidump(m)) == m`` exactly.  One representative per
    8-fold orbit is emitted, the canonical (ij|kl) with i >= j, k >= l and
    (i, j) >= (k, l), in lexicographic (i, j, k, l) order; zeros are skipped.
    """
    n = m.n_orbitals
    header = [
        f"&FCI NORB={n},NELEC={m.n_electrons},MS2=0,",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]
    # The pairs (i, j), i >= j, in lexicographic order (that of np.tril_indices),
    # then the pairs of pairs (ij, kl), kl <= ij, likewise: the canonical
    # orbits in lexicographic (i, j, k, l) order.
    i, j = np.nonzero(np.tri(n, dtype=bool))
    ij, kl = np.nonzero(np.tri(i.size, dtype=bool))
    a, b, zero = i + 1, j + 1, np.zeros_like(i)
    line = "{:.17g} {} {} {} {}".format

    def records(values, *index):
        keep = values != 0.0
        return map(line, values[keep].tolist(), *(x[keep].tolist() for x in index))

    return "\n".join([
        *header,
        *records(m.two_body[i[ij], j[ij], i[kl], j[kl]], a[ij], b[ij], a[kl], b[kl]),
        *records(m.one_body[i, j], a, b, zero, zero),
        line(m.core_energy, 0, 0, 0, 0),
    ]) + "\n"


def validate_symmetry(m: MolecularIntegrals) -> list[SymmetryViolation]:
    """Check the one-body and 8-fold two-body symmetries.

    Returns an empty list iff every symmetry holds within SYMMETRY_TOLERANCE
    (absolute) and all entries are finite.  Report-only: never raises.
    """
    violations: list[SymmetryViolation] = []
    h1, g = m.one_body, m.two_body

    if not np.isfinite(h1).all():
        for idx in np.argwhere(~np.isfinite(h1))[:MAX_SYMMETRY_REPORT]:
            violations.append(SymmetryViolation("one_body finite", tuple(int(x) for x in idx), np.inf))
    if not np.isfinite(g).all():
        for idx in np.argwhere(~np.isfinite(g))[:MAX_SYMMETRY_REPORT]:
            violations.append(SymmetryViolation("two_body finite", tuple(int(x) for x in idx), np.inf))
    if violations:
        return violations

    delta1 = h1 - h1.T
    bad = np.argwhere(np.abs(delta1) > SYMMETRY_TOLERANCE)
    for i, j in bad[:MAX_SYMMETRY_REPORT]:
        if i < j:
            violations.append(
                SymmetryViolation("h_ij = h_ji", (int(i), int(j)), float(abs(delta1[i, j])))
            )

    # The 8-fold group is generated by these three transpositions.
    generators = [
        ("(ij|kl) = (ji|kl)", (1, 0, 2, 3)),
        ("(ij|kl) = (ij|lk)", (0, 1, 3, 2)),
        ("(ij|kl) = (kl|ij)", (2, 3, 0, 1)),
    ]
    for name, perm in generators:
        delta = g - g.transpose(perm)
        bad = np.argwhere(np.abs(delta) > SYMMETRY_TOLERANCE)
        seen: set[tuple] = set()
        for idx in bad:
            t = tuple(int(x) for x in idx)
            rep = canonical_orbit(*t)
            if rep in seen:
                continue
            seen.add(rep)
            violations.append(SymmetryViolation(name, t, float(abs(delta[t]))))
            if len(seen) >= MAX_SYMMETRY_REPORT:
                break

    return violations


def adjusted_one_body(m: MolecularIntegrals) -> AdjustedOneBody:
    """Exchange- and Coulomb-contracted one-body matrices and the scalar shift.

    h_tilde_ij  = h_ij - 1/2 sum_l (il|lj)
    l_minus1_ij = h_tilde_ij + sum_l (ll|ij)
    scalar      = sum_i h_ii - 1/2 sum_il (il|li) + 1/2 sum_il (ll|ii)
    """
    h, g = m.one_body, m.two_body
    exchange = np.einsum("illj->ij", g)
    coulomb = np.einsum("llij->ij", g)
    h_tilde = h - 0.5 * exchange
    l_minus1 = h_tilde + coulomb
    scalar = float(np.trace(h) - 0.5 * np.einsum("illi->", g) + 0.5 * np.einsum("llii->", g))
    return AdjustedOneBody(
        h_tilde=h_tilde, l_minus1=l_minus1, scalar_shift=scalar, core_energy=m.core_energy
    )

