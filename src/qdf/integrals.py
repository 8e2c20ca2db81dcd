"""Molecular Hamiltonian integrals: FCIDUMP parsing, symmetry handling, and
the adjusted one-body matrices used by the factorized representations.

Conventions
-----------
The two-electron integrals are in chemist notation, (ij|kl) in Hartree, with
the full 8-fold permutational symmetry of real orbitals:

    (ij|kl) = (ji|kl) = (ij|lk) = (ji|lk) = (kl|ij) = (kl|ji) = (lk|ij) = (lk|ji)

They are stored in one form, the packed matrix W[ij, kl] on the pairs of
``pair_index``; ``two_body`` expands the (N, N, N, N) tensor on request.
Indices are 0-based internally; FCIDUMP files are 1-based.
"""

from __future__ import annotations

import functools
import io
import itertools
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
    "pair_index",
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


@functools.lru_cache(maxsize=4)
def pair_index(n: int) -> np.ndarray:
    """The read-only (N, N) map of orbitals i and j to their pair, i(i+1)/2 + j
    for i >= j: pair p is the p-th (i, j) of ``np.tril_indices(n)``."""
    orbital = np.arange(n)
    hi, lo = np.maximum.outer(orbital, orbital), np.minimum.outer(orbital, orbital)
    pair_of = hi * (hi + 1) // 2 + lo
    pair_of.flags.writeable = False
    return pair_of


def _expand(w: np.ndarray, n: int) -> np.ndarray:
    """The (N, N, N, N) tensor of W, rows then columns (faster than both at once)."""
    pair_of = pair_index(n).reshape(-1)
    return w.take(pair_of, 0).take(pair_of, 1).reshape(n, n, n, n)


@functools.lru_cache(maxsize=2)
def _canonical_slots(n: int) -> np.ndarray:
    """The flat index in an (N, N, N, N) tensor of each entry of W's canonical slot."""
    position = np.flatnonzero(np.tri(n, dtype=bool))  # i * N + j of each pair
    slots = np.add.outer(position * (n * n), position)
    return np.maximum(slots, slots.T)  # of the slots of (ij|kl) and (kl|ij), the canonical


def _pack(g: np.ndarray) -> np.ndarray:
    """W from the canonical slot of each orbit of an (N, N, N, N) tensor; ValueError if
    a slot is more than SYMMETRY_TOLERANCE off it (a NaN or inf must fill its orbit)."""
    n = g.shape[0]
    w = g.reshape(-1).take(_canonical_slots(n))
    expanded = _expand(w, n)
    if not np.array_equal(expanded, g):  # exact equality is the usual case, and faster
        close = np.isclose(expanded, g, rtol=0.0, atol=SYMMETRY_TOLERANCE, equal_nan=True)
        if not close.all():
            slot = tuple(int(x) for x in np.unravel_index(np.argmin(close), g.shape))
            raise ValueError(f"two_body is not 8-fold symmetric: {slot} differs from "
                             f"{canonical_orbit(*slot)} by {abs(g[slot] - expanded[slot]):.3e}")
    return w


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
    pair_matrix : (P, P) ndarray, P = N(N+1)/2
        W[ij, kl] = (ij|kl), Hartree, on ``pair_index`` pairs; a tensor is packed.
    """

    n_orbitals: int
    n_electrons: int
    core_energy: float
    one_body: np.ndarray
    pair_matrix: np.ndarray

    def __post_init__(self):
        n = self.n_orbitals
        if n <= 0:
            raise ValueError(f"n_orbitals must be positive, got {n}")
        if self.n_electrons < 0:
            raise ValueError(f"n_electrons must be non-negative, got {self.n_electrons}")
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body shape {self.one_body.shape} != ({n}, {n})")
        if self.pair_matrix.shape == (n, n, n, n):
            object.__setattr__(self, "pair_matrix", _pack(self.pair_matrix))
        elif self.pair_matrix.shape != (n * (n + 1) // 2,) * 2:
            raise ValueError(f"pair_matrix shape {self.pair_matrix.shape} != (P, P) or ({n},)*4")

    @property
    def two_body(self) -> np.ndarray:
        """The (N, N, N, N) tensor (ij|kl), expanded from W on each access."""
        return _expand(self.pair_matrix, self.n_orbitals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MolecularIntegrals):
            return NotImplemented
        return (
            self.n_orbitals == other.n_orbitals
            and self.n_electrons == other.n_electrons
            and self.core_energy == other.core_energy
            and np.array_equal(self.one_body, other.one_body)
            and np.array_equal(self.pair_matrix, other.pair_matrix)
        )


@dataclass(frozen=True)
class AdjustedOneBody:
    """One-body matrices entering the factorized Hamiltonian forms (see
    ``adjusted_one_body``).  ``core_energy`` is carried through from the
    source integrals so the factorized forms stay self-contained
    representations of the full Hamiltonian."""

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


def _too_large(norb: int) -> FcidumpError:
    n_pairs = norb * (norb + 1) // 2
    return FcidumpError(f"NORB={norb} is too large: (ij|kl) needs {8 * n_pairs**2} bytes", line=1)


def _parse_header(lines) -> tuple[int, int, int]:
    """Read the namelist header from an iterable of lines; returns (norb,
    nelec, number of header lines).  Only the header lines are consumed."""
    header_text = []
    end_idx = None
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        header_text.append(stripped)
        if "&END" in stripped.upper() or stripped.endswith("/"):
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
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except ValueError as exc:
        raise FcidumpError(f"non-integer NORB/NELEC: {exc}", line=1) from None
    if norb <= 0:
        raise FcidumpError(f"NORB must be positive, got {norb}", line=1)
    if nelec < 0:
        raise FcidumpError(f"NELEC must be non-negative, got {nelec}", line=1)
    if norb**4 > _INDEX_MAX:  # (ij|kl) could not even be indexed
        raise _too_large(norb)
    # ORBSYM / ISYM / MS2 are accepted and ignored: no point-group symmetry here.
    return norb, nelec, end_idx + 1


# Line boundaries as ``str.splitlines`` sees them in ASCII text.
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]")
# In the body, translated in one pass: whitespace as ``str.split`` sees it
# becomes b" ", line boundaries b"\n" (a b"\r\n" two, around a blank line),
# and Fortran double-precision exponents E.
_NORMALIZE_BODY = bytes.maketrans(b"\t\x1f\r\x0b\x0c\x1c\x1d\x1eDd", b"  \n\n\n\n\n\nEe")
# The bytes of a plain body: separators, digits and what a decimal or
# exponent value needs.  Any other byte sends the body to the line reader.
_PLAIN_BYTES = b" \n0123456789+-.eE"
# A record as ``np.loadtxt`` reads it: the value, then i, j, k and l.
_RECORD = np.dtype([("value", "f8"), ("index", "i8", (4,))])
_INDEX_MAX = int(np.iinfo(np.int64).max)
# The whole-array reader reads the body about this many bytes at a time.
_PLAIN_BLOCK = 1 << 20


def _lines(data: bytes):
    """The lines of ASCII ``data`` as ``str.splitlines`` splits them, decoded
    a block at a time: a block ends at b"\n", which no line break spans, and
    is small, so that reading the header decodes little."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + (1 << 12)) + 1 or len(data)
        yield from data[start:end].decode("ascii").splitlines()
        start = end


def _ascii_bytes(text) -> bytes:
    """FCIDUMP content as ASCII bytes; any other byte is an error."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    if data.isascii():
        return data
    pos = re.search(rb"[^\x00-\x7f]", data).start()
    line = len((data[:pos].decode("ascii") + "x").splitlines())
    raise FcidumpError(f"non-ASCII byte {data[pos]:#04x}", line=line)


def _store_key(i, j, k, l, norb: int) -> np.ndarray:
    """Sort key of two-body records, the (pair, pair) index of the canonical
    orbit, and of one-body records (k = l = 0), P^2 plus a*N + b for h_ab with
    a >= b, where P = N(N+1)/2; 1-based index arrays in, and any key for a
    record that is neither.  A file that lists its two-body records in
    canonical order and then its one-body records, as the usual writers do,
    gives ascending keys."""
    a, b = np.maximum(i, j) - 1, np.minimum(i, j) - 1
    c, d = np.maximum(k, l) - 1, np.minimum(k, l) - 1
    ab = a * (a + 1) // 2 + b
    cd = c * (c + 1) // 2 + d
    n_pairs = norb * (norb + 1) // 2
    one_body = n_pairs * n_pairs + a * norb + b
    return np.where(k == 0, one_body, np.maximum(ab, cd) * n_pairs + np.minimum(ab, cd))


def _records(body: bytes) -> np.ndarray | None:
    """The records of ``body`` as ``_RECORD``s, or None unless ``body`` is
    plain: only ``_PLAIN_BYTES``, and blank or five-token lines that
    ``np.loadtxt`` reads (in these bytes it accepts what float() and int()
    do; numpy 1.23-1.26 only warn when they read ``1.0`` as an int)."""
    if body.translate(None, _PLAIN_BYTES):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body with no record
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(io.BytesIO(body), dtype=_RECORD, ndmin=1)
        except (ValueError, OverflowError, DeprecationWarning):
            return None


def _header_end(data: bytes, n_header: int) -> int:
    """The offset in ``data`` right after its ``n_header`` header lines."""
    brk = next(itertools.islice(_LINE_BREAK.finditer(data), n_header - 1, None), None)
    return len(data) if brk is None else brk.end()


def _file_blocks(fh):
    """Binary stream ``fh`` from where it stands, about ``_PLAIN_BLOCK`` bytes
    at a time, each block cut right after a b"\n" or at the end."""
    return iter(lambda: fh.read(_PLAIN_BLOCK) + fh.readline(), b"")


def _grown(a: np.ndarray, used: int, need: int) -> np.ndarray:
    """A copy of ``a[:used]`` with room for at least ``need`` entries, and for
    twice ``a``'s: the stored records are kept in a few large arrays, not in
    one array a block, whose scattered holes the heap would keep once freed."""
    out = np.empty(max(need, 2 * a.size), a.dtype)
    out[:used] = a[:used]
    return out


def _plain_entries(blocks, norb: int):
    """What ``_line_entries`` returns, by whole-array operations, if the body
    is plain (see ``_records``) and no record fails a check; else None.

    ``blocks`` are the body's bytes, maybe none, each ending at a line end,
    so that no line spans two.  Masks classify a block's records, and only
    what the checks need is kept: the ``_store_key`` and value of each
    stored record, the core values and the number of orbital-energy records.
    Then a stable sort on the keys of all blocks, unless they are in order
    already, groups duplicates in file order, and the keys come out
    ascending."""
    key, stored_value, size = np.empty(0, np.int64), np.empty(0), 0
    cores, orbitals = [np.empty(0)], 0
    for block in blocks:
        block = block.translate(_NORMALIZE_BODY)
        records = _records(block)
        if records is None:
            return None
        value, index = records["value"], records["index"]
        if index.min(initial=0) < 0 or index.max(initial=0) > norb:
            return None
        i, j, k, l = index.T
        core = (i == 0) & (j == 0) & (k == 0) & (l == 0)
        pair_only = (i != 0) & (k == 0) & (l == 0)
        orbital = pair_only & (j == 0)
        one = pair_only & (j != 0)
        two = (i != 0) & (j != 0) & (k != 0) & (l != 0)
        if not (core | orbital | one | two).all():
            return None
        orbitals += int(orbital.sum())
        cores.append(value[core])
        stored = one | two
        end = size + int(np.count_nonzero(stored))
        if end > key.size:  # one array at a time, so one old array is freed before the next
            key = _grown(key, size, end)
            stored_value = _grown(stored_value, size, end)
        np.compress(stored, _store_key(i, j, k, l, norb), out=key[size:end])
        np.compress(stored, value, out=stored_value[size:end])
        size = end
        del block, records, value, index, i, j, k, l  # freed before the next block is read
    core_value = np.concatenate(cores)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, and nan never conflicts
        if (np.abs(core_value[:-1] - core_value[1:]) > DUPLICATE_TOLERANCE).any():
            return None
    # In place, giving back the room past the last record; nothing else
    # refers to either array.
    key.resize(size, refcheck=False)
    stored_value.resize(size, refcheck=False)
    # A stable sort groups each key's records in file order: "last wins" is
    # the last of each group, and each repeat is checked against the record
    # before it, which is the value a line-by-line reading would hold.  Keys
    # already in order (the usual file) are not sorted.
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        key = key[order]  # one gather at a time, so one old array is freed before the next
        stored_value = stored_value[order]
        del order
    repeat = key[1:] == key[:-1]
    repeats = int(np.count_nonzero(repeat))
    if repeats:
        at = np.flatnonzero(repeat)
        with np.errstate(invalid="ignore"):
            if (np.abs(stored_value[at] - stored_value[at + 1]) > DUPLICATE_TOLERANCE).any():
                return None
        last = np.append(~repeat, True)
        key, stored_value = key[last], stored_value[last]
    core_energy = float(core_value[-1]) if core_value.size else 0.0
    return core_energy, key, stored_value, repeats, orbitals


def _line_entries(data: bytes, n_header: int, norb: int):
    """The core energy, the distinct ``_store_key`` keys of the one- and
    two-body records, ascending, with the last value of each, the number of
    repeated records and the number of orbital-energy records, reading the
    body one line at a time.  Raises FcidumpError at the first line that fails a
    check."""
    n_pairs = norb * (norb + 1) // 2
    core = None
    store: dict[int, float] = {}
    repeats = orbitals = 0
    for lineno, raw in enumerate(itertools.islice(_lines(data), n_header, None), n_header + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise FcidumpError(f"expected 'value i j k l', got {raw.strip()!r}", line=lineno)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise FcidumpError(f"non-numeric value field {tokens[0]!r}", line=lineno) from None
        try:
            i, j, k, l = map(int, tokens[1:])
        except ValueError:
            raise FcidumpError(f"non-integer index in {raw.strip()!r}", line=lineno) from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FcidumpError(f"index {idx} out of range [0, {norb}]", line=lineno)

        if i == j == k == l == 0:
            if core is not None and abs(core - value) > DUPLICATE_TOLERANCE:
                raise FcidumpError(f"conflicting core energy: {core!r} vs {value!r}",
                                   line=lineno)
            core = value
            continue
        a, b = (i, j) if i >= j else (j, i)
        if k == l == 0 and i != 0:
            if j == 0:
                orbitals += 1
                continue
            key = n_pairs * n_pairs + (a - 1) * norb + b - 1
        elif 0 in (i, j, k, l):
            raise FcidumpError(
                f"malformed index pattern ({i} {j} {k} {l}): zeros are only "
                "allowed as trailing k=l=0 or the all-zero core record",
                line=lineno,
            )
        else:
            c, d = (k, l) if k >= l else (l, k)
            ab, cd = a * (a - 1) // 2 + b - 1, c * (c - 1) // 2 + d - 1
            key = ab * n_pairs + cd if ab >= cd else cd * n_pairs + ab
        if key in store:
            if abs(store[key] - value) > DUPLICATE_TOLERANCE:
                orbit = ((a - 1, b - 1) if k == 0
                         else canonical_orbit(i - 1, j - 1, k - 1, l - 1))
                raise FcidumpError(f"duplicate entry for {orbit} conflicts: "
                                   f"{store[key]!r} vs {value!r}", line=lineno)
            repeats += 1
        store[key] = value
    key = np.fromiter(store, dtype=np.int64, count=len(store))
    value = np.fromiter(store.values(), dtype=float, count=len(store))
    order = np.argsort(key)
    return 0.0 if core is None else core, key[order], value[order], repeats, orbitals


def _fill(norb: int, key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_ij and W from the stored values at their distinct ``_store_key``
    keys, ascending, whose flat indices in W and, less P^2, in h_ij name the
    entry; each value goes to that entry and its mirror.  The one-body keys
    are turned into their flat indices in place, so ``key`` is spent."""
    n_pairs = norb * (norb + 1) // 2
    h1 = np.zeros((norb, norb))
    pair_matrix = np.zeros((n_pairs, n_pairs))
    split = int(np.searchsorted(key, n_pairs * n_pairs))
    flat = key[:split]
    pair_matrix.flat[flat] = pair_matrix.T.flat[flat] = value[:split]
    flat = key[split:]
    flat -= n_pairs * n_pairs
    h1.flat[flat] = h1.T.flat[flat] = value[split:]
    return h1, pair_matrix


def parse_fcidump(text) -> MolecularIntegrals:
    """Parse FCIDUMP content into :class:`MolecularIntegrals`.

    Parameters
    ----------
    text : str, bytes or file-like
        FCIDUMP content, ASCII.  The body holds ``value i j k l`` records
        with 1-based indices: ``0 0 0 0`` marks the core energy, ``i j 0 0``
        a one-body entry, ``i 0 0 0`` an orbital energy (ignored, and
        counted in one warning), and four nonzero indices a two-body entry
        (chemist convention).  Each stored two-body value populates the
        entry of its orbit in W and that entry's mirror.

    The ASCII content is read as an in-memory stream by ``load_fcidump``'s
    driver (``_read``), and the body on one of two paths, chosen by the
    input.  A plainly spelled body without errors is read with whole-array
    operations (``_plain_entries``): values in decimal or E/D exponent form,
    indices of digits with an optional sign that int64 holds.  It reads about
    1 MiB of the body at a time with one ``np.loadtxt``, and keeps 16
    bytes a record (key and value), so the parse's memory grows with the
    records and W, not with a copy of the text.  Any other body, whether
    it holds an error or a valid but unusual spelling (inf or nan,
    underscores, indices past int64), is read one line at a time
    (``_line_entries``), and that reader alone raises record errors: each
    names the first offending line.  Both paths give the same entries and
    counts, and neither warns: once the body is read, this gives one
    warning for each kind of ignored or overwritten record.

    Raises
    ------
    FcidumpError
        Non-ASCII content, missing or invalid NORB/NELEC, a NORB too large
        for W to fit in memory, out-of-range indices,
        non-numeric values, or duplicate entries that conflict by more than
        ``DUPLICATE_TOLERANCE``.
    """
    if hasattr(text, "read"):
        text = text.read()
    fh = io.BytesIO(_ascii_bytes(text))
    del text  # the stream holds the bytes, and frees them once read
    return _read(fh)


def load_fcidump(path) -> MolecularIntegrals:
    """Parse an FCIDUMP file from disk, as ``parse_fcidump`` parses its bytes:
    a block at a time, so that only a declined block has the whole text read.
    A file that cannot seek (a pipe) is read whole by ``parse_fcidump``."""
    with open(path, "rb") as fh:
        return _read(fh) if fh.seekable() else parse_fcidump(fh)


def _read(fh) -> MolecularIntegrals:
    """The integrals of the FCIDUMP in seekable binary stream ``fh``, closed
    once read, so that an in-memory text is freed before W is filled.  The
    header is parsed from the first block, or, failing there, from the whole
    stream, so that an error names its line in the whole bytes.  The body is
    read a block at a time from the header's end; a block the whole-array
    reader declines has the whole stream read again for the line reader."""
    with fh:
        head = fh.read(_PLAIN_BLOCK) + fh.readline()
        try:
            header = _parse_header(_lines(head))
        except (FcidumpError, UnicodeDecodeError):
            header = None
        if header is None:
            fh.seek(0)
            head = _ascii_bytes(fh.read())
            if not head:
                raise FcidumpError("empty input")
            header = _parse_header(_lines(head))
        norb, nelec, n_header = header
        fh.seek(_header_end(head, n_header))
        del head
        entries = _plain_entries(_file_blocks(fh), norb)
        if entries is None:
            fh.seek(0)
            entries = _line_entries(_ascii_bytes(fh.read()), n_header, norb)
    return _integrals(norb, nelec, entries)


def _integrals(norb: int, nelec: int, entries) -> MolecularIntegrals:
    """The integrals of a read body's entries, after one warning for each kind
    of ignored or overwritten record."""
    core_energy, key, value, duplicates, orbitals = entries
    if orbitals:
        warnings.warn(f"fcidump: {orbitals} orbital-energy record(s) ignored")
    if duplicates:
        warnings.warn(f"fcidump: {duplicates} duplicate entr(y/ies) overwritten (last wins)")
    try:
        h1, w = _fill(norb, key, value)
    except (MemoryError, ValueError):  # ValueError: larger than numpy can index
        raise _too_large(norb) from None

    # h1 and W hold exactly the stored values, and zeros.
    if not (np.isfinite(core_energy) and np.isfinite(value).all()):
        raise FcidumpError("non-finite integral value")
    return MolecularIntegrals(norb, nelec, core_energy, h1, w)


def write_fcidump(m: MolecularIntegrals) -> str:
    """Serialize to FCIDUMP text.

    Values are written with 17 significant digits so that
    ``parse_fcidump(write_fcidump(m)) == m`` exactly.  One representative per
    8-fold orbit is emitted, the canonical (ij|kl) with i >= j, k >= l and
    (i, j) >= (k, l), in lexicographic (i, j, k, l) order; zeros are skipped.
    """
    n = m.n_orbitals
    header = f"&FCI NORB={n},NELEC={m.n_electrons},MS2=0,\n ORBSYM={'1,' * n}\n ISYM=1,\n&END\n"
    # W's nonzero entries with kl <= ij, row by row, are the canonical orbits in lexicographic
    # order.  Each record's fields go into one flat list, formatted by one "%" of the templates.
    pairs = np.array([f"{a} {b}" for a in range(1, n + 1) for b in range(1, a + 1)], dtype=object)
    w = m.pair_matrix
    ij, kl = np.nonzero(np.tri(pairs.size, dtype=bool) & (w != 0))
    n_two = ij.size
    one = m.one_body[np.tri(n, dtype=bool)]
    kept = np.flatnonzero(one)
    fields = [None] * (3 * n_two + 2 * kept.size + 1)
    fields[0:3 * n_two:3] = w[ij, kl].tolist()
    fields[1:3 * n_two:3] = pairs[ij].tolist()
    fields[2:3 * n_two:3] = pairs[kl].tolist()
    fields[3 * n_two:-1:2] = one[kept].tolist()
    fields[3 * n_two + 1:-1:2] = pairs[kept].tolist()
    fields[-1] = float(m.core_energy)
    body = "%.17g %s %s\n" * n_two + "%.17g %s 0 0\n" * kept.size + "%.17g 0 0 0 0\n"
    return header + body % tuple(fields)


def validate_symmetry(m: MolecularIntegrals) -> list[SymmetryViolation]:
    """Check that h1 and W are finite, that h_ij = h_ji and that W = W^T, the
    8-fold symmetry left once the pair swaps hold by construction (a W built
    in Python can break it).  Returns an empty list iff every symmetry holds
    within SYMMETRY_TOLERANCE (absolute) and all entries are finite.
    Report-only: never raises.
    """
    h1, w, n = m.one_body, m.pair_matrix, m.n_orbitals
    cap, tol = MAX_SYMMETRY_REPORT, SYMMETRY_TOLERANCE

    def orbit(ij, kl) -> tuple[int, int, int, int]:  # W's entry as (i, j, k, l)
        rows, cols = np.tril_indices(n)
        return int(rows[ij]), int(cols[ij]), int(rows[kl]), int(cols[kl])

    violations = [SymmetryViolation("one_body finite", (int(i), int(j)), np.inf)
                  for i, j in np.argwhere(~np.isfinite(h1))[:cap]]
    violations += [SymmetryViolation("two_body finite", orbit(ij, kl), np.inf)
                   for ij, kl in np.argwhere(~np.isfinite(w))[:cap]]
    if violations:
        return violations
    # Each broken mirror pair is reported once: h at i < j, W at the canonical (i, j, k, l).
    delta1, delta = np.abs(h1 - h1.T), np.abs(w - w.T)
    violations = [SymmetryViolation("h_ij = h_ji", (int(i), int(j)), float(delta1[i, j]))
                  for i, j in np.argwhere(np.triu(delta1 > tol, 1))[:cap]]
    return violations + [SymmetryViolation("(ij|kl) = (kl|ij)", orbit(ij, kl), float(delta[ij, kl]))
                         for ij, kl in np.argwhere(np.tril(delta > tol))[:cap]]


def adjusted_one_body(m: MolecularIntegrals) -> AdjustedOneBody:
    """Exchange- and Coulomb-contracted one-body matrices and the scalar shift.

    h_tilde_ij  = h_ij - 1/2 sum_l (il|lj)
    l_minus1_ij = h_tilde_ij + sum_l (ll|ij)
    scalar      = sum_i h_ii - 1/2 sum_il (il|li) + 1/2 sum_il (ll|ii)

    The sums, read from W, add in the order of einsums over the tensor
    (``tests/reference.py``), bit for bit; so does the trace of each sum.
    """
    h, w = m.one_body, m.pair_matrix
    pair_of = pair_index(m.n_orbitals)
    exchange = np.einsum("ilj->ij", w[pair_of[:, :, None], pair_of[None]])
    coulomb = np.einsum("lp->p", w[np.diagonal(pair_of)])[pair_of]
    h_tilde = h - 0.5 * exchange
    l_minus1 = h_tilde + coulomb
    scalar = float(np.trace(h) - 0.5 * np.trace(exchange) + 0.5 * np.trace(coulomb))
    return AdjustedOneBody(
        h_tilde=h_tilde, l_minus1=l_minus1, scalar_shift=scalar, core_energy=m.core_energy
    )
