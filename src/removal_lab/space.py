"""Dense point spaces F_p^n, colorings, and real-valued tables on them.

Points are integers in [0, p^n): the point with coordinates (x_0, ..., x_{n-1})
has index sum(x_i * p^i), i.e. coordinate 0 is the least significant digit.
Everything downstream (transforms, file formats, witnesses) uses this one
indexing convention.

Coset points, coset ids and solution enumerations are all listed by
Space.image_points, in t-order.  At p = 2 adding points is XOR on their
indices, so it lists them by one XOR pass per basis row instead of the
per-coordinate grid sum that odd p runs; both give the same t-order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceCapError
from .fields import Subspace, check_prime

CAP_ENV_VAR = "REMOVAL_LAB_CAP"
DEFAULT_POINT_CAP = 2**20


def point_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_POINT_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive")
    return cap


def capped_power(base: int, exp: int, factor: int = 1) -> int | str:
    """base**exp * factor, or "base^exp * factor" once exp * bits(base) > 4096: a report cannot
    print over 4300 digits, and base**exp > 2^2048 is past every cap, so a string is refused."""
    if base < 2 or exp * int(base).bit_length() <= 4096:
        return base**exp * factor
    return f"{base}^{exp}" if factor == 1 else f"{base}^{exp} * {factor}"


def check_cap(amount: int | str, cap: int, message: str, requested: int | str | None = None) -> None:
    """The one cap rule: raise ResourceCapError with message when amount exceeds cap or is capped_power's string.

    The error reports requested, or amount when requested is None: the chi walk compares the
    work spent so far but reports the bound on the whole walk."""
    if isinstance(amount, str) or amount > cap:
        raise ResourceCapError(message, requested=amount if requested is None else requested, cap=cap)


def check_capped_prime(p: int) -> int:
    """check_prime, after refusing a p above the point cap: trial division grows with p."""
    cap = point_cap()
    check_cap(p, cap, f"prime p = {p} exceeds the point cap {cap} (override with {CAP_ENV_VAR})")
    return check_prime(p)


def json_int(value, what: str) -> int:
    """An integer field of a JSON input file; ValueError for a boolean, fraction, string, list, object or null.

    A string is refused, not parsed: int() would read " 1_0 " as 10 and an Arabic-Indic digit as its value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    try:
        number = int(value)
    except OverflowError:
        raise ValueError(f"{what} must be a finite integer") from None
    if isinstance(value, float) and number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


def _json_header(fh, keys: tuple[str, ...], what: str) -> dict[str, int]:
    header = json.loads(fh.readline())
    if not isinstance(header, dict):
        raise ValueError(f"{what} header must be a JSON object")
    for key in keys:
        if key not in header:
            raise ValueError(f"{what} header missing {key!r}")
    return {key: json_int(header[key], f"{what} header {key!r}") for key in keys}


class Space:
    """The ambient space F_p^n; a point's coordinates are its base-p digits, computed on demand."""

    def __init__(self, p: int, n: int):
        check_capped_prime(p)
        if n < 0:
            raise ValueError("dimension must be >= 0")
        cap = point_cap()
        size = capped_power(p, n)
        check_cap(size, cap, f"|F_{p}^{n}| = {size} exceeds the point cap {cap} (override with {CAP_ENV_VAR})")
        self.p = p
        self.n = n
        self.size = size

    def __repr__(self):
        return f"Space(p={self.p}, n={self.n})"

    def __eq__(self, other):
        return isinstance(other, Space) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    @property
    def digits(self) -> np.ndarray:
        """(size, n) table: row i holds the coordinates of point i; built on each read."""
        return self.decode(np.arange(self.size, dtype=np.int64))

    @cached_property
    def powers(self) -> np.ndarray:
        return self.p ** np.arange(self.n, dtype=np.int64)

    def encode(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.int64) % self.p
        return c @ self.powers

    def decode(self, idx) -> np.ndarray:
        """Coordinates of the points idx, on a new last axis of length n."""
        return np.asarray(idx, dtype=np.int64)[..., None] // self.powers % self.p

    def add_points(self, a, b) -> np.ndarray:
        return self.encode(self.decode(a) + self.decode(b))

    def scale_points(self, c: int, a) -> np.ndarray:
        return self.encode(c * self.decode(a))

    # --- subspaces and cosets ------------------------------------------

    def subspace_points(self, sub: Subspace) -> np.ndarray:
        """Indices of the points of sub, in t-order (see coset_points)."""
        return self.coset_points(0, sub)

    def coset_points(self, rep, sub: Subspace) -> np.ndarray:
        """Points of rep + sub, one row per rep for an array of reps.

        The order is t-order: the little-endian enumeration of coefficient
        tuples t against the canonical basis, the order coset restrictions use.
        """
        self._check_sub(sub)
        return self.image_points(rep, sub.basis)

    def image_points(self, rep, rows: np.ndarray) -> np.ndarray:
        """rep + sum_d t_d rows[d] over t in F_p^d in t-order, for (d, n) rows; one row per rep.

        At p = 2 a point plus a row is the point index XOR the row's code.  The first rep's
        points are filled by one XOR pass per row, row d writing entries [2^d, 2^(d+1)) from
        entries [0, 2^d), so t_d is bit d of the position: the t-order of the grid sum that odd
        p runs.  Every other rep's points are those XOR (rep ^ first rep), written into the same
        buffer.  Rows are reduced mod 2 first, so any integer entries work.
        """
        reps = np.asarray(rep, dtype=np.int64)
        if self.p == 2:
            flat = reps.reshape(-1)
            pts = np.empty((flat.size, 1 << len(rows)), dtype=np.int64)
            first = pts[:1]
            first[:, 0] = flat[:1]
            for d, code in enumerate(((rows % 2) @ self.powers).tolist()):
                np.bitwise_xor(first[:, : 1 << d], code, out=first[:, 1 << d : 2 << d])
            # pts[:1] and pts[1:] are disjoint; doubling pts[:, :h] into pts[:, h:2h] for all reps at
            # once reads and writes interleaved ranges, which numpy copies first
            np.bitwise_xor(first, (flat[1:] ^ flat[:1])[:, None], out=pts[1:])
            return pts.reshape(*reps.shape, 1 << len(rows))
        # rep // p^c is rep's coordinate c mod p, so one mod per coordinate suffices
        shifts = reps.reshape(-1, *(1,) * len(rows), 1) // self.powers
        pts = np.zeros((reps.size,) + (self.p,) * len(rows), dtype=np.int64)
        for c, column in enumerate(rows.T):
            pts += _linear_form(self.p, column, shifts[..., c]) * self.p**c
        return pts.reshape(*reps.shape, self.p ** len(rows))

    def transversal(self, sub: Subspace) -> np.ndarray:
        """The points zero at every pivot of sub, ascending; entry i is the point of coset id i."""
        self._check_sub(sub)
        # at odd p 2.6x-3.1x faster than image_points(0, eye(n)[free]) on F_3^9 and F_5^6: no mod, no
        # full-size temporary; at p = 2 image_points' XOR path is 1.2x-2.9x faster on F_2^12..20, by 0.01-0.05 ms
        reps = np.zeros(1, dtype=np.int64)
        for w in self.powers[sub.free_columns()]:
            reps = (np.arange(self.p, dtype=np.int64)[:, None] * w + reps).reshape(-1)
        return reps

    def coset_ids(self, sub: Subspace) -> np.ndarray:
        """ids[x] identifies the coset x + sub, for every point x.

        With P the pivot and F the free columns of the RREF basis B, the point
        of x + sub that is zero at every pivot has free coordinates
        (x[F] - x[P] B[:, F]) mod p; ids[x] is their little-endian code, so ids
        range over [0, p^codim), are stable across calls, and
        ids[transversal(sub)[i]] = i.  Points are in t-order over F_p^n, so ids
        are the image_points in F_p^codim of the (n, codim) matrix of the forms.
        """
        self._check_sub(sub)
        free = sub.free_columns()
        # column j is the form x -> x[F_j] - x[P] B[:, F_j]
        forms = np.eye(self.n, dtype=np.int64)[:, free]
        forms[sub.pivots()] -= sub.basis[:, free]
        return Space(self.p, sub.codim).image_points(0, forms)

    def _check_sub(self, sub: Subspace):
        if (sub.p, sub.n) != (self.p, self.n):
            raise ValueError(f"subspace of F_{sub.p}^{sub.n} used in {self!r}")


def _linear_form(p: int, coeffs, shift):
    """(shift + sum_k coeffs[k] t_k) mod p over t in F_p^K, little-endian: t_0 on the last axis."""
    steps = np.arange(p, dtype=np.int64)
    return sum(((steps * int(a)).reshape(-1, *(1,) * k) for k, a in enumerate(coeffs) if a), shift) % p


def coset_restrict(values: np.ndarray, space: Space, rep: int, sub: Subspace) -> tuple[np.ndarray, Space]:
    """Restrict a table on V to the coset rep + sub, as a table on F_p^dim(sub).

    Entry t of the result is the value at rep + sum_j t_j b_j where b_j are the
    canonical basis rows of sub; this fixes the indexing of restrictions once
    and for all.
    """
    pts = space.coset_points(rep, sub)
    return np.asarray(values)[pts], Space(space.p, sub.dim)


@dataclass(frozen=True)
class Coloring:
    """An r-coloring of F_p^n, stored densely (a color is kept at 0 too)."""

    space: Space
    r: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (self.space.size,):
            raise ValueError("color table has wrong length")
        if v.size and (v.min() < 1 or v.max() > self.r):
            raise ValueError("colors must lie in 1..r")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def indicator(self, color: int) -> np.ndarray:
        return (self.values == color).astype(np.float64)

    def indicators(self) -> list[np.ndarray]:
        return [self.indicator(c) for c in range(1, self.r + 1)]

    def with_values(self, values) -> "Coloring":
        return Coloring(self.space, self.r, values)

    def restrict(self, rep: int, sub: Subspace) -> "Coloring":
        vals, sp = coset_restrict(self.values, self.space, rep, sub)
        return Coloring(sp, self.r, vals)

    def changed_from(self, other: "Coloring") -> int:
        return int(np.count_nonzero(self.values != other.values))


# --- file formats ------------------------------------------------------
#
# Colorings: a one-line JSON header {"p":..,"n":..,"r":..} followed by p^n
# lines of integers, point order.  Real tables: header {"p":..,"n":..} and
# decimal values.  Writers are exact mirrors of readers.  With r <= 9 a
# coloring body is one ASCII digit and a newline per point, 2 p^n bytes;
# _write_digit_lines and _read_digit_lines build and read that body with bytes
# methods instead of a string per point, and read_coloring hands any other
# body, as the text it has already read, to the line parser _read_values.


def _write_lines(fh, values: np.ndarray, line: str):
    # one join per 2^12 values: a single join's speed without a string per point alive at once
    for start in range(0, values.size, 1 << 12):
        fh.write("".join(map(line.format, values[start : start + (1 << 12)].tolist())))


def _write_digit_lines(fh, values: np.ndarray):
    """What _write_lines(fh, values, "{}\\n") writes, for values in 0..9, built as bytes per 2^12 values."""
    to_ascii = bytes.maketrans(bytes(range(10)), b"0123456789")
    for start in range(0, values.size, 1 << 12):
        digits = bytes(values[start : start + (1 << 12)].tolist()).translate(to_ascii)
        chars = bytearray(2 * len(digits))
        chars[0::2] = digits
        chars[1::2] = b"\n" * len(digits)
        fh.write(chars.decode("ascii"))


def _read_digit_lines(text: str, size: int) -> np.ndarray | None:
    """The values of a body of exactly size lines of one ASCII digit each, or None for any other body.

    The line parser reads such a body to the same values.  It is decoded with bytes methods
    because numpy's uint8 loops, paged in for this alone, would add about 0.2 MB to the peak
    RSS of a run that reads only small colorings.
    """
    if len(text) != 2 * size or not text.isascii():
        return None
    digits = text[0::2].encode("ascii")
    if text[1::2] != "\n" * size or digits.translate(None, b"0123456789"):
        return None
    values = bytearray(8 * size)  # little-endian int64s, one digit value in each low byte
    values[0::8] = digits.translate(bytes.maketrans(b"0123456789", bytes(range(10))))
    return np.frombuffer(values, dtype="<i8")


def write_coloring(path, coloring: Coloring):
    with open(path, "w") as fh:
        fh.write(json.dumps({"p": coloring.space.p, "n": coloring.space.n, "r": coloring.r}, sort_keys=True) + "\n")
        if coloring.r <= 9:
            _write_digit_lines(fh, coloring.values)
        else:
            _write_lines(fh, coloring.values, "{}\n")


def _read_values(text: str, size: int, dtype, what: str) -> np.ndarray:
    """text as size values, one per non-blank line; numpy parses each like int() or float()."""
    lines = [line for line in text.split("\n") if line.strip()]
    if len(lines) != size:
        raise ValueError(f"expected {size} {what}, found {len(lines)}")
    return np.array(lines, dtype=dtype)


def read_coloring(path) -> Coloring:
    with open(path) as fh:
        header = _json_header(fh, ("p", "n", "r"), "coloring")
        space = Space(header["p"], header["n"])
        r, cap = header["r"], point_cap()
        # every consumer builds one table per color, so r is bounded like |V|
        if r > cap:
            raise ValueError(f"coloring header r = {r} exceeds the point cap {cap} (override with {CAP_ENV_VAR})")
        body = fh.read()
        values = _read_digit_lines(body, space.size)
        if values is None:
            try:
                values = _read_values(body, space.size, np.int64, "colors")
            except OverflowError:
                # past int64 is past the capped r too
                raise ValueError("colors must lie in 1..r") from None
    return Coloring(space, r, values)


def write_table(path, space: Space, values: np.ndarray):
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (space.size,):
        raise ValueError("table has wrong length")
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": space.n, "p": space.p}, sort_keys=True) + "\n")
        _write_lines(fh, vals, "{!r}\n")


def read_table(path) -> tuple[np.ndarray, Space]:
    with open(path) as fh:
        header = _json_header(fh, ("p", "n"), "table")
        space = Space(header["p"], header["n"])
        vals = _read_values(fh.read(), space.size, np.float64, "values")
    if not np.isfinite(vals).all():
        raise ValueError("table values must be finite")
    return vals, space
