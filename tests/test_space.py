import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from removal_lab.errors import ResourceCapError
from removal_lab.fields import Subspace
from removal_lab.space import (
    CAP_ENV_VAR,
    Coloring,
    Space,
    coset_restrict,
    read_coloring,
    read_table,
    write_coloring,
    write_table,
)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_encode_decode_roundtrip(p, n):
    sp = Space(p, n)
    codes = np.arange(sp.size)
    assert np.array_equal(sp.encode(sp.decode(codes)), codes)


def test_digits_little_endian():
    sp = Space(3, 3)
    assert sp.decode(np.array([5])).tolist() == [[2, 1, 0]]  # 5 = 2 + 1*3
    assert int(sp.encode(np.array([[0, 0, 1]]))[0]) == 9


def test_decode_allocates_for_the_points_only():
    # a (|V|, n) digit table of F_2^18 would be 38 MB
    sp = Space(2, 18)
    tracemalloc.start()
    try:
        coords = sp.decode(np.array([0, 5, sp.size - 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert coords.tolist() == [[0] * 18, [1, 0, 1] + [0] * 15, [1] * 18]


def test_point_cap_guard(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "100")
    with pytest.raises(ResourceCapError) as e:
        Space(5, 3)
    assert e.value.requested == 125 and e.value.cap == 100
    Space(5, 2)  # under the cap is fine


def test_group_ops_match_coordinates():
    sp = Space(5, 3)
    rng = np.random.default_rng(0)
    a = rng.integers(0, sp.size, 20)
    b = int(rng.integers(0, sp.size))
    assert np.array_equal(
        sp.decode(sp.add_points(a, b)), (sp.decode(a) + sp.decode(np.array([b]))) % 5
    )
    assert np.array_equal(sp.decode(sp.scale_points(3, a)), (3 * sp.decode(a)) % 5)


class TestSubspacePoints:
    def test_counts_and_membership(self):
        sp = Space(3, 4)
        sub = Subspace.from_rows(3, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
        pts = sp.subspace_points(sub)
        assert pts.size == 9
        assert np.unique(pts).size == 9
        coords = sp.decode(pts)
        y = sub.annihilator_matrix()
        assert not np.any(coords @ y.T % 3)

    def test_t_order_matches_restriction_indexing(self):
        sp = Space(5, 3)
        sub = Subspace.from_rows(5, 3, [[1, 2, 0], [0, 0, 1]])
        pts = sp.subspace_points(sub)
        tsp = Space(5, 2)
        expect = sp.encode(tsp.digits @ sub.basis % 5)
        assert np.array_equal(pts, expect)

    def test_coset_points_shift(self):
        sp = Space(2, 5)
        sub = Subspace.from_rows(2, 5, [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1]])
        rep = 7
        pts = sp.coset_points(rep, sub)
        base = sp.subspace_points(sub)
        assert np.array_equal(pts, sp.add_points(base, rep))

    def test_coset_ids_partition(self):
        sp = Space(3, 4)
        sub = Subspace.from_rows(3, 4, [[1, 0, 0, 1]])
        ids, reps = sp.coset_ids(sub), sp.transversal(sub)
        assert ids.shape == (sp.size,)
        assert reps.size == 27
        counts = np.bincount(ids)
        assert (counts == 3).all()
        # every rep belongs to its own class
        assert np.array_equal(ids[reps], np.arange(reps.size))
        # the reps are the points of the deterministic complement, one per class
        rng = np.random.default_rng(5)
        subs = [sub, Subspace.zero(3, 4), Subspace.full(3, 4)]
        subs += [Subspace.from_rows(3, 4, rng.integers(0, 3, (k, 4))) for k in (1, 2, 2, 3)]
        for s in subs:
            ids, reps = sp.coset_ids(s), sp.transversal(s)
            assert np.array_equal(ids[reps], np.arange(reps.size))
            assert np.array_equal(np.sort(reps), np.sort(sp.subspace_points(s.complement())))


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3)])
def test_coset_ids_match_the_membership_oracle(p, n):
    sp = Space(p, n)
    rng = np.random.default_rng(p * 10 + n)
    subs = [Subspace.zero(p, n), Subspace.full(p, n)]
    subs += [Subspace.from_rows(p, n, rng.integers(0, p, (k, n))) for k in range(1, n) for _ in range(3)]
    coords = sp.digits
    for sub in subs:
        ids, reps = sp.coset_ids(sub), sp.transversal(sub)
        # x and y share a coset exactly when x - y lies in sub
        member = np.array([sub.contains(d) for d in coords])
        diff = sp.encode(coords[:, None, :] - coords[None, :, :])
        assert np.array_equal(ids[:, None] == ids[None, :], member[diff])
        assert np.array_equal(np.unique(ids), np.arange(p**sub.codim))
        assert (np.diff(reps) > 0).all()
        assert not coords[reps][:, sub.pivots()].any()
        assert np.array_equal(ids[reps], np.arange(reps.size))
        rows = sp.coset_points(reps, sub)
        assert np.array_equal(rows, np.stack([sp.coset_points(int(x), sub) for x in reps]))


def test_coset_restrict_values():
    sp = Space(3, 3)
    sub = Subspace.from_rows(3, 3, [[0, 1, 0]])
    f = np.arange(sp.size, dtype=float)
    vals, small = coset_restrict(f, sp, 2, sub)
    assert small.size == 3
    # t runs over multiples of e_1: points 2, 2+3, 2+6
    assert vals.tolist() == [2.0, 5.0, 8.0]


class TestColoring:
    def test_validation(self):
        sp = Space(2, 3)
        with pytest.raises(ValueError):
            Coloring(sp, 2, np.zeros(sp.size, dtype=np.int64))  # colors are 1-based
        with pytest.raises(ValueError):
            Coloring(sp, 2, np.full(sp.size, 3, dtype=np.int64))

    def test_indicator_and_changed(self):
        sp = Space(2, 3)
        vals = np.array([1, 2, 1, 2, 1, 2, 1, 2], dtype=np.int64)
        col = Coloring(sp, 2, vals)
        ind = col.indicator(2)
        assert ind.sum() == 4
        other = col.with_values(np.roll(vals, 1))
        assert col.changed_from(other) == 8

    def test_file_roundtrip(self, tmp_path):
        sp = Space(3, 3)
        rng = np.random.default_rng(4)
        col = Coloring(sp, 3, rng.integers(1, 4, sp.size).astype(np.int64))
        path = tmp_path / "c.col"
        write_coloring(path, col)
        back = read_coloring(path)
        assert back.space.p == 3 and back.space.n == 3 and back.r == 3
        assert np.array_equal(back.values, col.values)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"p": 3, "n": 3, "r": 3}


def test_table_roundtrip_exact(tmp_path):
    sp = Space(2, 4)
    rng = np.random.default_rng(9)
    table = rng.standard_normal(sp.size)
    path = tmp_path / "t.tab"
    write_table(path, sp, table)
    vals, sp2 = read_table(path)
    assert sp2.p == 2 and sp2.n == 4
    assert np.array_equal(vals, table)  # repr round-trip is exact for float64


# F_2^13 and F_3^8 take more than one 2^12-value block of the writer; r runs past one digit
@given(st.sampled_from([(2, 0), (2, 3), (2, 13), (3, 2), (3, 8), (5, 1), (5, 4)]), st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_coloring_file_round_trip_is_one_line_per_point(tmp_path_factory, pn, r, seed):
    sp = Space(*pn)
    p, n = pn
    values = np.random.default_rng(seed).integers(1, r + 1, sp.size).tolist()
    path = tmp_path_factory.mktemp("coloring") / "c.json"
    write_coloring(path, Coloring(sp, r, np.array(values, dtype=np.int64)))
    header = json.dumps({"p": p, "n": n, "r": r}, sort_keys=True) + "\n"
    assert path.read_bytes() == (header + "".join(f"{v}\n" for v in values)).encode()
    back = read_coloring(path)
    assert back.space == sp and back.r == r
    assert back.values.tolist() == values


def _line_parsed_coloring(path) -> Coloring:
    """read_coloring with the line parser on every body: one string per non-blank line."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        space = Space(header["p"], header["n"])
        lines = [line for line in fh.read().split("\n") if line.strip()]
        if len(lines) != space.size:
            raise ValueError(f"expected {space.size} colors, found {len(lines)}")
        return Coloring(space, header["r"], np.array(lines, dtype=np.int64))


def _outcome(read, path):
    try:
        col = read(path)
    except Exception as exc:  # the oracle's failure is the expected value
        return type(exc), str(exc)
    return col.r, col.values.tolist()


@pytest.mark.parametrize(
    "body",
    [
        b"1\n2\n1\n1\n",
        b"1\n\n2\n1\n1\n",
        b"\n1\n2\n1\n1\n",
        b" 1\n2\n1\n1\n",
        b"+1\n2\n1\n1\n",
        b"01\n2\n1\n1\n",
        b"1\r\n2\r\n1\r\n1\r\n",
        b"1\n2\n1\n1",
        b"1\n2\n1\n1\n2\n",
        b"1\n2\n1\n",
        b"0\n2\n1\n1\n",
        b"3\n2\n1\n1\n",
        b"a\n2\n1\n1\n",
        b"1\n2\n1 1\n\n",
        b"1\n2\n1\n1 ",
        b"1\n2\n1x1\n",
        b"1\n2\n\xd9\xa3\n1\n",
    ],
    ids=[
        "canonical", "blank-line", "leading-blank-line", "leading-space", "plus-sign", "leading-zero", "crlf",
        "no-final-newline", "extra-line", "missing-line", "color-zero", "color-above-r", "letter",
        "two-colors-on-a-line", "trailing-space-for-newline", "letter-for-newline",
        "arabic-indic-digit",
    ],
)
def test_coloring_reader_agrees_with_the_line_parser(tmp_path, body):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"n": 2, "p": 2, "r": 2}\n' + body)
    assert _outcome(read_coloring, path) == _outcome(_line_parsed_coloring, path)


def test_coloring_header_takes_an_integral_float(tmp_path):
    # a fraction or a boolean is refused (test_malformed_json_exits_one); a number with zero fraction is not
    path = tmp_path / "c.json"
    path.write_text('{"n": 2.0, "p": 2, "r": 2}\n1\n2\n1\n1\n')
    assert read_coloring(path).space == Space(2, 2)
