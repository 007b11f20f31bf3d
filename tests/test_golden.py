"""Byte-for-byte CLI reports on small seeded inputs.

The expected stdout of each run lives in tests/golden/<name>.json, next to
the sha256 of the file the run writes with --out.  Inputs are rebuilt
from fixed seeds by the library's own writers, so a change to any report
field, float, key order or recolored point shows up here.  To refresh a
golden after an intended report change, rerun the command and overwrite the
file, and say why in the change log.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from removal_lab import cli
from removal_lab.patterns import Pattern, write_family, write_pattern
from removal_lab.ramsey import canonical_coloring
from removal_lab.space import Coloring, Space, write_coloring

GOLDEN = Path(__file__).parent / "golden"


def write_inputs(tmp_path):
    # F_2^6 coloring with a subspace-structured color class: the model is nontrivial
    values = np.where(np.arange(64) % 4 == 0, 1, 2)
    write_coloring(tmp_path / "quarter.json", Coloring(Space(2, 6), 2, values))
    write_coloring(tmp_path / "canon5.json", canonical_coloring(Space(5, 3), (1, 2, 3, 4)))
    write_family(tmp_path / "mono5.json", [Pattern(5, 4, [[1, 1, 1]], (c,) * 3) for c in (1, 2, 3, 4)])
    write_family(tmp_path / "mono5r2.json", [Pattern(5, 2, [[1, 1, 1]], (c,) * 3) for c in (1, 2)])
    # random 2-coloring of F_3^3 whose sparse subfamily forces Case A
    rng = np.random.default_rng(0)
    write_coloring(tmp_path / "rand3.json", Coloring(Space(3, 3), 2, rng.integers(1, 3, 27).astype(np.int64)))
    write_family(tmp_path / "mono3.json", [Pattern(3, 2, [[1, 1, 2]], (c,) * 3) for c in (1, 2)])
    # codim V_1 = 6 < codim V_2 = 8 < 12, and the recoloring repaints one point
    write_coloring(tmp_path / "canon2.json", canonical_coloring(Space(2, 12), (2,)))
    # stats inputs where many all-nonzero instances have dependent parameters (generic < nonzero)
    rng = np.random.default_rng(1)
    write_coloring(tmp_path / "rand2f4.json", Coloring(Space(2, 4), 2, rng.integers(1, 3, 16).astype(np.int64)))
    write_pattern(tmp_path / "sum5.json", Pattern(2, 2, [[1, 1, 1, 1, 1]], (1,) * 5))
    write_coloring(tmp_path / "rand3f4.json", Coloring(Space(3, 4), 3, rng.integers(1, 4, 81).astype(np.int64)))
    write_pattern(tmp_path / "chain5.json", Pattern(3, 3, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], (1, 2, 1, 2, 1)))
    # x1+...+x4 = 0, whose Moebius terms have zero and parallel columns, over F_2^10 and F_3^6
    for p, n in ((2, 10), (3, 6)):
        sp = Space(p, n)
        write_coloring(tmp_path / f"rand{p}f{n}.json", Coloring(sp, 2, np.random.default_rng(9).integers(1, 3, sp.size)))
        write_pattern(tmp_path / f"sum4f{p}.json", Pattern(p, 2, [[1, 1, 1, 1]], (1,) * 4))
    # x + y + z = 0 over F_2 keeps a monochromatic instance after the patch, so remove refuses
    write_family(tmp_path / "sum3f2.json", [Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))])
    # all 1s on F_2^16 but 8 seeded points of color 2: Case B through a model with codim V_1 = 7 < 16
    values = np.ones(2**16, dtype=np.int64)
    values[np.random.default_rng(16).choice(2**16, 8, replace=False)] = 2
    write_coloring(tmp_path / "sparse16.json", Coloring(Space(2, 16), 2, values))
    write_family(tmp_path / "sum3f2c2.json", [Pattern(2, 2, [[1, 1, 1]], (2, 2, 2))])


RUNS = {
    # every one of the 16 chi has a certificate
    "dichotomy_case_a": (0, ["dichotomy", "--family", "mono5r2.json"]),
    # the witness (1, 2, 3, 4) is the 28th chi of the walk
    "dichotomy_case_b": (0, ["dichotomy", "--family", "mono5.json"]),
    "model": (0, ["model", "--coloring", "quarter.json", "--eps", "0.5", "--seed", "3"]),
    "recolor": (0, ["recolor", "--coloring", "quarter.json", "--eps", "1", "--eps-reg", "0.5", "--seed", "1"]),
    "recolor_repaint": (
        0,
        ["recolor", "--coloring", "canon2.json", "--eps", "0.5", "--eps-reg", "0.3", "--seed", "1"],
    ),
    # two Green rounds, the second over the 3 cosets of a hyperplane
    "regularize": (0, ["regularize", "--coloring", "rand3.json", "--eps", "0.1"]),
    "remove_case_b": (
        0,
        ["remove", "--family", "mono5.json", "--coloring", "canon5.json", "--eps", "1", "--eps-rado", "0.01"],
    ),
    "stats_chain5_f3": (0, ["stats", "--pattern", "chain5.json", "--coloring", "rand3f4.json"]),
    "stats_sum5_f2": (0, ["stats", "--pattern", "sum5.json", "--coloring", "rand2f4.json"]),
    "stats_sum4_f2": (0, ["stats", "--pattern", "sum4f2.json", "--coloring", "rand2f10.json"]),
    "stats_sum4_f3": (0, ["stats", "--pattern", "sum4f3.json", "--coloring", "rand3f6.json"]),
    "remove_case_b_nontrivial": (
        0,
        ["remove", "--family", "sum3f2c2.json", "--coloring", "sparse16.json", "--eps", "0.5", "--acknowledge-complexity"],
    ),
    "remove_case_a": (
        2,
        ["remove", "--family", "mono3.json", "--coloring", "rand3.json", "--eps", "0.7", "--eps-rado", "1.5"],
    ),
    # the final freeness check finds the instance (12, 8, 4) and exits with a VerificationError
    "remove_refused": (
        2,
        [
            "remove", "--family", "sum3f2.json", "--coloring", "quarter.json",
            "--eps", "0.5", "--eps-rado", "1.5", "--acknowledge-complexity",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path, capsys, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    want_code, argv = RUNS[name]
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    if want_code == 0:
        argv = [*argv, "--out", "out.json"]
    assert cli.main(argv) == want_code
    assert capsys.readouterr().out == expected["stdout"]
    if want_code == 0:
        digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
        assert digest == expected["out_sha256"]
