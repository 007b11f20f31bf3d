import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import removal_lab
from removal_lab import cli, regularize
from removal_lab.patterns import Pattern, read_pattern, subpattern, write_family, write_pattern
from removal_lab.ramsey import canonical_coloring
from removal_lab.space import CAP_ENV_VAR, Coloring, Space, read_coloring, read_table, write_coloring, write_table
from removal_lab.fourier import transform


@pytest.fixture
def workdir(tmp_path):
    """Small input files shared by most subcommand tests."""
    sp = Space(2, 4)
    rng = np.random.default_rng(2)
    coloring = Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64))
    write_coloring(tmp_path / "phi.json", coloring)

    pat = Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))
    write_pattern(tmp_path / "h.json", pat)
    write_family(tmp_path / "fam.json", [pat])

    mono = Coloring(Space(2, 6), 2, np.full(64, 2, dtype=np.int64))
    write_coloring(tmp_path / "mono.json", mono)
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_report_and_copy(workdir, capsys):
    out_path = workdir / "density.json"
    code, out, _ = run_cli(
        capsys, "density", "--pattern", str(workdir / "h.json"),
        "--coloring", str(workdir / "phi.json"), "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] == "density"
    assert report["solutions"] == 16**2
    assert 0 <= report["density_float"] <= 1
    assert out_path.read_text() == out  # --out is a byte-for-byte copy here


def test_stats_fields(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--pattern", str(workdir / "h.json"), "--coloring", str(workdir / "phi.json")
    )
    assert code == 0
    report = json.loads(out)
    assert {"instances", "nonzero_instances", "generic_instances", "is_free"} <= report.keys()
    assert report["generic_instances"] <= report["nonzero_instances"] <= report["instances"]


def test_subpattern_writes_artifact(workdir, capsys):
    ap4 = Pattern(5, 1, [[1, -2, 1, 0], [0, 1, -2, 1]], (1, 1, 1, 1))
    write_pattern(workdir / "ap4.json", ap4)
    out_path = workdir / "sub.json"
    code, out, _ = run_cli(
        capsys, "subpattern", "--pattern", str(workdir / "ap4.json"),
        "--indices", "1,2,3", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out)["indices"] == [1, 2, 3]
    assert read_pattern(out_path) == subpattern(ap4, [1, 2, 3])


def test_complexity_golden_pair(workdir, capsys):
    yes = Pattern(5, 1, [[1, 1, 1]], (1, 1, 1))
    no = Pattern(5, 1, [[1, -2, 1, 0], [0, 1, -2, 1]], (1, 1, 1, 1))
    write_pattern(workdir / "yes.json", yes)
    write_pattern(workdir / "no.json", no)
    code, out, _ = run_cli(capsys, "complexity", "--pattern", str(workdir / "yes.json"))
    assert code == 0 and json.loads(out)["complexity_1"] is True
    code, out, _ = run_cli(capsys, "complexity", "--pattern", str(workdir / "no.json"))
    assert code == 0 and json.loads(out)["complexity_1"] is False


def test_fourier_coloring_and_table_routes(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "fourier", "--coloring", str(workdir / "phi.json"), "--color", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert 0 <= report["norm"] <= 1

    sp = Space(3, 2)
    table = np.arange(sp.size, dtype=np.float64)
    write_table(workdir / "table.json", sp, table)
    out_path = workdir / "mags.json"
    code, out, _ = run_cli(
        capsys, "fourier", "--table", str(workdir / "table.json"), "--out", str(out_path)
    )
    assert code == 0
    mags, back_sp = read_table(out_path)
    assert back_sp == sp
    assert np.allclose(mags, np.abs(transform(table, sp)), atol=1e-12)
    wit = json.loads(out)["witness"]
    assert abs(mags[wit] - np.abs(transform(table, sp))[1:].max()) <= 1e-12


@pytest.mark.parametrize("p", [2, 3])
def test_fourier_on_a_zero_dimensional_coloring(tmp_path, capsys, p):
    write_coloring(tmp_path / "point.json", Coloring(Space(p, 0), 2, np.array([2])))
    out_path = tmp_path / "mags.json"
    code, out, _ = run_cli(
        capsys, "fourier", "--coloring", str(tmp_path / "point.json"), "--color", "2", "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["norm"] == 0.0 and report["witness"] is None
    mags, sp = read_table(out_path)
    assert sp == Space(p, 0) and mags.tolist() == [1.0]


def test_fourier_requires_exactly_one_source(workdir, capsys):
    code, _, err = run_cli(capsys, "fourier")
    assert code == 1 and "one of" in err
    code, _, err = run_cli(
        capsys, "fourier", "--coloring", str(workdir / "phi.json"),
        "--table", str(workdir / "phi.json"),
    )
    assert code == 1


@pytest.mark.parametrize("source", ["--coloring", "--table"])
def test_fourier_with_an_empty_path_is_a_file_error(capsys, source):
    code, out, err = run_cli(capsys, "fourier", source, "")
    assert code == 1 and out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_regularize_and_model_reports(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "regularize", "--coloring", str(workdir / "phi.json"), "--eps", "0.3"
    )
    assert code == 0
    assert "codim_v1" in json.loads(out)

    code, out1, _ = run_cli(
        capsys, "model", "--coloring", str(workdir / "phi.json"), "--eps", "0.4", "--seed", "7"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "model", "--coloring", str(workdir / "phi.json"), "--eps", "0.4", "--seed", "7"
    )
    assert out1 == out2  # same seed, byte-identical report


def test_model_retry_cap_is_an_evidence_report(workdir, capsys, monkeypatch):
    verify = regularize.verify_model
    monkeypatch.setattr(regularize, "verify_model", lambda *args: {**verify(*args), "ok": False})
    code, out, _ = run_cli(capsys, "model", "--coloring", str(workdir / "phi.json"), "--eps", "0.4")
    assert code == 2
    evidence = json.loads(out)
    assert evidence["error"] == "RetryCapError" and evidence["attempts"] == 64
    assert [s["attempt"] for s in evidence["stats"]] == list(range(64))
    assert not any("cosets" in s for s in evidence["stats"])


def test_recolor_writes_coloring_and_is_deterministic(workdir, capsys):
    out_path = workdir / "recolored.json"
    args = (
        "recolor", "--coloring", str(workdir / "phi.json"),
        "--eps", "0.6", "--eps-reg", "0.3", "--seed", "5", "--out", str(out_path),
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["changed_count"] <= 0.6 * 16
    first = out_path.read_bytes()
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert out_path.read_bytes() == first


def test_dichotomy_case_a_writes_witness(workdir, capsys):
    fam = [Pattern(2, 1, [[1, 1, 1]], (1, 1, 1))]
    write_family(workdir / "schur.json", fam)
    out_path = workdir / "witness.json"
    code, out, _ = run_cli(
        capsys, "dichotomy", "--family", str(workdir / "schur.json"), "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "A" and report["verified"]
    saved = json.loads(out_path.read_text())
    assert saved["certificates"] == report["certificates"]


def test_remove_success_roundtrip(workdir, capsys):
    out_path = workdir / "clean.json"
    args = (
        "remove", "--family", str(workdir / "fam.json"), "--coloring", str(workdir / "mono.json"),
        "--eps", "0.5", "--eps-rado", "1.5", "--acknowledge-complexity",
        "--out", str(out_path),
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["case"] == "B"
    assert report["changed_count"] == 0
    assert report["verified_free"] is True
    cleaned = read_coloring(out_path)
    assert np.array_equal(cleaned.values, np.full(64, 2))
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_remove_case_a_exits_two_with_evidence(workdir, capsys):
    sp = Space(3, 3)
    rng = np.random.default_rng(0)
    write_coloring(workdir / "r3.json", Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64)))
    fam = [Pattern(3, 2, [[1, 1, 2]], (c,) * 3) for c in (1, 2)]
    write_family(workdir / "fam3.json", fam)
    code, out, _ = run_cli(
        capsys, "remove", "--family", str(workdir / "fam3.json"),
        "--coloring", str(workdir / "r3.json"), "--eps", "0.7", "--eps-rado", "1.5",
    )
    assert code == 2
    evidence = json.loads(out)
    assert evidence["error"] == "CaseAAbort"
    assert evidence["phase"] == "dichotomy"
    assert evidence["dichotomy"]["case"] == "A"
    assert len(evidence["dichotomy"]["certificates"]) == 4


def test_recolor_space_exhausted_exits_two(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "recolor", "--coloring", str(workdir / "phi.json"), "--eps", "0.1"
    )
    assert code == 2
    assert json.loads(out)["error"] == "SpaceExhaustedError"


def test_cap_flag_exits_two_with_evidence(workdir, capsys, monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "1000000")  # so teardown restores sanity
    sp = Space(5, 3)
    write_coloring(workdir / "big.json", Coloring(sp, 2, np.ones(sp.size, dtype=np.int64)))
    write_pattern(workdir / "h5.json", Pattern(5, 2, [[1, 1, 1]], (1, 1, 1)))
    code, out, _ = run_cli(
        capsys, "--cap", "100", "density",
        "--pattern", str(workdir / "h5.json"), "--coloring", str(workdir / "big.json"),
    )
    assert code == 2
    evidence = json.loads(out)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == 125
    assert evidence["cap"] == 100


def test_cap_flag_holds_for_one_call_only(workdir, capsys, monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    before = dict(os.environ)
    fourier = ("fourier", "--coloring", str(workdir / "phi.json"), "--color", "1")
    code, out, _ = run_cli(capsys, "--cap", "10", *fourier)
    assert code == 2 and json.loads(out)["cap"] == 10
    code, out, _ = run_cli(capsys, *fourier)
    assert code == 0 and json.loads(out)["command"] == "fourier"
    assert dict(os.environ) == before
    # a value the caller set comes back too
    monkeypatch.setenv(CAP_ENV_VAR, "5000")
    assert run_cli(capsys, "--cap", "10", *fourier)[0] == 2
    assert os.environ[CAP_ENV_VAR] == "5000"


def test_the_shared_parser_keeps_nothing_between_calls(workdir, capsys):
    cli.build_parser.cache_clear()
    remove = (
        "remove", "--family", str(workdir / "fam.json"), "--coloring", str(workdir / "mono.json"),
        "--eps", "0.5", "--eps-rado", "1.5",
    )
    assert run_cli(capsys, *remove, "--acknowledge-complexity")[0] == 0
    code, out, _ = run_cli(capsys, *remove)
    assert code == 2 and json.loads(out)["error"] == "UnsupportedCharacteristicError"

    recolor = ("recolor", "--coloring", str(workdir / "phi.json"), "--eps", "0.6", "--eps-reg", "0.3")
    code, out, _ = run_cli(capsys, *recolor, "--seed", "3")
    assert code == 0 and json.loads(out)["model"]["seed"] == 3
    code, out, _ = run_cli(capsys, *recolor)
    assert code == 0 and json.loads(out)["model"]["seed"] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_out_is_the_report_copy_only_for_pure_reporters(workdir, capsys):
    write_pattern(workdir / "h5.json", Pattern(5, 1, [[1, 1, 1]], (1, 1, 1)))
    pattern, coloring = str(workdir / "h.json"), str(workdir / "phi.json")
    out_path = workdir / "report.json"
    for argv in [
        ("density", "--pattern", pattern, "--coloring", coloring),
        ("stats", "--pattern", pattern, "--coloring", coloring),
        ("complexity", "--pattern", str(workdir / "h5.json")),
        ("regularize", "--coloring", coloring, "--eps", "0.3"),
        ("model", "--coloring", coloring, "--eps", "0.4", "--seed", "7"),
    ]:
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0 and json.loads(out)["command"] == argv[0]
        assert out_path.read_bytes() == out.encode()
        out_path.unlink()

    # dichotomy writes its bare result there: no schema, no command
    code, out, _ = run_cli(capsys, "dichotomy", "--family", str(workdir / "fam.json"), "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    del report["schema"], report["command"]
    assert out_path.read_text() == json.dumps(report, sort_keys=True) + "\n"


def test_solution_count_too_long_to_print_is_a_cap_report(workdir, capsys):
    # 1024^1499 solutions: more than 4300 digits, so requested is the power
    write_pattern(workdir / "wide.json", Pattern(2, 2, [[1] * 1500], (1,) * 1500))
    sp = Space(2, 10)
    write_coloring(workdir / "c10.json", Coloring(sp, 2, np.ones(sp.size, dtype=np.int64)))
    code, out, _ = run_cli(
        capsys, "stats", "--pattern", str(workdir / "wide.json"), "--coloring", str(workdir / "c10.json")
    )
    assert code == 2
    evidence = json.loads(out)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == "1024^1499"


def _walsh(values: np.ndarray) -> np.ndarray:
    """Integer Walsh-Hadamard transform of a table on F_2^n (exact in int64 for 0/1 tables)."""
    out = values.astype(np.int64)
    h = 1
    while h < out.size:
        a = out.reshape(-1, 2, h)
        out = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1).reshape(-1)
        h *= 2
    return out


@pytest.mark.parametrize("kind", ["constant", "random"])
def test_stats_past_the_enumeration_cap(workdir, capsys, kind):
    # x+y+z=0 on F_2^18 has 2^36 solutions, which enumeration refuses; the dual count needs two primes
    sp = Space(2, 18)
    values = np.random.default_rng(18).integers(1, 3, sp.size) if kind == "random" else np.ones(sp.size, dtype=np.int64)
    write_coloring(workdir / "c18.json", Coloring(sp, 2, values))
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "stats", "--pattern", str(workdir / "h.json"), "--coloring", str(workdir / "c18.json")
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out)
    assert report["solutions"] == 2**36
    if kind == "constant":
        assert report["instances"] == 2**36
        assert report["nonzero_instances"] == report["generic_instances"] == (2**18 - 1) * (2**18 - 2)
    else:
        assert elapsed < 2.0
        # sum_{x+y+z=0} S(x)S(y)S(z) = 2^-n sum_z H(z)^3, H the Walsh transform of S; Python ints past 2^63
        marked = values == 1
        assert report["instances"] == sum(int(v) ** 3 for v in _walsh(marked)) // sp.size
        marked[0] = False
        assert report["nonzero_instances"] == sum(int(v) ** 3 for v in _walsh(marked)) // sp.size
        # at p = 2 nonzero x, y, x+y are independent, so every all-nonzero solution is generic
        assert report["generic_instances"] == report["nonzero_instances"]


def test_stats_of_a_five_term_sum_counts_its_moebius_terms_on_the_dual_code(workdir, capsys):
    # x1+...+x5 = 0 on F_2^8: 2^32 solutions; the dimension-3 Moebius terms have 2^24 each
    sp = Space(2, 8)
    write_pattern(workdir / "sum5.json", Pattern(2, 2, [[1] * 5], (1,) * 5))
    write_coloring(workdir / "c8.json", Coloring(sp, 2, np.random.default_rng(9).integers(1, 3, sp.size)))
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "stats", "--pattern", str(workdir / "sum5.json"), "--coloring", str(workdir / "c8.json")
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0
    # the report that Moebius terms which all enumerate give, in about 23 s on 2 cores
    assert json.loads(out) == {
        "command": "stats",
        "density": "49927501/4294967296",
        "generic_instances": 43124160,
        "instances": 49927501,
        "is_free": False,
        "nonzero_instances": 47536680,
        "schema": 1,
        "solutions": 2**32,
    }


def test_stats_with_moebius_terms_past_the_cap_is_a_cap_report(workdir, capsys):
    # x1+...+x4 = 0 on F_5^6: the 5^18 solutions are counted on the dual code, but a dimension-2
    # Moebius term can keep 4 pairwise independent columns, a 2-dimensional dual, so either
    # route needs |V|^2 = 5^12 and the sum is refused
    sp = Space(5, 6)
    write_pattern(workdir / "sum4.json", Pattern(5, 2, [[1] * 4], (1,) * 4))
    write_coloring(workdir / "c6.json", Coloring(sp, 2, np.random.default_rng(14).integers(1, 3, sp.size)))
    code, out, _ = run_cli(
        capsys, "stats", "--pattern", str(workdir / "sum4.json"), "--coloring", str(workdir / "c6.json")
    )
    assert code == 2
    evidence = json.loads(out)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == 5**12


@pytest.mark.parametrize(
    "p, n, rows",
    [(2, 14, [[1, 1, 1, 1]]), (3, 8, [[1, 1, 1, 1]]), (5, 6, [[1, 1, 1, 0], [0, 1, 1, 1]]),
     (2, 14, [[1, 1, 1, 1, 1]])],
    ids=["sum4-F2^14", "sum4-F3^8", "pair4-F5^6", "sum5-F2^14"],
)
def test_stats_counts_moebius_terms_on_merged_columns(workdir, capsys, p, n, rows):
    # over F_2 a dimension-2 term has at most 3 distinct nonzero columns, a live dimension-3 term
    # of SUM5 at most 4, and PAIR4 forces x1 = x4; counted on their merged columns, these sums fit
    # the cap and answer quickly
    sp = Space(p, n)
    k = len(rows[0])
    write_pattern(workdir / "h.json", Pattern(p, 2, rows, (1,) * k))
    write_coloring(workdir / "c.json", Coloring(sp, 2, np.random.default_rng(n).integers(1, 3, sp.size)))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "--pattern", str(workdir / "h.json"), "--coloring", str(workdir / "c.json"))
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out)
    assert 0 < report["generic_instances"] < report["nonzero_instances"] <= report["instances"]
    assert elapsed < 2.0


def test_stats_refuses_a_moebius_sum_before_its_first_term(workdir):
    # x1+...+x9 = 0 on F_2^8: the dimension-7 and -6 terms fit the cap on the dual code, but the
    # first dimension-5 term needs 2 primes x 2^32 products; counting the 11,050 terms before it
    # would take hours, so the refusal must come before any term is counted
    sp = Space(2, 8)
    write_pattern(workdir / "sum9.json", Pattern(2, 2, [[1] * 9], (1,) * 9))
    write_coloring(workdir / "c8.json", Coloring(sp, 2, np.random.default_rng(8).integers(1, 3, sp.size)))
    start = time.perf_counter()
    out = _run_subprocess(workdir, "stats", "--pattern", "sum9.json", "--coloring", "c8.json")
    elapsed = time.perf_counter() - start
    assert out.returncode == 2
    evidence = json.loads(out.stdout)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == 2 * 2**32
    assert elapsed < 5.0


def test_reduce_quotient_coloring(workdir, capsys):
    sp = Space(2, 3)
    rng = np.random.default_rng(9)
    write_coloring(workdir / "c3.json", Coloring(sp, 2, rng.integers(1, 3, sp.size).astype(np.int64)))
    write_family(workdir / "redfam.json", [Pattern(2, 2, [[1, 1, 1]], (1, 1, 1))])
    out_path = workdir / "quot.json"
    code, out, _ = run_cli(
        capsys, "reduce", "--family", str(workdir / "redfam.json"),
        "--coloring", str(workdir / "c3.json"), "--offsets", "5", "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["b_size"] == 2
    assert report["quotient_dim"] == 2
    assert report["quotient_colors"] == 4
    assert report["expansion_counts"] == [2 ** 2 * 2 ** 3]
    assert read_coloring(out_path).r == 4


@pytest.mark.parametrize(
    "offsets,message",
    [("1;2", "offset group"), ("99999", "point code"), ("-1", "point code")],
    ids=["group-count", "offset-above-space", "negative-offset"],
)
def test_reduce_group_count_mismatch_is_usage_error(workdir, capsys, offsets, message):
    code, out, err = run_cli(
        capsys, "reduce", "--family", str(workdir / "fam.json"),
        "--coloring", str(workdir / "phi.json"), "--offsets", offsets,
    )
    assert code == 1
    assert out == "" and message in err


def test_usage_errors_exit_one(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["density"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cap", "0", "stats", "--pattern", "x", "--coloring", "y"])
    assert exc.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["recolor", "--coloring", "phi.json", "--eps", "1", "--eps-reg", "nan"],
        ["remove", "--family", "fam.json", "--coloring", "phi.json", "--eps", "1", "--eps-reg", "nan"],
        ["remove", "--family", "fam.json", "--coloring", "phi.json", "--eps", "1", "--eps-rado", "nan"],
        ["model", "--coloring", "phi.json", "--eps", "inf"],
        ["regularize", "--coloring", "phi.json", "--eps", "inf"],
    ],
    ids=["recolor-eps-reg-nan", "remove-eps-reg-nan", "remove-eps-rado-nan", "model-eps-inf", "regularize-eps-inf"],
)
def test_non_finite_eps_is_a_usage_error(workdir, capsys, argv):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["recolor", "--coloring", "quarter.json", "--eps", "1", "--seed", "-1"],
        ["recolor", "--coloring", "canon2.json", "--eps", "0.5", "--eps-reg", "0.3", "--seed", "-1"],
        ["model", "--coloring", "quarter.json", "--eps", "0.5", "--seed", "-1"],
        ["remove", "--family", "fam.json", "--coloring", "quarter.json", "--eps", "1", "--seed", "-1"],
    ],
    ids=["recolor-trivial-model", "recolor-complement-drawn", "model", "remove"],
)
def test_negative_seed_is_a_usage_error(workdir, capsys, argv):
    # the trivial model never seeds a draw, so only the parser treats both recolor inputs alike
    write_coloring(workdir / "quarter.json", Coloring(Space(2, 6), 2, np.where(np.arange(64) % 4 == 0, 1, 2)))
    write_coloring(workdir / "canon2.json", canonical_coloring(Space(2, 12), (2,)))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage line, then why the value was rejected
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith("error: argument --seed: must be >= 0\n")


@pytest.mark.parametrize("eps", ["1e300", "2", "0"])
def test_model_eps_outside_the_unit_interval_exits_one(workdir, capsys, eps):
    # eps^3 / 4 overflows past about 5.6e102, and an eps above 1 asks for no regularity at all
    for command in ("model", "regularize"):
        code, out, err = run_cli(capsys, command, "--coloring", str(workdir / "phi.json"), "--eps", eps)
        assert code == 1
        assert out == "" and err == "error: eps must lie in (0, 1]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["recolor", "--coloring", "phi.json", "--eps", "0.5", "--eps-reg", "0"],
        ["remove", "--family", "fam.json", "--coloring", "phi.json", "--eps", "0.5", "--eps-reg", "-0.5",
         "--acknowledge-complexity"],
    ],
    ids=["recolor-eps-reg-0", "remove-eps-reg-negative"],
)
def test_non_positive_eps_reg_exits_one_naming_it(workdir, capsys, argv):
    # --eps is valid here, so the report must blame eps', not eps
    code, out, err = run_cli(capsys, *[str(workdir / a) if a.endswith(".json") else a for a in argv])
    assert code == 1
    assert out == "" and err == "error: eps_prime must be positive\n"


def test_missing_file_is_a_usage_error(workdir, capsys):
    code, _, err = run_cli(
        capsys, "density", "--pattern", str(workdir / "nope.json"),
        "--coloring", str(workdir / "phi.json"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_console_entry_point_runs():
    # the child imports the package under test, also from a checkout without an install
    src = str(Path(removal_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from removal_lab.cli import main; sys.exit(main(['--help']))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert "subcommand" in out.stdout or "usage" in out.stdout


@pytest.mark.parametrize(
    "argv,name,text",
    [
        (["dichotomy", "--family"], "fam.json", "[5]\n"),
        (["dichotomy", "--family"], "fam.json", '[{"p": [5], "r": 1, "rows": [[1, 1, 1]], "psi": [1, 1, 1]}]\n'),
        (["complexity", "--pattern"], "h.json", '{"p": 5, "r": 1, "rows": [[1, 1, 1]], "psi": 5}\n'),
        (["complexity", "--pattern"], "h.json", '{"p": 5, "r": 1, "rows": [[1, null, 1]], "psi": [1, 1, 1]}\n'),
        (["stats", "--pattern", "h.json", "--coloring"], "c.json", "5\n1\n"),
        (["fourier", "--table"], "t.json", '{"p": 2, "n": null}\n0.5\n'),
        (["stats", "--coloring", "phi.json", "--pattern"], "h6.json", '{"p": 2, "r": 2, "rows": [[1, 1, 1, 1, 1, 1]], "psi": [1, 1, 1]}\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": 2}\n' + "9" * 30 + "\n1\n"),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": 2}\n1 2\n2\n'),
        (["fourier", "--table"], "t.json", '{"p": 2, "n": 1}\nnan\n0.5\n'),
        (["fourier", "--table"], "t.json", '{"p": 2, "n": 1}\n0.5\n1e999\n'),
        (["fourier", "--color", "3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": 2}\n1\n2\n'),
        # the readers parse the whole body at once; each refusal above still holds there
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": 2}\n1\n-' + "9" * 30 + "\n"),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": ' + str(10**30) + "}\n1\n2\n"),
        (["fourier", "--table"], "t.json", '{"p": 2, "n": 1}\n-inf\n0.5\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1, "r": 2}\n1 2\n'),
        (["fourier", "--table"], "t.json", '{"p": 2, "n": 1}\n\n0.5 0.5\n\n'),
        # JSON numbers that int() would truncate: a fraction or a boolean is not an integer
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": 2, "r": 2, "rows": [[1.5, 1, 1]], "psi": [1, 1, 1]}'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 2.7, "r": 2}\n1\n2\n1\n2\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": true, "r": 2}\n1\n2\n'),
        # a JSON string is not an integer, even where int() would parse it
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": "\u0663", "r": 2}\n' + "1\n" * 8),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": " 1_0 ", "r": 2}\n' + "1\n" * 1024),
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": "2", "r": 2, "rows": [[1, 1, 1]], "psi": [1, 1, 1]}'),
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": 2, "r": 2, "rows": [[1, "1", 1]], "psi": [1, 1, 1]}'),
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": 2, "r": 2, "rows": [[1, 1, 1]], "psi": [1, "2", 1]}'),
        (["dichotomy", "--family"], "fam.json", '[{"p": 5, "r": "1", "rows": [[1, 1, 1]], "psi": [1, 1, 1]}]\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "r": 2}\n1\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": -1, "r": 2}\n1\n'),
        (["regularize", "--eps", "0.3", "--coloring"], "c.json", '{"p": 2, "n": 1e999, "r": 2}\n1\n2\n'),
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": 2, "r": 2, "rows": [[1, 1, 1]]}'),
        (["stats", "--coloring", "phi.json", "--pattern"], "h.json", '{"p": 2, "r": 2, "rows": [[' + str(10**23) + ', 1, 1]], "psi": [1, 1, 1]}'),
        (["reduce", "--offsets", "1", "--coloring", "phi.json", "--family"], "fam3.json", '[{"p": 3, "r": 2, "rows": [[1, 1, 1]], "psi": [1, 1, 1]}]\n'),
    ],
    ids=[
        "family-not-objects", "p-is-list", "psi-not-list", "null-in-rows", "header-not-object", "null-header-field",
        "rows-wider-than-psi", "color-past-int64", "two-colors-on-a-line", "nan-in-table", "inf-in-table",
        "color-outside-1-to-r", "last-color-below-int64", "r-above-point-cap", "minus-inf-in-table",
        "two-colors-on-the-only-line", "two-values-on-the-only-table-line",
        "fraction-in-rows", "fractional-header-n", "boolean-header-n",
        "arabic-indic-digit-header-n", "underscored-string-header-n", "string-pattern-p", "string-in-rows",
        "string-in-psi", "string-family-r", "header-missing-n", "negative-header-n", "infinite-header-n",
        "pattern-missing-psi", "row-entry-past-int64", "family-on-another-field",
    ],
)
def test_malformed_json_exits_one(workdir, capsys, argv, name, text):
    (workdir / name).write_text(text)
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv, str(workdir / name))
    assert code == 1
    assert out == "" and err.startswith("error:")
    if argv[0] == "reduce":
        assert err == "error: pattern and coloring disagree on (p, r)\n"


def _run_subprocess(tmp_path, *argv):
    """The CLI in a fresh interpreter, so that a check made too late times out here."""
    src = str(Path(removal_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "removal_lab.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=30,
    )


def test_huge_dimension_refused_before_p_to_the_n(workdir):
    (workdir / "huge.json").write_text('{"n": 20000, "p": 2, "r": 2}\n1\n')
    out = _run_subprocess(workdir, "stats", "--pattern", "h.json", "--coloring", "huge.json")
    assert out.returncode == 2
    evidence = json.loads(out.stdout)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == "2^20000"


def test_huge_prime_refused_before_trial_division(workdir):
    p = 2**61 - 1
    text = json.dumps([{"p": p, "r": 1, "rows": [[1, 1, 1]], "psi": [1, 1, 1]}])
    (workdir / "bigp.json").write_text(text + "\n")
    out = _run_subprocess(workdir, "dichotomy", "--family", "bigp.json")
    assert out.returncode == 2
    evidence = json.loads(out.stdout)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == p


# each chi of x+y+z on F_5^3 costs 125 table entries plus 125^2 solution tuples
@pytest.mark.parametrize(
    "r,requested",
    [(1000, 1000**4 * 15750), (10**30, 10**120 * 15750), (2**5000, f"{2**5000}^4 * 15750")],
    ids=["walk-over-budget", "r-past-product-range", "chi-count-too-long-to-print"],
)
def test_huge_family_chi_walk_is_a_cap_report(workdir, r, requested):
    text = json.dumps([{"p": 5, "r": r, "rows": [[1, 1, 1]], "psi": [1, 1, 1]}])
    (workdir / "manyr.json").write_text(text + "\n")
    out = _run_subprocess(workdir, "dichotomy", "--family", "manyr.json")
    assert out.returncode == 2
    evidence = json.loads(out.stdout)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == requested
    assert evidence["cap"] == 10**8


def test_family_free_at_the_first_chi_is_case_b_whatever_r(workdir):
    # the all-1s chi leaves color 2 empty, so 1000^4 chi are never walked
    text = json.dumps([{"p": 5, "r": 1000, "rows": [[1, 1, 1]], "psi": [2, 2, 2]}])
    (workdir / "free.json").write_text(text + "\n")
    out = _run_subprocess(workdir, "dichotomy", "--family", "free.json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["case"] == "B" and report["chi"] == [1, 1, 1, 1] and report["verified"]


def test_huge_color_count_refused_before_tables(workdir):
    (workdir / "manyr.json").write_text(json.dumps({"n": 3, "p": 2, "r": 10**30}) + "\n" + "1\n" * 8)
    out = _run_subprocess(workdir, "regularize", "--coloring", "manyr.json", "--eps", "0.3")
    assert out.returncode == 1
    assert out.stdout == "" and out.stderr.startswith("error:") and "point cap" in out.stderr


@pytest.mark.parametrize(
    "n,r,members,offsets,requested",
    [
        (4, 2, [([[1, 1, 0], [0, 1, 1]], (1, 2, 1)), ([[1, 1, 1]], (1, 1, 1))], "1,2;4", 72 * 2**21),
        (5, 3, [(np.eye(4, dtype=np.int64), (1, 1, 1, 1))], "1,2,4,8", 16 * 3**16),
        (15, 2, [([[1, 1, 1]], (1, 1, 1))] * 15, ";".join(str(2**i) for i in range(15)), "2^32768 * 32768"),
    ],
    ids=["expansions", "color-table", "color-count-too-long-to-print"],
)
def test_reduce_refused_before_building(workdir, n, r, members, offsets, requested):
    sp = Space(2, n)
    rng = np.random.default_rng(4)
    write_coloring(workdir / "cr.json", Coloring(sp, r, rng.integers(1, r + 1, sp.size).astype(np.int64)))
    write_family(workdir / "famr.json", [Pattern(2, r, rows, psi) for rows, psi in members])
    out = _run_subprocess(workdir, "reduce", "--family", "famr.json", "--coloring", "cr.json", "--offsets", offsets)
    assert out.returncode == 2
    evidence = json.loads(out.stdout)
    assert evidence["error"] == "ResourceCapError"
    assert evidence["requested"] == requested
    assert evidence["cap"] == 10**6
