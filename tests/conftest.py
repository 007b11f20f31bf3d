"""Terminal summary for the acceptance suite: one PASS/FAIL line per criterion."""

import re

_LABELS = {
    1: "golden freeness (canonical coloring, F_5^n, n=2..4)",
    2: "complexity-1 golden triple",
    3: "subpattern goldens + exhaustive extendability",
    4: "fourier suite (fast vs naive, parseval, inversion, lambda)",
    5: "energy laws (monotonicity, pythagoras, increments)",
    6: "regularization self-certification (4 ops x 50 seeds)",
    7: "dichotomy soundness (Case B witness / Case A certificates)",
    8: "end-to-end removal (20 seeded runs, no third outcome)",
    9: "inhomogeneous correspondence (exhaustive bijection)",
    10: "theoretical constants recorded, never asserted",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.failed:
        _outcomes[num] = "failed"
    elif report.when == "call" and num not in _outcomes:
        _outcomes[num] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_outcomes):
        word = "PASS" if _outcomes[num] == "passed" else "FAIL"
        terminalreporter.write_line(
            "CRITERION %2d: %s  %s" % (num, word, _LABELS.get(num, ""))
        )
