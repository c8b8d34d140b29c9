"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The checks themselves live in ``qbound.verify`` (criterion NN is
``verify._ALL_CHECKS[NN - 1]``); these tests run each at full size, the same
as ``qbound verify``.  Run ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

from qbound import verify


def _criterion(number: int) -> None:
    result = verify._ALL_CHECKS[number - 1](quick=False)
    line = f"[{'PASS' if result.passed else 'FAIL'}] criterion {number:02d} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_01_single_mode_solver_vs_closed_form():
    _criterion(1)


def test_criterion_02_equal_squeezing_optimum():
    _criterion(2)


def test_criterion_03_degenerate_weight_special_cases():
    _criterion(3)


def test_criterion_04_gamma_quartic():
    _criterion(4)


def test_criterion_05_envelope_reconstruction():
    _criterion(5)


def test_criterion_06_reference_point_values():
    _criterion(6)


def test_criterion_07_monte_carlo_achievability():
    _criterion(7)


def test_criterion_08_no_bound_violation():
    _criterion(8)


def test_criterion_09_sql_threshold():
    _criterion(9)


def test_criterion_10_structural_properties():
    _criterion(10)
