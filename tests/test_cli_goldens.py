"""CLI goldens under pytest; the cases and the recorder live in goldens.py."""
from __future__ import annotations

import pytest

from goldens import CASES, _first_difference, load_goldens, observe


def test_goldens_cover_every_case():
    assert sorted(load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case, tmp_path):
    assert observe(CASES[case], tmp_path) == load_goldens()[case]


def test_a_mismatch_shows_where_it_departs():
    want = {"code": 0, "stdout": "a\nb\n"}
    assert _first_difference(want, {"code": 0, "stdout": "a\nc\n"}) == (
        ": stdout line 2\n  golden:   b\n  observed: c")
    assert _first_difference(want, {"code": 0, "stdout": "a\n"}) == (
        ": stdout line 2\n  golden:   b\n  observed: (end)")
    assert _first_difference(want, {"code": 3, "stdout": "a\nb\n"}) == (
        ": code\n  golden:   0\n  observed: 3")
    assert _first_difference(None, want) == " (only observed)"
