"""CLI goldens under pytest; the cases and the recorder live in goldens.py."""
from __future__ import annotations

import pytest

from goldens import CASES, load_goldens, observe


def test_goldens_cover_every_case():
    assert sorted(load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case, tmp_path):
    assert observe(CASES[case], tmp_path) == load_goldens()[case]
