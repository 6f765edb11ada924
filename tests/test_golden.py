"""Reference tables 1-6 against CSVs written by `nearproj table N --csv`.

The stored CSVs hold every value and order at 17 significant digits; a change
that moves any of them by more than 1e-12 relative fails here.  The same run
prints the table, and its text must equal `table_N.txt` line for line: every
printed value, order, note and check line.  Table 6, the slowest, takes
about half a second on 2 cores, and its largest part is the LU factorisation
of its 24 systems, not the fragment pass of its band pair.
"""

import csv
from pathlib import Path

import pytest

from nearproj.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("table_id", [1, 2, 3, 4, 5, 6])
def test_table_matches_golden_csv(table_id, tmp_path, capsys):
    out = tmp_path / f"table_{table_id}.csv"
    assert main(["table", str(table_id), "--csv", str(out)]) == 0
    printed = (GOLDEN / f"table_{table_id}.txt").read_text()
    assert capsys.readouterr().out.splitlines() == printed.splitlines()
    expected = _read(GOLDEN / f"table_{table_id}.csv")
    got = _read(out)
    assert got[0] == expected[0]
    assert len(got) == len(expected)
    for row_got, row_expected in zip(got[1:], expected[1:]):
        assert len(row_got) == len(row_expected)
        for cell, ref in zip(row_got, row_expected):
            if ref == "":
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(float(ref), rel=RTOL, abs=0.0)
