"""Source-layout guards."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dirtytx"


def test_source_lines_fit_in_100_columns():
    long = [
        "%s:%d" % (path.name, number)
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert sorted(SRC.glob("*.py"))
    assert not long, "lines over 100 characters: %s" % ", ".join(long)
