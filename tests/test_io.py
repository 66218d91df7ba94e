from pathlib import Path

import numpy as np
import pytest

from fqgeom.geom import LineFamily, PointSet, affine_space
from fqgeom.io import (
    FormatError,
    load_linefamily,
    load_pointset,
    save_linefamily,
    save_pointset,
)


def same_set(a, b):
    """The point sets lie in the same AG(n,q) and hold the same points."""
    return (a.q, a.n) == (b.q, b.n) and np.array_equal(a.mask, b.mask)


@pytest.mark.parametrize("q,n", [(3, 3), (5, 2), (4, 3), (9, 3)])
def test_pointset_roundtrip(q, n, tmp_path):
    import random

    rng = random.Random(q * 10 + n)
    s = PointSet(q, n, indices=rng.sample(range(q ** n), min(q ** n, 17)))
    path = tmp_path / "set.pts"
    save_pointset(s, str(path))
    assert same_set(load_pointset(str(path)), s)


@pytest.mark.parametrize("q", [3, 4])
def test_linefamily_roundtrip(q, tmp_path):
    sp = affine_space(q, 3)
    fam = LineFamily(sp, sp.all_lines()[:25])
    path = tmp_path / "fam.lines"
    save_linefamily(fam, str(path))
    back = load_linefamily(str(path))
    assert back.lines.tolist() == fam.lines.tolist()


def test_extension_field_tokens(tmp_path):
    # GF(4) elements are written as two base-2 digits joined by '-'
    s = PointSet(4, 3, indices=[0, 63])
    path = tmp_path / "s.pts"
    save_pointset(s, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "4 3 points"
    assert text[1] == "0-0 0-0 0-0"
    assert text[2] == "1-1 1-1 1-1"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_random_roundtrips(q, tmp_path):
    import random

    rng = random.Random(q)
    sp = affine_space(q, 3)
    for size in (0, 1, rng.randrange(q ** 3), q ** 3):
        s = PointSet(q, 3, indices=rng.sample(range(q ** 3), size))
        save_pointset(s, str(tmp_path / "s.pts"))
        assert same_set(load_pointset(str(tmp_path / "s.pts")), s)
    lines = sp.all_lines()
    for size in (0, 1, rng.randrange(len(lines))):
        fam = LineFamily(sp, lines[rng.sample(range(len(lines)), size)])
        save_linefamily(fam, str(tmp_path / "f.lines"))
        assert load_linefamily(str(tmp_path / "f.lines")).lines.tolist() == fam.lines.tolist()


# tokens the writer never makes: each is read as the element code given, or
# refused (None) with a FormatError, also where int() cannot read a digit;
# point and line files agree
ODD_TOKENS = [
    (5, "01", 1), (5, "+1", 1), (5, "1-0", None), (7, "006", 6), (7, "7", None),
    (3, "3", None), (3, "-1", None), (3, "x", None),
    (9, "1-0", 3), (9, "01-2", 5), (9, "2-", None), (9, "-1", None),
    (9, "1", None), (9, "1-0-0", None), (9, "3-0", None),
]


@pytest.mark.parametrize("q,tok,code", ODD_TOKENS)
def test_odd_tokens(q, tok, code, tmp_path):
    zero, one = ("0", "1") if q in (3, 5, 7) else ("0-0", "0-1")
    pts, lns = tmp_path / "s.pts", tmp_path / "f.lines"
    pts.write_text(f"{q} 3 points\n{tok} {zero} {tok}\n")
    lns.write_text(f"{q} 3 lines\n{one} {zero} {zero} {zero} {tok} {zero}\n")
    if code is None:
        with pytest.raises(FormatError, match="bad element token"):
            load_pointset(str(pts))
        with pytest.raises(FormatError, match="bad element token"):
            load_linefamily(str(lns))
        return
    assert load_pointset(str(pts)).indices().tolist() == [code + code * q * q]
    sp = affine_space(q, 3)
    d = int(sp.proj.ids([1, 0, 0]))
    # the line's points (t, code, 0) have indices t + code*q, least at t = 0
    assert load_linefamily(str(lns)).lines.tolist() == [[d, code * q]]


def test_empty_files_load_empty(tmp_path):
    path = tmp_path / "e.pts"
    path.write_text("5 3 points\n")
    assert same_set(load_pointset(str(path)), PointSet(5, 3))
    path.write_text("4 3 lines\n\n")
    assert len(load_linefamily(str(path))) == 0


def test_format_errors(tmp_path):
    bad = tmp_path / "bad.pts"
    bad.write_text("3 3 wibble\n")
    with pytest.raises(FormatError):
        load_pointset(str(bad))
    bad.write_text("3 3 lines\n")
    with pytest.raises(FormatError):
        load_pointset(str(bad))
    bad.write_text("3 3 points\n1 2\n")
    with pytest.raises(FormatError):
        load_pointset(str(bad))
    bad.write_text("3 3 points\n1 2 7\n")
    with pytest.raises(FormatError):
        load_pointset(str(bad))


def test_linefamily_zero_direction(tmp_path):
    bad = tmp_path / "bad.lines"
    bad.write_text("3 3 lines\n1 0 0 0 0 0\n0 0 0 1 2 0\n")
    with pytest.raises(FormatError, match="zero direction"):
        load_linefamily(str(bad))


def test_rows_past_the_first_chunk(tmp_path):
    """Rows are read a chunk of about 4 KB at a time.  A chunk with a blank
    row or a token the writer does not make loads as the row-by-row
    reading does, and the first bad row's error is raised wherever it
    lies, whichever check it fails."""
    q = 5
    rows = [f"{a} {b} {c}\n" for a in range(q) for b in range(q) for c in range(q)] * 20
    path = tmp_path / "s.pts"
    odd = rows[:1500] + ["\n", "04 +1 3\n"] + rows[1500:]
    path.write_text(f"{q} 3 points\n" + "".join(odd))
    assert same_set(load_pointset(str(path)), PointSet.full(q))
    for first, second, message in [
        ("1 2 x\n", "1 2\n", "bad element token 'x'"),
        ("1 2\n", "1 2 x\n", r"point row needs 3 tokens: '1 2\\n'"),
        ("1 2 x\n", "1 2 y\n", "bad element token 'x'"),
    ]:
        path.write_text(f"{q} 3 points\n" + "".join(
            rows[:1200] + [first] + rows[1200:1210] + [second] + rows[1210:]))
        with pytest.raises(FormatError, match=message):
            load_pointset(str(path))
    path = tmp_path / "f.lines"
    lines = ["1 0 0 0 1 1\n"] * 1000
    path.write_text(f"{q} 3 lines\n" + "".join(
        lines[:900] + ["0 0 0 1 2 0\n", "1 0 0 0 1 x\n"] + lines[900:]))
    with pytest.raises(FormatError, match="zero direction"):
        load_linefamily(str(path))


DATA = Path(__file__).parent / "data"


def test_even_extension_field_files_match_committed_output(tmp_path):
    # GF(8) tokens are three base-2 digits; seeded sets pin both writers
    import random

    rng = random.Random(8)
    s = PointSet(8, 3, indices=rng.sample(range(512), 40))
    sp = affine_space(8, 3)
    pool = sp.all_lines()
    fam = LineFamily(sp, pool[rng.sample(range(len(pool)), 30)])
    save_pointset(s, str(tmp_path / "s.pts"))
    save_linefamily(fam, str(tmp_path / "f.lines"))
    assert (tmp_path / "s.pts").read_bytes() == (DATA / "points_q8_seed8.pts").read_bytes()
    assert (tmp_path / "f.lines").read_bytes() == (DATA / "lines_q8_seed8.lines").read_bytes()
    assert same_set(load_pointset(str(DATA / "points_q8_seed8.pts")), s)
    back = load_linefamily(str(DATA / "lines_q8_seed8.lines"))
    assert back.lines.tolist() == fam.lines.tolist()
