import pytest

from fqgeom.geom import LineFamily, PointSet, affine_space
from fqgeom.io import (
    FormatError,
    load_linefamily,
    load_pointset,
    load_poly,
    save_linefamily,
    save_pointset,
    save_poly,
)
from fqgeom.poly import MonomialBasis, MultiPoly


@pytest.mark.parametrize("q,n", [(3, 3), (5, 2), (4, 3), (9, 3)])
def test_pointset_roundtrip(q, n, tmp_path):
    import random

    rng = random.Random(q * 10 + n)
    s = PointSet(q, n, indices=rng.sample(range(q ** n), min(q ** n, 17)))
    path = tmp_path / "set.pts"
    save_pointset(s, str(path))
    assert load_pointset(str(path)) == s


@pytest.mark.parametrize("q", [3, 4])
def test_linefamily_roundtrip(q, tmp_path):
    sp = affine_space(q, 3)
    fam = LineFamily(sp, sp.all_lines()[:25])
    path = tmp_path / "fam.lines"
    save_linefamily(fam, str(path))
    back = load_linefamily(str(path))
    assert back.lines() == fam.lines()


def test_extension_field_tokens(tmp_path):
    # GF(4) elements are written as two base-2 digits joined by '-'
    s = PointSet(4, 3, indices=[0, 63])
    path = tmp_path / "s.pts"
    save_pointset(s, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "4 3 points"
    assert text[1] == "0-0 0-0 0-0"
    assert text[2] == "1-1 1-1 1-1"


def test_poly_roundtrip(tmp_path):
    basis = MonomialBasis(3, 3, 2)
    g = MultiPoly.from_dict(basis, {(1, 1, 0): 2, (0, 0, 0): 1})
    path = tmp_path / "g.poly"
    save_poly(g, str(path))
    back = load_poly(str(path), 2)
    assert back.support() == g.support()


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
