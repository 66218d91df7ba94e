from pathlib import Path

import numpy as np
import pytest

from fqgeom import gf, io
from fqgeom.geom import LineFamily, PointSet, affine_space
from fqgeom.gf import field_of_order
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


def reference_body(q, rows):
    """The rows as the format defines them, formatted one row at a time."""
    ctx = field_of_order(q)
    tokens = ["-".join(map(str, reversed(ctx.decode(a)))) for a in range(q)]
    return "".join(" ".join(tokens[a] for a in row) + "\n" for row in rows)


def seeded_files(q, n, tmp_path, size=300):
    """A seeded point set and line family of AG(n,q), saved; their expected
    file texts from the per-row reference formatter."""
    import random

    rng = random.Random(q * 10 + n)
    sp = affine_space(q, n)
    s = PointSet(q, n, indices=rng.sample(range(q ** n), min(size, q ** n)))
    dirs = rng.choices(range(sp.ndirs), k=size)
    bases = sp.line_points(dirs, rng.choices(range(q ** n), k=size)).min(axis=1)
    fam = LineFamily(sp, np.stack([dirs, bases], axis=1))
    pts, lns = tmp_path / f"s{q}.pts", tmp_path / f"f{q}.lines"
    save_pointset(s, str(pts))
    save_linefamily(fam, str(lns))
    point_rows = sp.point_coords(s.indices()).T
    line_rows = np.concatenate([sp.proj.array[fam.lines[:, 0]],
                                sp.point_coords(fam.lines[:, 1]).T], axis=1)
    return s, fam, pts, lns, (f"{q} {n} points\n" + reference_body(q, point_rows),
                              f"{q} {n} lines\n" + reference_body(q, line_rows))


def no_row_parser(*args):
    raise AssertionError("a block in the writer's format went to the row parser")


@pytest.mark.parametrize("q,n", [(2, 3), (5, 3), (9, 3), (13, 3), (16, 3), (25, 3),
                                 (125, 2), (1021, 2), (1024, 2)])
def test_writer_matches_reference_and_round_trips(q, n, tmp_path, monkeypatch):
    """Both writers give the per-row reference text, from one-digit tokens up
    to the 4-digit tokens of GF(1021) and the 10 digit groups of GF(1024);
    the files load back by the array route alone and save to the same
    bytes."""
    s, fam, pts, lns, (pts_text, lns_text) = seeded_files(q, n, tmp_path)
    assert pts.read_text() == pts_text and lns.read_text() == lns_text
    monkeypatch.setattr(io, "_parse_rows", no_row_parser)
    s2, fam2 = load_pointset(str(pts)), load_linefamily(str(lns))
    assert same_set(s2, s) and fam2.lines.tolist() == fam.lines.tolist()
    save_pointset(s2, str(tmp_path / "again.pts"))
    save_linefamily(fam2, str(tmp_path / "again.lines"))
    assert (tmp_path / "again.pts").read_bytes() == pts.read_bytes()
    assert (tmp_path / "again.lines").read_bytes() == lns.read_bytes()


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 14])
def test_blocks_end_inside_rows(block, tmp_path, monkeypatch):
    """A block ends wherever the character budget does, then runs on to the
    end of that row: any budget loads the same rows by the array route."""
    monkeypatch.setattr(gf, "BLOCK_BYTES", 16 * block)  # 16 bytes a character
    monkeypatch.setattr(io, "_parse_rows", no_row_parser)
    for q, n in [(7, 3), (9, 3), (1021, 2)]:
        s, fam, pts, lns, _ = seeded_files(q, n, tmp_path, size=100)
        assert same_set(load_pointset(str(pts)), s)
        assert load_linefamily(str(lns)).lines.tolist() == fam.lines.tolist()


ODD_TAILS = {
    "leading zeros": "01 2 3\n0 0 10\n",
    "tabs": "1\t2\t3\n0 0\t10\n",
    "CRLF": "1 2 3\r\n0 0 10\r\n",
    "blank rows": "\n1 2 3\n\n  \n0 0 10\n",
    "no final newline": "1 2 3\n0 0 10",
    "surrounding spaces": " 1 2 3\n0  0 10 \n",
}


@pytest.mark.parametrize("tail", sorted(ODD_TAILS))
def test_canonical_block_then_odd_block(tail, tmp_path, monkeypatch):
    """Blocks in the writer's format take the array route and the others the
    row parser, and the file loads to the same set either way."""
    q = 11
    head = "".join(f"{a} {b} {c}\n" for a in range(q) for b in range(q) for c in range(3))
    path = tmp_path / "s.pts"
    path.write_text(f"{q} 3 points\n" + head + ODD_TAILS[tail])
    want = PointSet(q, 3, indices=[a + q * b + q * q * c for a in range(q) for b in range(q)
                                   for c in range(3)] + [1 + 2 * q + 3 * q * q, 10 * q * q])
    calls = []
    parse_rows = io._parse_rows
    monkeypatch.setattr(io, "_parse_rows", lambda *a: calls.append(1) or parse_rows(*a))
    # one block of the head, then the tail, at 16 bytes a character
    monkeypatch.setattr(gf, "BLOCK_BYTES", 16 * (len(head) - 1))
    assert same_set(load_pointset(str(path)), want)
    # universal newlines make CRLF rows canonical by the time they are decoded
    assert len(calls) == (tail != "CRLF")


@pytest.mark.parametrize("body", ["1 2 é\n", "1 2 3\né 1 2\n"])
def test_non_ascii_text_raises_format_errors(body, tmp_path):
    path = tmp_path / "s.pts"
    path.write_text("5 3 points\n" + body, encoding="utf-8")
    with pytest.raises(FormatError, match="bad element token"):
        load_pointset(str(path))


def test_undecodable_bytes_raise_unicode_errors(tmp_path):
    path = tmp_path / "s.pts"
    path.write_bytes(b"5 3 points\n1 2 3\n1 \xff 3\n")
    with pytest.raises(UnicodeDecodeError):
        load_pointset(str(path))


_IMPORTS_CHILD = """
import json, sys, tempfile, os
from fqgeom.geom import LineFamily, affine_space
from fqgeom.io import load_linefamily, load_pointset, save_linefamily, save_pointset
from fqgeom.kakeya import build_quadratic_residue_set, verify_kakeya
from fqgeom.nikodym import verify_nikodym

with tempfile.TemporaryDirectory() as tmp:
    K = build_quadratic_residue_set(7)
    save_pointset(K, os.path.join(tmp, "k.pts"))
    K = load_pointset(os.path.join(tmp, "k.pts"))
    w = verify_kakeya(K)
    fam = LineFamily(affine_space(7, 3), w.lines.values())
    save_linefamily(fam, os.path.join(tmp, "k.lines"))
    load_linefamily(os.path.join(tmp, "k.lines"))
    verify_nikodym(K)
print(json.dumps(sorted(m for m in ("numpy.ma", "gzip") if m in sys.modules)))
"""


def test_io_and_verifiers_import_no_peak_memory_traps():
    """Saving, loading and verifying import neither numpy.ma (np.unique
    pulls it in) nor gzip (np.loadtxt does): each raises a fresh process's
    peak memory by hundreds of KB."""
    import json
    import os
    import subprocess
    import sys

    import fqgeom

    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []


_LOAD_CHILD = """
import json, sys
from fqgeom.geom import LineFamily, affine_space
from fqgeom.io import load_linefamily, save_linefamily

def status(key):
    # VmHWM is this process's own peak, which ru_maxrss is not
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

sp = affine_space(4, 3)
save_linefamily(LineFamily(sp, sp.all_lines()), sys.argv[2])
load_linefamily(sys.argv[2])  # warm numpy's loops
before = status("VmRSS")
fam = load_linefamily(sys.argv[1])
print(json.dumps({"ids_bytes": fam.lines.nbytes, "grown_kb": status("VmHWM") - before}))
"""


def test_load_linefamily_memory_bound(tmp_path):
    """Loading 90,000 seeded lines of AG(3,49), about as many as the affine
    chart of the q = 49, alpha = 1/8 tangent family has ((L, 2) ids 1.4 MB),
    grows the process's peak by less than 12 times their ids: each block of
    rows becomes (direction, least point) rows as it is read, by line_base.
    Listing the q points of every line to take their least grew it by
    about 80 times."""
    import json
    import os
    import subprocess
    import sys

    import fqgeom

    sp = affine_space(49, 3)
    rng = np.random.default_rng(49)
    dirs, pts = rng.integers(0, sp.ndirs, 90000), rng.integers(0, 49 ** 3, 90000)
    # a line's least point is its point with x_m = 0, m its direction's base axis
    low = 49 ** sp.base_axis[dirs]
    fam = LineFamily(sp, np.stack([dirs, pts - pts // low % 49 * low], axis=1))
    path = tmp_path / "lines.lines"
    save_linefamily(fam, str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOAD_CHILD, str(path), str(tmp_path / "warm.lines")],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["ids_bytes"] == fam.lines.nbytes > 89000 * 16
    assert out["grown_kb"] * 1024 < 12 * out["ids_bytes"]
    assert np.array_equal(load_linefamily(str(path)).lines, fam.lines)
