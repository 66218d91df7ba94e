"""The streamed verifiers and line enumerations against an independent
partition of AG(3,q) built line by line with line_points, and the
memory bound of the streamed verifiers."""
import json
import os
import random
import subprocess
import sys
import textwrap
from functools import lru_cache

import pytest

import fqgeom
from fqgeom.geom import PointSet, affine_space
from fqgeom.kakeya import (
    KakeyaWitness,
    MissingDirections,
    build_quadratic_residue_set,
    build_thin_kakeya_set,
    verify_kakeya,
)
from fqgeom.nikodym import FailingPoints, NikodymWitness, verify_nikodym

QS = [2, 3, 4, 5, 7, 8, 9]  # primes, GF(4), GF(8), GF(9)


@lru_cache(maxsize=None)
def scalar_lines(q):
    """Per direction, the lines as {base: points}, where base is the least
    point; each line is found from its least point by line_points."""
    sp = affine_space(q, 3)
    out = []
    for d in range(sp.ndirs):
        lines = {}
        covered = set()
        for p in range(sp.npoints):
            if p not in covered:
                pts = sp.line_points(d, p)
                covered.update(pts)
                lines[min(pts)] = pts
        out.append(lines)
    return out


def reference_kakeya(pset):
    """Per direction, the first point in index order whose line lies in the
    set; that point is the least point of its line."""
    witness, missing = {}, []
    for d, lines in enumerate(scalar_lines(pset.q)):
        base_of = {p: b for b, pts in lines.items() for p in pts}
        hit = next((p for p in range(pset.q ** 3)
                    if all(pset.mask[x] for x in lines[base_of[p]])), None)
        if hit is None:
            missing.append(d)
        else:
            witness[d] = (d, base_of[hit])
    return witness, missing


def reference_nikodym(pset):
    """For each direction in order, the points whose line meets the
    complement in at most themselves; a complement point takes the line of
    the first direction that qualifies."""
    comp = ~pset.mask
    ok = set()
    assignment = {}
    for d, lines in enumerate(scalar_lines(pset.q)):
        good = set()
        for base, pts in lines.items():
            outside = [x for x in pts if comp[x]]
            if len(outside) == 0:
                good.update(pts)
            elif len(outside) == 1:
                p = outside[0]
                good.add(p)
                if p not in ok:
                    assignment[p] = (d, base)
        ok |= good
    assignment = dict(sorted(assignment.items(), key=lambda kv: (kv[1][0], kv[0])))
    failing = [p for p in range(pset.q ** 3) if p not in ok]
    return assignment, failing


def _pointset(q, kind):
    rng = random.Random(1000 * q + len(kind))
    if kind == "residue":
        return build_quadratic_residue_set(q)
    if kind == "thin":
        return build_thin_kakeya_set(q)
    if kind == "full-minus":
        s = PointSet.full(q)
        for p in rng.sample(range(q ** 3), 2 * q):
            s.discard(p)
        return s
    density = 0.85 if kind == "dense-random" else 0.5
    return PointSet(q, 3, [p for p in range(q ** 3) if rng.random() < density])


CASES = [(q, kind) for q in QS
         for kind in ("residue", "thin", "full-minus", "dense-random", "sparse-random")
         if q % 2 or kind not in ("residue", "thin")]


@pytest.mark.parametrize("q,kind", CASES)
def test_verifiers_match_scalar_lines(q, kind):
    pset = _pointset(q, kind)
    witness, missing = reference_kakeya(pset)
    got = verify_kakeya(pset)
    if missing:
        assert isinstance(got, MissingDirections)
        assert got.directions == missing
    else:
        assert isinstance(got, KakeyaWitness)
        assert list(got.lines.items()) == list(witness.items())

    assignment, failing = reference_nikodym(pset)
    got = verify_nikodym(pset)
    if failing:
        assert isinstance(got, FailingPoints)
        assert got.points == failing
    else:
        assert isinstance(got, NikodymWitness)
        assert list(got.assignment.items()) == list(assignment.items())


def test_verifiers_at_q32():
    """Both verifiers run over GF(2^5): AG(3,32) minus 64 seeded points is
    Kakeya through lines inside the set, and Nikodym with exactly the
    removed points assigned, each to a line through it."""
    q = 32
    pset = PointSet.full(q)
    removed = random.Random(32).sample(range(q ** 3), 64)
    for p in removed:
        pset.discard(p)
    sp = affine_space(q, 3)
    got = verify_kakeya(pset)
    assert isinstance(got, KakeyaWitness)
    assert sorted(got.lines) == list(range(sp.ndirs))
    dirs, bases = zip(*got.lines.values())
    assert pset.mask[sp.line_points(dirs, bases)].all()
    got = verify_nikodym(pset)
    assert isinstance(got, NikodymWitness)
    assert sorted(got.assignment) == sorted(removed)
    for p, (d, base) in got.assignment.items():
        pts = sp.line_points(d, base).tolist()
        assert p in pts and all(pset.mask[x] for x in pts if x != p)


@pytest.mark.parametrize("q", QS)
def test_line_enumerations_match_scalar_lines(q):
    sp = affine_space(q, 3)
    lines = scalar_lines(q)
    assert sp.all_lines() == sorted((d, b) for d in range(sp.ndirs) for b in lines[d])
    for plane in sp.all_planes()[:: q + 1]:
        on_plane = set(sp.plane_points(plane))
        want = sorted((d, b) for d in range(sp.ndirs)
                      for b, pts in lines[d].items() if set(pts) <= on_plane)
        assert sp.lines_in_plane(plane) == want


_CHILD = textwrap.dedent("""
    import json, random, resource
    from fqgeom.geom import PointSet
    from fqgeom.kakeya import build_quadratic_residue_set, verify_kakeya
    from fqgeom.nikodym import verify_nikodym

    out = {}
    residue = build_quadratic_residue_set(23)
    out["kakeya-23"] = type(verify_kakeya(residue)).__name__
    out["nikodym-23"] = type(verify_nikodym(residue)).__name__
    full = PointSet.full(25)
    removed = random.Random(25).sample(range(25 ** 3), 50)
    for p in removed:
        full.discard(p)
    out["kakeya-25"] = type(verify_kakeya(full)).__name__
    nik = verify_nikodym(full)
    out["nikodym-25"] = sorted(nik.assignment) == sorted(removed)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
""")


def test_verifier_memory_bound():
    """Both verifiers at q = 23 and q = 25 stay under 150 MB peak RSS;
    cached whole-direction line tables would take over 1 GB at q = 23."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["kakeya-23"] == "KakeyaWitness"
    assert out["nikodym-23"] == "FailingPoints"
    assert out["kakeya-25"] == "KakeyaWitness"
    assert out["nikodym-25"] is True
    assert out["maxrss_kb"] < 150 * 1024
