"""The batched line labels, the streamed verifiers and line enumerations
against an independent partition of AG(n,q) built line by line with
line_points, and the memory bound of the streamed verifiers."""
import json
import os
import random
import subprocess
import sys
import textwrap
from functools import lru_cache

import numpy as np
import pytest

import fqgeom
from fqgeom import geom
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
    assert sp.all_lines().tolist() == sorted([d, b] for d in range(sp.ndirs) for b in lines[d])
    for plane in range(0, sp.ndirs * q, q + 1):
        on_plane = set(sp.plane_points(plane).tolist())
        want = sorted([d, b] for d in range(sp.ndirs)
                      for b, pts in lines[d].items() if set(pts) <= on_plane)
        assert sp.lines_in_plane(plane).tolist() == want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", QS)
def test_line_labels_partition_points_into_lines(q, n):
    """Every direction's labels of all points name exactly the lines that
    line_points lists: label and least point determine each other."""
    sp = affine_space(q, n)
    labels = sp.line_labels(np.arange(sp.ndirs))
    assert labels.shape == (sp.ndirs, sp.npoints)
    assert labels.min() >= 0 and labels.max() < sp.nlabels
    for d in range(sp.ndirs):
        bases = sp.line_points(d, np.arange(sp.npoints)).min(axis=1)
        pairs = set(zip(labels[d].tolist(), bases.tolist()))
        assert len(pairs) == len(set(labels[d].tolist())) == len(set(bases.tolist())) == sp.nlabels


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", QS)
def test_batched_labels_match_single_direction_labels(q, n):
    """Labels of some points for a batch of directions, in any order and
    across leading coordinates, are the all-point labels of each direction
    read at those points."""
    sp = affine_space(q, n)
    rng = random.Random(100 * q + n)
    single = [sp.line_labels([d])[0] for d in range(sp.ndirs)]
    lead_starts = [(q ** j - 1) // (q - 1) for j in range(1, n)]
    batches = [list(range(sp.ndirs)), rng.sample(range(sp.ndirs), sp.ndirs)]
    batches += [list(range(max(0, s - 2), min(sp.ndirs, s + 2))) for s in lead_starts]
    batches += [[rng.randrange(sp.ndirs)], []]
    for pts in ([], sorted(rng.sample(range(sp.npoints), sp.npoints // 3)),
                list(range(sp.npoints))):
        coords = sp.point_coords(pts)
        for ids in batches:
            got = sp.line_labels(ids, coords)
            assert got.shape == (len(ids), len(pts))
            for row, d in zip(got, ids):
                assert row.tolist() == single[d][pts].tolist()


def _outcome(res):
    if isinstance(res, MissingDirections):
        return "missing", res.directions
    if isinstance(res, FailingPoints):
        return "failing", res.points
    if isinstance(res, KakeyaWitness):
        return "kakeya", list(res.lines.items())
    return "nikodym", list(res.assignment.items())


SWEEP_CASES = [(q, kind) for q in (3, 4, 5, 7, 8, 9)
               for kind in ("residue", "thin", "empty", "full", "full-minus",
                            "dense-random", "sparse-random")
               if q % 2 or kind not in ("residue", "thin")]


@pytest.mark.parametrize("q,kind", SWEEP_CASES)
def test_verifiers_ignore_the_cell_bound(q, kind, monkeypatch):
    """One direction per batch, the default bound and a single batch of all
    directions give the same outputs, with missing directions ascending."""
    pset = PointSet(q) if kind == "empty" else (
        PointSet.full(q) if kind == "full" else _pointset(q, kind))
    outcomes = []
    for cells in (1, geom.KAKEYA_CELLS, 1 << 30):
        monkeypatch.setattr(geom, "KAKEYA_CELLS", cells)
        outcomes.append((_outcome(verify_kakeya(pset)), _outcome(verify_nikodym(pset))))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    (kind_k, found), _ = outcomes[0]
    keys = found if kind_k == "missing" else [d for d, _ in found]
    assert keys == sorted(keys)
    if kind == "empty":
        assert outcomes[0][0] == ("missing", list(range(q * q + q + 1)))


def _sided_pointset(q, kind):
    """Sets that make verify_kakeya label one side or the other: the residue
    set (a Kakeya set of under q^3/2 points for odd q >= 5; none for the
    other q) and seeded lines, filled at random to just below, at or just
    above q^3/2 points;
    AG(3,q) minus a point of every line of one direction, which misses it;
    and AG(3,q) minus the greatest point of each of the first q lines in
    direction (1,0,0), where the least contained line of that direction
    starts at the last point the complement side reads."""
    sp = affine_space(q, 3)
    rng = random.Random(10 * q + len(kind))
    if kind.startswith("half"):
        size = q ** 3 // 2 + {"half-below": -1, "half": 0, "half-above": 1}[kind]
        mask = (build_quadratic_residue_set(q).mask if q % 2 and q > 3
                else np.zeros(q ** 3, dtype=bool))
        for d in rng.sample(range(sp.ndirs), sp.ndirs):
            line = sp.line_points(d, rng.randrange(q ** 3))
            if np.count_nonzero(mask | np.isin(np.arange(q ** 3), line)) > size:
                break
            mask[line] = True
        mask[rng.sample(np.flatnonzero(~mask).tolist(), size - np.count_nonzero(mask))] = True
        return PointSet.from_mask(q, 3, mask)
    pset = PointSet.full(q)
    if kind == "blocked":
        d = rng.randrange(sp.ndirs)
        bases = np.unique(sp.line_points(d, np.arange(q ** 3)).min(axis=1))
        pset.mask[sp.line_points(d, bases)[np.arange(q * q), rng.choices(range(q), k=q * q)]] = False
    else:  # "hit-first"
        pset.mask[np.arange(q) * q + q - 1] = False
    return pset


@pytest.mark.parametrize("kind", ["half-below", "half", "half-above", "blocked", "hit-first"])
@pytest.mark.parametrize("q", QS)
def test_kakeya_sides_match_reference(q, kind, monkeypatch):
    """Counting the set's points or the complement's gives the reference
    witnesses and missing directions, at any batch size."""
    pset = _sided_pointset(q, kind)
    # the complement is counted when it is the smaller side (at q = 2 the
    # blocked set is a tie, and ties count the set)
    comp_side = kind in ("half-above", "hit-first") or (kind == "blocked" and q > 2)
    assert (np.count_nonzero(~pset.mask) < len(pset)) == comp_side
    witness, missing = reference_kakeya(pset)
    if kind == "blocked":
        assert missing
    if kind.startswith("half") and q % 2 and q > 3:
        assert not missing
    if kind == "hit-first":
        d = int(affine_space(q, 3).proj.ids([1, 0, 0]))
        assert witness[d] == (d, q * q)
        assert list(pset.indices()).index(q * q) == q * (q - 1)
    for cells in (1, geom.KAKEYA_CELLS, 1 << 30):
        monkeypatch.setattr(geom, "KAKEYA_CELLS", cells)
        got = verify_kakeya(pset)
        if missing:
            assert isinstance(got, MissingDirections) and got.directions == missing
        else:
            assert isinstance(got, KakeyaWitness)
            assert list(got.lines.items()) == list(witness.items())


@pytest.mark.parametrize("kind", ["half-below", "half", "half-above", "blocked", "hit-first"])
@pytest.mark.parametrize("q", QS)
def test_nikodym_sides_match_reference(q, kind, monkeypatch):
    """Labelling the set (the half sets up to q^3/2 points) or sweeping
    every point against the complement gives the reference assignment, in
    its order, or the reference failing points, at any batch size."""
    pset = _sided_pointset(q, kind)
    assignment, failing = reference_nikodym(pset)
    for cells in (1, geom.KAKEYA_CELLS, 1 << 30):
        monkeypatch.setattr(geom, "KAKEYA_CELLS", cells)
        got = verify_nikodym(pset)
        if failing:
            assert isinstance(got, FailingPoints) and got.points == failing
        else:
            assert isinstance(got, NikodymWitness)
            assert list(got.assignment.items()) == list(assignment.items())


def test_nikodym_set_side_witness(monkeypatch):
    """The plane x3 = 0 of AG(3,2) holds q^3/2 points, so its set is
    labelled; every point above it takes the vertical line through it."""
    pset = PointSet(2, 3, range(4))
    for cells in (1, geom.KAKEYA_CELLS):
        monkeypatch.setattr(geom, "KAKEYA_CELLS", cells)
        got = verify_nikodym(pset)
        assert isinstance(got, NikodymWitness)
        assert list(got.assignment.items()) == [(4, (0, 0)), (5, (0, 1)), (6, (0, 2)), (7, (0, 3))]


_CHILD = textwrap.dedent("""
    import json, random
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
    # VmHWM is this process's own peak, which ru_maxrss is not: it carries
    # the peak of the process that forked it across exec
    with open("/proc/self/status") as fh:
        out["maxrss_kb"] = next(int(line.split()[1]) for line in fh
                                if line.startswith("VmHWM:"))
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
