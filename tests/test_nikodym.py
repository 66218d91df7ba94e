import json
import math
import random

import pytest

from fqgeom.geom import LineFamily, PointSet, affine_space
from fqgeom.nikodym import (
    FailingPoints,
    GeneratorInfeasible,
    NikodymWitness,
    NotNikodym,
    TooFewLines,
    build_conic_dual_line_family,
    conjecture_harness,
    coplanar_line_bound_check,
    golden_ratio_threshold,
    nikodym_complement_bound_check,
    union_lower_bound_check,
    verify_nikodym,
    write_records,
)


def test_full_space_valid():
    res = verify_nikodym(PointSet.full(3))
    assert isinstance(res, NikodymWitness)
    assert res.assignment == {}


def test_empty_set_fails_everywhere():
    res = verify_nikodym(PointSet(3, 3))
    assert isinstance(res, FailingPoints)
    assert len(res.points) == 27


def test_space_minus_one_point():
    s = PointSet.full(3)
    s.discard(5)
    res = verify_nikodym(s)
    assert isinstance(res, NikodymWitness)
    assert set(res.assignment) == {5}
    sp = affine_space(3, 3)
    d, base = res.assignment[5]
    pts = sp.line_points(d, base)
    assert 5 in pts
    assert all(s.mask[p] for p in pts if p != 5)


def test_witness_lines_single_intersection():
    q = 4
    rng = random.Random(1)
    s = PointSet.full(q)
    for i in rng.sample(range(q ** 3), 5):
        s.discard(i)
    res = verify_nikodym(s)
    if isinstance(res, NikodymWitness):
        sp = affine_space(q, 3)
        lines = list(res.assignment.values())
        assert len(set(lines)) == len(lines)  # injective
        for p, ln in res.assignment.items():
            pts = sp.line_points(*ln)
            assert sum(1 for x in pts if not s.mask[x]) == 1
            assert not s.mask[p] and p in pts


def test_planar_slab_not_nikodym_for_far_points():
    # a single plane can't serve points far outside it at q=3
    q = 3
    sp = affine_space(q, 3)
    s = PointSet(q, 3, indices=sp.plane_points(sp.all_planes()[0]))
    res = verify_nikodym(s)
    assert isinstance(res, FailingPoints)
    assert res.points


def test_union_of_lines_counts():
    sp = affine_space(3, 3)
    one = LineFamily(sp, [sp.canonical_line(0, 0)])
    assert len(one.union_points()) == 3
    l1 = sp.canonical_line(0, 0)
    l2 = sp.canonical_line(1, 0)
    two = LineFamily(sp, [l1, l2])
    assert len(two.union_points()) == 5  # intersecting at the origin


@pytest.mark.parametrize("q,k", [(5, 3), (7, 4), (13, 8)])
def test_conic_dual_family_identities(q, k):
    fam, rep = build_conic_dual_line_family(q)
    assert rep["k"] == k
    assert rep["max_dual_coincidence"] == 2
    assert rep["nL"] == k * q * (q + 1) - math.comb(k, 2)
    assert rep["nP"] == k * q * q - (q - 1) * math.comb(k, 2) - (k - 1)
    assert len(fam) == rep["nL"]


def test_conic_dual_member_plane_occupancy():
    q = 5
    fam, rep = build_conic_dual_line_family(q)
    _, occ = fam.max_plane_occupancy()
    assert occ == q * (q + 1)  # a member plane holds all its lines


def test_union_lower_bound_conic_and_random():
    fam, _ = build_conic_dual_line_family(13)
    rep = union_lower_bound_check(fam)
    assert rep["measured"] >= rep["implied_lower_bound"]
    sp = affine_space(7, 3)
    rng = random.Random(1)
    pool = sp.all_lines()
    rng.shuffle(pool)
    fam2 = LineFamily(sp, pool[: int(0.62 * 343) + 1])
    rep2 = union_lower_bound_check(fam2)
    assert rep2["measured"] >= rep2["implied_lower_bound"]


def test_union_lower_bound_too_few():
    sp = affine_space(5, 3)
    fam = LineFamily(sp, sp.all_lines()[:10])
    with pytest.raises(TooFewLines):
        union_lower_bound_check(fam)


def test_golden_ratio_root():
    root = golden_ratio_threshold()
    assert abs(root - (math.sqrt(5) - 1) / 2) < 1e-8
    assert abs(root * root + root - 1) < 1e-10
    # limit inequality: x <= (1-x)x + x*sqrt(1-x)
    f = lambda x: (1 - x) * x + x * math.sqrt(1 - x) - x
    assert f(0.5) > 0
    assert f(0.63) < 0


def test_complement_bound_check():
    q = 5
    rng = random.Random(2)
    s = PointSet.full(q)
    for i in rng.sample(range(q ** 3), 6):
        s.discard(i)
    rep = nikodym_complement_bound_check(s)
    assert rep["witness_incidences"] == (q - 1) * rep["complement"]
    assert rep["mixing_holds"]
    full = nikodym_complement_bound_check(PointSet.full(q))
    assert full["complement_ratio"] == 0
    with pytest.raises(NotNikodym):
        nikodym_complement_bound_check(PointSet(q, 3))


def test_coplanar_bound():
    q = 4
    rng = random.Random(3)
    s = PointSet.full(q)
    for i in rng.sample(range(q ** 3), 4):
        s.discard(i)
    res = verify_nikodym(s)
    assert isinstance(res, NikodymWitness)
    rep = coplanar_line_bound_check(res)
    assert rep["max_occupancy"] <= rep["bound"]
    assert rep["bound"] == pytest.approx(q ** 1.5 + 1 + q)


def test_harness_reproducible(tmp_path):
    a = conjecture_harness("uniform", 3, 3, seed=11, n_lines=20)
    b = conjecture_harness("uniform", 3, 3, seed=11, n_lines=20)
    assert [r.to_record() for r in a] == [r.to_record() for r in b]
    path = tmp_path / "recs.jsonl"
    write_records(a, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) >= {"q", "generator", "seed", "nL", "maxPlaneOccupancy",
                        "nPL", "ratio"}


def test_harness_generators():
    for gen in ("plane-capped", "conic-dual"):
        recs = conjecture_harness(gen, 5, 1, seed=2, n_lines=30)
        assert len(recs) == 1
        assert recs[0].n_covered <= 125
    herm = conjecture_harness("hermitian", 4, 1, seed=2)
    assert herm[0].extra["uncovered"] == 23


def test_harness_empty_family():
    # a count below 1 is refused before any draw: a negative one would
    # slice the shuffled pool from its end, and 0 asks for no family
    for n_lines in (0, -5):
        for generator in ("uniform", "plane-capped"):
            with pytest.raises(GeneratorInfeasible, match="not positive"):
                conjecture_harness(generator, 3, 1, seed=0, n_lines=n_lines)


def test_harness_infeasible():
    with pytest.raises(GeneratorInfeasible):
        conjecture_harness("plane-capped", 3, 1, seed=0, n_lines=100, plane_cap=1)
    with pytest.raises(GeneratorInfeasible):
        conjecture_harness("hermitian", 5, 1, seed=0)


def test_harness_cap_two_is_infeasible_at_q5():
    with pytest.raises(GeneratorInfeasible, match="admits only 38 of 55"):
        conjecture_harness("plane-capped", 5, 1, seed=7, plane_cap=2)
