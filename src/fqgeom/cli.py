"""Command-line front end: reproducible runs of the constructions and
checks, with deterministic JSON (or CSV) reports.

Exit codes: 0 all asserted checks pass; 1 an asserted check failed;
2 configuration error; 3 out of memory.  Reported-only quantities never
affect the exit code.  Reports embed their own config; identical configs
produce byte-identical reports (timing goes to a sidecar file).
"""
from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _row(name: str, claim: str, status: str, **values) -> dict:
    if status not in ("pass", "fail", "reported"):
        raise AssertionError(f"row status {status!r} is not pass, fail or reported")
    return {"name": name, "claim": claim, "status": status, "values": values}


def _finish(report: dict, args, start: float) -> int:
    rows = report.get("rows", [])
    report["schema"] = SCHEMA_VERSION
    failed = [r["name"] for r in rows if r["status"] == "fail"]
    report["failed"] = failed
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    out_path = getattr(args, "report", None)
    if getattr(args, "format", "json") == "csv":
        buf = _io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "status", "claim", "values"])
        for r in rows:
            w.writerow([r["name"], r["status"], r["claim"],
                        json.dumps(r["values"], sort_keys=True, default=str)])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        with open(out_path + ".timing", "w") as fh:
            fh.write(f"{time.time() - start:.3f}\n")
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: str(v) for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def cmd_poly_count(args) -> dict:
    from .gf import prime_power
    from .poly import count_capped_monomials

    prime_power(args.q)  # NonPrime, exit 2, when there is no field of order q
    m = Fraction(args.m)
    n = count_capped_monomials(args.n, args.q, m)
    return {"rows": [], "result": n}


# ---------------------------------------------------------------------------
# kakeya
# ---------------------------------------------------------------------------

def cmd_kakeya_build(args) -> dict:
    from . import kakeya
    from .io import save_pointset

    build = {"qr": kakeya.build_quadratic_residue_set, "thin": kakeya.build_thin_kakeya_set}
    if args.construction not in build:
        raise ConfigError(f"unknown construction {args.construction!r}")
    q = args.q
    K = build[args.construction](q)
    if args.out:
        save_pointset(K, args.out)
    # both constructions build the residue set, of exact size qr_set_size
    holds = len(K) == kakeya.qr_set_size(q)
    return {"rows": [
        _row("kakeya-build", "construction yields a point set of the stated exact size",
             "pass" if holds else "fail", q=q, construction=args.construction, size=len(K)),
    ]}


def cmd_kakeya_verify(args) -> dict:
    from .io import load_pointset
    from .kakeya import KakeyaWitness, verify_kakeya

    pset = load_pointset(getattr(args, "in"))
    res = verify_kakeya(pset)
    ok = isinstance(res, KakeyaWitness)
    values = {"q": pset.q, "size": len(pset)}
    if not ok:
        values["missing_directions"] = len(res.directions)
    return {"rows": [
        _row("kakeya-verify", "the set contains a full line in every direction",
             "pass" if ok else "fail", **values),
    ]}


def cmd_kakeya_pipeline(args) -> dict:
    from .kakeya import fractional_pipeline

    rep = fractional_pipeline(args.q, args.u, Fraction(args.alpha), args.seed,
                              construction=args.construction)
    return {"rows": [
        _row("kakeya-pipeline",
             "fractional-multiplicity interpolation run reports its terminal stage",
             "reported", **rep.to_dict()),
    ]}


def cmd_kakeya_optimize(args) -> dict:
    from .kakeya import fractional_coefficient, optimize_fractional_bound

    m, c, detail = optimize_fractional_bound()
    exact_at_2 = fractional_coefficient(2, 2)
    return {"rows": [
        _row("kakeya-optimize",
             "optimal fractional-bound coefficient exceeds the integer bound 5/24",
             "pass" if c > float(exact_at_2) else "fail",
             m_star=m, coefficient=c, integer_coefficient=str(exact_at_2)),
    ]}


# ---------------------------------------------------------------------------
# nikodym
# ---------------------------------------------------------------------------

def cmd_nikodym_verify(args) -> dict:
    from .io import load_pointset
    from .nikodym import NikodymWitness, verify_nikodym

    pset = load_pointset(getattr(args, "in"))
    res = verify_nikodym(pset)
    ok = isinstance(res, NikodymWitness)
    values = {"q": pset.q, "size": len(pset)}
    if ok:
        values["complement"] = len(res.assignment)
        if args.extract_witness:
            sp_lines = {str(p): list(ln) for p, ln in sorted(res.assignment.items())}
            with open(args.extract_witness, "w") as fh:
                json.dump({"q": pset.q, "assignment": sp_lines}, fh, sort_keys=True)
    else:
        values["failing_points"] = len(res.points)
    return {"rows": [
        _row("nikodym-verify",
             "through every point some line meets the complement only at that point",
             "pass" if ok else "fail", **values),
    ]}


def cmd_nikodym_conic(args) -> dict:
    from .nikodym import build_conic_dual_line_family

    fam, rep = build_conic_dual_line_family(args.q, Fraction(args.fraction))
    ok = rep["nL"] == rep["nL_identity"] and rep["nP"] == rep["nP_identity"]
    return {"rows": [
        _row("nikodym-conic-family",
             "plane family from conic-dual normals has no three planes sharing "
             "a line; line and point counts match the inclusion-exclusion identities",
             "pass" if ok and rep["max_dual_coincidence"] <= 2 else "fail", **rep),
    ]}


def cmd_nikodym_threshold(args) -> dict:
    from .nikodym import golden_ratio_threshold

    root = golden_ratio_threshold()
    ok = abs(root * root + root - 1) < 1e-10
    return {"rows": [
        _row("nikodym-threshold",
             "critical complement density solves x^2 + x - 1 = 0",
             "pass" if ok else "fail", root=root),
    ]}


def cmd_nikodym_harness(args) -> dict:
    from .nikodym import conjecture_harness, write_records

    recs = conjecture_harness(
        args.generator, args.q, args.trials, args.seed,
        n_lines=args.lines, plane_cap=args.plane_cap,
        alpha=Fraction(args.alpha), alarm_ratio=args.alarm_ratio,
    )
    if args.out:
        write_records(recs, args.out)
    return {"rows": [
        _row("nikodym-harness",
             "coverage ratio of capped line families, alarms reported only",
             "reported", records=len(recs),
             alarms=sum(1 for r in recs if r.alarm)),
    ]}


# ---------------------------------------------------------------------------
# hermitian
# ---------------------------------------------------------------------------

def cmd_hermitian_build(args) -> dict:
    from .hermitian import build_hermitian, phi

    V = build_hermitian(args.p, args.n)
    expect = phi(args.n, V.q)
    npoints = int(V.mask.sum())
    return {"rows": [
        _row("hermitian-build",
             "identity-matrix variety point count matches the closed formula",
             "pass" if npoints == expect else "fail",
             q=V.q, n=args.n, points=npoints, formula=expect, rank=args.n + 1),
    ]}


def cmd_hermitian_tangent(args) -> dict:
    from .hermitian import affine_chart_family, build_hermitian, build_tangent_line_family
    from .io import save_linefamily

    V = build_hermitian(args.p, 3)
    fam, rep = build_tangent_line_family(V, Fraction(args.alpha), args.seed)
    ok = rep["nL"] == rep["nL_expected"]
    if args.out:
        save_linefamily(affine_chart_family(fam), args.out)
    return {"rows": [
        _row("hermitian-tangent-family",
             "distinct tangent lines, one bundle per sampled variety point; "
             "unsampled variety points stay uncovered",
             "pass" if ok else "fail", **rep),
    ]}


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------

def cmd_incidence_spectrum(args) -> dict:
    from .gf import prime_power
    from .incidence import gram_identity_check, incidence_spectrum

    prime_power(args.q)  # NonPrime, exit 2, when there is no field of order q
    rep = incidence_spectrum(args.q)
    gram = gram_identity_check(args.q) if args.q <= 5 else None
    ok = gram in (True, None)
    values = {
        "q": args.q, "sigma1": rep.sigma1, "sigma2": rep.sigma2,
        "lambda": rep.lam, "numeric_sigma1": rep.numeric_sigma1,
        "numeric_sigma2": rep.numeric_sigma2,
    }
    if gram is not None:
        values["gram_identity"] = gram
    return {"rows": [
        _row("incidence-spectrum",
             "point-line Gram matrix equals (q^2+q)I + AllOnes, fixing both "
             "singular values in closed form",
             "pass" if ok else "fail", **values),
    ]}


def cmd_incidence_bound(args) -> dict:
    from .gf import prime_power
    from .incidence import mixing_incidence_bound

    prime_power(args.q)  # NonPrime, exit 2, when there is no field of order q
    rep = mixing_incidence_bound(args.np, args.nl, args.q)
    return {"rows": [
        _row("incidence-bound",
             "exact spectral mixing upper bound on incidences between the "
             "given point and line counts",
             "reported", **rep),
    ]}


def cmd_incidence_check(args) -> dict:
    from .incidence import mixing_discrepancy_check
    from .io import load_linefamily, load_pointset

    P = load_pointset(args.points)
    L = load_linefamily(args.lines)
    rep = mixing_discrepancy_check(P, L)
    return {"rows": [
        _row("incidence-check",
             "incidence discrepancy of the given point and line sets stays "
             "within the spectral mixing radius",
             "pass" if rep["holds"] else "fail",
             q=rep["q"], incidences=rep["incidences"],
             lhs=rep["lhs"], rhs=rep["rhs"]),
    ]}


def cmd_incidence_planes(args) -> dict:
    from .incidence import cover_fraction_check, generate_planes

    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} is not positive")
    rows = []
    count = args.k * args.q
    for s in range(args.seeds):
        planes = generate_planes(args.q, count, args.gen, seed=args.seed + s)
        rep = cover_fraction_check(args.q, planes=planes)
        rows.append(_row(
            f"incidence-planes-cover-{s}",
            "a family of kq planes covers at least (1 - 1/(k-1+1/k)) of space",
            "pass" if rep["holds"] else "fail",
            q=args.q, k=str(rep["k"]), generator=args.gen,
            covered=rep["covered"], bound=rep["bound_float"],
        ))
    return {"rows": rows}


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def cmd_suite(args) -> dict:
    from .geom import LineFamily, PointSet, affine_space
    from .hermitian import build_hermitian, phi
    from .incidence import gram_identity_check, incidence_spectrum, mixing_discrepancy_check
    from .kakeya import (
        KakeyaWitness, build_quadratic_residue_set, integer_multiplicity_bound,
        optimize_fractional_bound, verify_kakeya,
    )
    from .nikodym import golden_ratio_threshold, build_conic_dual_line_family
    from .poly import count_capped_monomials, count_capped_monomials_bruteforce
    import random

    rows = []
    max_q = args.max_q

    oracle_ok = all(
        count_capped_monomials(n, q, Fraction(j, 10))
        == count_capped_monomials_bruteforce(n, q, Fraction(j, 10))
        for n in (1, 2, 3) for q in range(2, min(max_q, 5) + 1)
        for j in range(1, 31, 3)
    )
    rows.append(_row("monomial-count",
                     "closed-form capped monomial count equals brute force",
                     "pass" if oracle_ok else "fail", max_q=min(max_q, 5)))

    for q in (3, 5, 7, 9, 11, 13):
        if q > max_q:
            break
        K = build_quadratic_residue_set(q)
        ok = isinstance(verify_kakeya(K), KakeyaWitness)
        bound = integer_multiplicity_bound(q)
        rows.append(_row(f"kakeya-qr-{q}",
                         "residue construction is a verified small Kakeya set "
                         "meeting the multiplicity lower bound",
                         "pass" if ok and len(K) >= bound else "fail",
                         q=q, size=len(K), bound=bound))

    m, c, _ = optimize_fractional_bound()
    rows.append(_row("fractional-optimum",
                     "optimized lower-bound coefficient near 0.21076",
                     "pass" if abs(c - 0.21076) < 5e-5 else "fail",
                     m_star=m, coefficient=c))

    root = golden_ratio_threshold()
    rows.append(_row("golden-ratio",
                     "density threshold satisfies x^2 + x = 1",
                     "pass" if abs(root * root + root - 1) < 1e-10 else "fail",
                     root=root))

    for q in (2, 3, 4):
        if q > max_q:
            break
        sp_rep = incidence_spectrum(q)
        ok = (gram_identity_check(q)
              and abs(sp_rep.numeric_sigma1 - sp_rep.sigma1) < 1e-8)
        rows.append(_row(f"incidence-spectrum-{q}",
                         "Gram identity and numeric eigenvalue cross-check",
                         "pass" if ok else "fail", q=q,
                         sigma1=sp_rep.sigma1, sigma2=sp_rep.sigma2))

    rng = random.Random(args.seed)
    q = min(max_q, 3)
    sp = affine_space(q, 3)
    pool = sp.all_lines()
    mix_ok = True
    for _ in range(20):
        P = PointSet(q, 3, indices=rng.sample(range(q ** 3), rng.randint(0, q ** 3)))
        L = LineFamily(sp, pool[rng.sample(range(len(pool)), rng.randint(0, len(pool)))])
        try:
            mixing_discrepancy_check(P, L)
        except AssertionError:
            mix_ok = False
    rows.append(_row("mixing-draws",
                     "random point/line draws always satisfy the exact mixing "
                     "inequality",
                     "pass" if mix_ok else "fail", q=q, draws=20, seed=args.seed))

    if max_q >= 4:
        V = build_hermitian(2, 2)
        npoints = int(V.mask.sum())
        rows.append(_row("hermitian-count",
                         "plane variety point count matches the closed formula",
                         "pass" if npoints == phi(2, 4) == 9 else "fail", points=npoints))

    if max_q >= 5:
        _, rep = build_conic_dual_line_family(5)
        ok = rep["nL"] == rep["nL_identity"] and rep["nP"] == rep["nP_identity"]
        rows.append(_row("conic-dual-family",
                         "inclusion-exclusion identities for the plane-union "
                         "line family hold exactly",
                         "pass" if ok else "fail", **rep))

    return {"rows": rows}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--report", help="write the report to this path")
    top = argparse.ArgumentParser(
        prog="fqgeom",
        description="exact finite-field Kakeya/Nikodym geometry lab",
    )
    sub = top.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly").add_subparsers(dest="sub", required=True)
    pc = poly.add_parser("count", parents=[common])
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--m", required=True)
    pc.set_defaults(func=cmd_poly_count)

    kk = sub.add_parser("kakeya").add_subparsers(dest="sub", required=True)
    b = kk.add_parser("build", parents=[common])
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--construction", default="qr")
    b.add_argument("--out")
    b.set_defaults(func=cmd_kakeya_build)
    v = kk.add_parser("verify", parents=[common])
    v.add_argument("--in", required=True)
    v.set_defaults(func=cmd_kakeya_verify)
    p = kk.add_parser("pipeline", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--construction", default="qr")
    p.set_defaults(func=cmd_kakeya_pipeline)
    o = kk.add_parser("optimize", parents=[common])
    o.set_defaults(func=cmd_kakeya_optimize)

    nk = sub.add_parser("nikodym").add_subparsers(dest="sub", required=True)
    v = nk.add_parser("verify", parents=[common])
    v.add_argument("--in", required=True)
    v.add_argument("--extract-witness")
    v.set_defaults(func=cmd_nikodym_verify)
    c = nk.add_parser("conic-family", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--fraction", default="0.62")
    c.set_defaults(func=cmd_nikodym_conic)
    t = nk.add_parser("threshold", parents=[common])
    t.set_defaults(func=cmd_nikodym_threshold)
    h = nk.add_parser("harness", parents=[common])
    h.add_argument("--generator", required=True,
                   choices=("uniform", "plane-capped", "conic-dual", "hermitian"))
    h.add_argument("--q", type=int, required=True)
    h.add_argument("--trials", type=int, default=10)
    h.add_argument("--seed", type=int, required=True)
    h.add_argument("--alpha", default="0.5")
    h.add_argument("--lines", type=int)
    h.add_argument("--plane-cap", type=int)
    h.add_argument("--alarm-ratio", type=float, default=0.9)
    h.add_argument("--out")
    h.set_defaults(func=cmd_nikodym_harness)

    hm = sub.add_parser("hermitian").add_subparsers(dest="sub", required=True)
    b = hm.add_parser("build", parents=[common])
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--n", type=int, default=3)
    b.set_defaults(func=cmd_hermitian_build)
    t = hm.add_parser("tangent-family", parents=[common])
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--alpha", default="0.5")
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out")
    t.set_defaults(func=cmd_hermitian_tangent)

    ic = sub.add_parser("incidence").add_subparsers(dest="sub", required=True)
    s = ic.add_parser("spectrum", parents=[common])
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=cmd_incidence_spectrum)
    b = ic.add_parser("bound", parents=[common])
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--np", type=int, required=True)
    b.add_argument("--nl", type=int, required=True)
    b.set_defaults(func=cmd_incidence_bound)
    c = ic.add_parser("check", parents=[common])
    c.add_argument("--points", required=True)
    c.add_argument("--lines", required=True)
    c.set_defaults(func=cmd_incidence_check)
    pl = ic.add_parser("planes-cover", parents=[common])
    pl.add_argument("--q", type=int, required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--gen", default="random",
                    choices=("pencil", "parallel", "random"))
    pl.add_argument("--seeds", type=int, default=1)
    pl.add_argument("--seed", type=int, default=0)
    pl.set_defaults(func=cmd_incidence_planes)

    st = sub.add_parser("suite", parents=[common])
    st.add_argument("--max-q", type=int, default=5)
    st.add_argument("--seed", type=int, required=True)
    st.set_defaults(func=cmd_suite)

    return top


def main(argv=None) -> int:
    start = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except AssertionError as e:
        sys.stderr.write(f"assertion failed: {e}\n")
        return 1
    except MemoryError as e:  # numpy's _ArrayMemoryError too: no claim was decided
        sys.stderr.write(f"error: out of memory: {e}\n")
        return 3
    report["config"] = _config_echo(args)
    return _finish(report, args, start)


if __name__ == "__main__":
    sys.exit(main())
