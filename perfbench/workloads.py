"""The benchmark's seeded workloads.

A workload has three steps, each run in a fresh child process:

* ``setup(seed, size, workdir)`` makes every input from the seed and
  returns them as plain data (their digest goes into the result);
* ``run(inputs, workdir)`` is the timed pass over the item list;
* ``check(inputs, outputs)`` re-checks each item's output exactly, outside
  the timed region and by another route than the code that produced it.

The timed passes call only stable entry points of fqgeom -- ``cli.main``,
the Kakeya and Nikodym verifiers, ``interpolate_vanishing``,
``restrict_to_line``, ``fractional_pipeline`` and the incidence checks,
plus the public ``PointSet``, ``LineFamily`` and ``affine_space`` that
their inputs are made of -- and import no private names.  Entry points
are looked up on their module at call time, so a traced pass sees the
wrappers that ``spans.install`` puts there.

``size`` is "full" for the benchmark and "smoke" for the benchmark's own
tests, which run the same items at tiny q.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import traceback
from fractions import Fraction
from math import comb

from fqgeom import cli, geom, gf, incidence, kakeya, poly


class Raised:
    """An item whose call raised; it counts as failed."""

    def __init__(self, text):
        self.text = text


def _item(out, name, fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception:  # recorded as a failed item; the pass goes on
        result = Raised(traceback.format_exc(limit=4))
    out[name] = result
    return result


def _cli(workdir, name, argv):
    """Run one CLI command; its report lands in workdir/<name>.json."""
    report = os.path.join(workdir, name + ".json")
    return {"code": cli.main(argv + ["--report", report]), "report": report}


def _read_report(result):
    """(exit code, rows) of a CLI item; rows are (name, status, values)."""
    if isinstance(result, Raised):
        return None, []
    try:
        with open(result["report"]) as fh:
            rep = json.load(fh)
    except FileNotFoundError:
        return result["code"], []
    return result["code"], [(r["name"], r["status"], r["values"]) for r in rep["rows"]]


def digest(obj):
    """Short sha256 of a JSON-able object, independent of key order."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plain(obj):
    """A JSON-able summary of an item's output, used for its digest."""
    if isinstance(obj, Raised):
        return {"raised": obj.text.strip().splitlines()[-1]}
    if isinstance(obj, dict) and "report" in obj and "code" in obj:
        code, rows = _read_report(obj)
        return {"code": code, "rows": rows}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (str, int, float, type(None))):
        return obj
    if hasattr(obj, "to_dict"):
        return plain(obj.to_dict())
    if hasattr(obj, "lines") and isinstance(obj.lines, dict):  # Kakeya witness
        return {"lines": sorted([int(d), int(b)] for d, b in obj.lines.values())}
    if hasattr(obj, "coeffs"):  # MultiPoly or UniPoly
        return [int(c) for c in obj.coeffs]
    return str(obj)


# ---------------------------------------------------------------------------
# independent arithmetic for the checks (prime q, coordinates mod q)
# ---------------------------------------------------------------------------

def _coords(idx, q):
    return (idx % q, idx // q % q, idx // (q * q))


def _index(c, q):
    return c[0] + q * c[1] + q * q * c[2]


def _directions(q):
    """Normalized directions of AG(3,q) in the package's order: first
    nonzero coordinate 1, sorted as tuples."""
    dirs = []
    for x in range(q):
        for y in range(q):
            for z in range(q):
                v = (x, y, z)
                if any(v) and next(c for c in v if c) == 1:
                    dirs.append(v)
    return sorted(dirs)


def _line(q, d, base):
    b = _coords(base, q)
    return [_index(tuple((bi + t * di) % q for bi, di in zip(b, d)), q) for t in range(q)]


def _write_points(path, q, indices):
    with open(path, "w") as fh:
        fh.write(f"{q} 3 points\n")
        for i in indices:
            fh.write(" ".join(str(c) for c in _coords(i, q)) + "\n")


def _read_points(path):
    """(q, set of point indices) of a prime-q point file."""
    with open(path) as fh:
        q, n, kind = fh.readline().split()
        q = int(q)
        if (n, kind) != ("3", "points"):
            raise ValueError(f"{path}: not an AG(3,q) point file")
        return q, {_index(tuple(int(t) for t in line.split()), q) for line in fh if line.strip()}


def _row(result, name, status):
    """The values of the report row called name, if the exit code and the
    row's status match the expected outcome; None otherwise."""
    code, rows = _read_report(result)
    want_code = 0 if status == "pass" else 1
    for rname, rstatus, values in rows:
        if rname == name and rstatus == status and code == want_code:
            return values
    return None


def _qr_set(q):
    """The quadratic-residue Kakeya set, from its definition."""
    squares = {y * y % q for y in range(q)}
    out = set()
    for t in range(q):
        good = [x for x in range(q) if (x + t * t) % q in squares]
        out.update(_index((x1, x2, t), q) for x1 in good for x2 in good)
    out.update(_index((x1, x2, 0), q) for x1 in range(q) for x2 in range(q))
    return out


def _has_line_per_direction(q, pts, witness):
    """Every direction has a witness line and every point of it is in pts."""
    dirs = _directions(q)
    if sorted(witness) != list(range(len(dirs))):
        return False
    return all(
        set(_line(q, dirs[d], base)) <= pts and min(_line(q, dirs[d], base)) == base
        for d, base in witness.items()
    )


# ---------------------------------------------------------------------------
# verify: kakeya build/verify and nikodym verify through the CLI
# ---------------------------------------------------------------------------

VERIFY_QS = {"full": (13, 17, 19), "smoke": (3, 5)}


def verify_setup(seed, size, workdir):
    """For each q, a seeded set of 2q points to delete from AG(3,q)."""
    rng = random.Random(seed)
    removed = {}
    for q in VERIFY_QS[size]:
        gone = sorted(rng.sample(range(q ** 3), 2 * q))
        drop = set(gone)
        _write_points(os.path.join(workdir, f"fm{q}.pts"), q,
                      [i for i in range(q ** 3) if i not in drop])
        removed[str(q)] = gone
    return {"qs": list(VERIFY_QS[size]), "removed": removed}


def verify_run(inputs, workdir):
    out = {}
    for q in inputs["qs"]:
        def pts(kind):
            return os.path.join(workdir, f"{kind}{q}.pts")

        for kind in ("qr", "thin"):
            _item(out, f"build-{kind}-{q}", _cli, workdir, f"build-{kind}-{q}",
                  ["kakeya", "build", "--q", str(q), "--construction", kind,
                   "--out", pts(kind)])
        for kind in ("qr", "thin", "fm"):
            _item(out, f"kakeya-verify-{kind}-{q}", _cli, workdir,
                  f"kakeya-verify-{kind}-{q}", ["kakeya", "verify", "--in", pts(kind)])
        witness = os.path.join(workdir, f"nikodym-witness{q}.json")
        _item(out, f"nikodym-verify-fm-{q}", _cli, workdir, f"nikodym-verify-fm-{q}",
              ["nikodym", "verify", "--in", pts("fm"), "--extract-witness", witness])
        _item(out, f"nikodym-verify-qr-{q}", _cli, workdir, f"nikodym-verify-qr-{q}",
              ["nikodym", "verify", "--in", pts("qr")])
        _item(out, f"kakeya-incidence-thin-{q}", _kakeya_incidence, pts("thin"))
        _item(out, f"nikodym-incidence-fm-{q}", _nikodym_incidence, q,
              inputs["removed"][str(q)], witness)
    return out


def _kakeya_incidence(path):
    """Witness lines of the thin set, and the mixing check on them."""
    q, idx = _read_points(path)
    K = geom.PointSet(q, 3, indices=sorted(idx))
    w = kakeya.verify_kakeya(K)
    fam = geom.LineFamily(geom.affine_space(q, 3), w.lines.values())
    return {"witness": w, "mixing": incidence.mixing_discrepancy_check(K, fam)}


def _nikodym_incidence(q, removed, witness_path):
    """The mixing check on the Nikodym witness lines of full-minus-points."""
    with open(witness_path) as fh:
        assignment = json.load(fh)["assignment"]
    P = geom.PointSet.full(q)
    for i in removed:
        P.discard(i)
    fam = geom.LineFamily(geom.affine_space(q, 3),
                          [tuple(v) for v in assignment.values()])
    return {"lines": len(fam), "mixing": incidence.mixing_discrepancy_check(P, fam)}


def verify_check(inputs, out, workdir):
    bad = {}
    for q in inputs["qs"]:
        dirs = _directions(q)
        removed = set(inputs["removed"][str(q)])
        qr = _qr_set(q)
        for kind, expect in (("qr", qr), ("thin", None)):
            values = _row(out[f"build-{kind}-{q}"], "kakeya-build", "pass")
            try:
                got_q, got = _read_points(os.path.join(workdir, f"{kind}{q}.pts"))
            except (OSError, ValueError):
                got_q, got = None, set()
            if values is None or got_q != q or values["size"] != len(got):
                bad[f"build-{kind}-{q}"] = "exit code, row or size"
            elif expect is not None and (got != expect or
                                         len(got) != (q - 1) * ((q + 1) // 2) ** 2 + q * q):
                bad[f"build-{kind}-{q}"] = "not the quadratic-residue set"
            elif kind == "thin" and len(got) > q * (q * q + q + 1):
                bad[f"build-{kind}-{q}"] = "thin set too large"
        # the residue set holds, for direction (b1, b2, 1), the line based at
        # (b1^2/4, b2^2/4, 0), and the whole plane t = 0
        inv4 = pow(4, q - 2, q)
        for d, (x, y, z) in enumerate(dirs):
            base = 0
            if z:
                b1, b2 = x * pow(z, q - 2, q), y * pow(z, q - 2, q)
                base = _index((b1 * b1 * inv4 % q, b2 * b2 * inv4 % q, 0), q)
            if not set(_line(q, (x, y, z), base)) <= qr:
                bad[f"kakeya-verify-qr-{q}"] = f"no residue line in direction {d}"
        # full space minus fewer than q^2 points misses at most that many of
        # the q^2 parallel lines of each direction, so it stays Kakeya
        for kind in ("qr", "thin", "fm"):
            name = f"kakeya-verify-{kind}-{q}"
            if _row(out[name], "kakeya-verify", "pass") is None:
                bad.setdefault(name, "expected a pass")
        name = f"nikodym-verify-fm-{q}"
        values = _row(out[name], "nikodym-verify", "pass")
        try:
            with open(os.path.join(workdir, f"nikodym-witness{q}.json")) as fh:
                assignment = {int(p): ln for p, ln in json.load(fh)["assignment"].items()}
        except (FileNotFoundError, ValueError, KeyError):
            assignment = None
        if values is None or assignment is None or set(assignment) != removed:
            bad[name] = "expected a pass with one witness line per deleted point"
        else:
            for p, (d, base) in assignment.items():
                line = _line(q, dirs[d], base)
                if p not in line or (set(line) & removed) != {p}:
                    bad[name] = f"witness line of {p} meets another deleted point"
        # the residue set is too small to be Nikodym at the full sizes; the
        # expected outcome is decided by searching for a point without a line
        name = f"nikodym-verify-qr-{q}"
        if _first_non_nikodym_point(q, qr, dirs) is None:
            if _row(out[name], "nikodym-verify", "pass") is None:
                bad[name] = "expected a pass: every point has a line"
        else:
            values = _row(out[name], "nikodym-verify", "fail")
            if values is None or values.get("failing_points", 0) < 1:
                bad[name] = "expected a fail: some point has no line"
        res = out[f"kakeya-incidence-thin-{q}"]
        name = f"kakeya-incidence-thin-{q}"
        if isinstance(res, Raised):
            bad[name] = "raised"
        else:
            _, thin = _read_points(os.path.join(workdir, f"thin{q}.pts"))
            witness = {int(d): int(b) for d, b in res["witness"].lines.values()}
            if not _has_line_per_direction(q, thin, witness):
                bad[name] = "witness line not contained in the thin set"
            elif (res["mixing"]["incidences"] != q * len(set(witness.items()))
                  or res["mixing"]["holds"] is not True):
                bad[name] = "incidences differ from q per contained line"
        res = out[f"nikodym-incidence-fm-{q}"]
        name = f"nikodym-incidence-fm-{q}"
        if isinstance(res, Raised):
            bad[name] = "raised"
        elif (res["lines"] != len(removed)
              or res["mixing"]["incidences"] != (q - 1) * len(removed)
              or res["mixing"]["holds"] is not True):
            bad[name] = "incidences differ from q-1 per witness line"
    return bad


def _first_non_nikodym_point(q, pts, dirs):
    """A point every line through which meets another point outside pts,
    or None; points outside pts are tried first."""
    for p in sorted(range(q ** 3), key=lambda i: (i in pts, i)):
        if all(any(x != p and x not in pts for x in _line(q, d, p)) for d in dirs):
            return p
    return None


# ---------------------------------------------------------------------------
# interpolate: prime-field multiplicity interpolation and restriction
# ---------------------------------------------------------------------------

INTERP = {
    # q, the trial shapes (m1, m2, m, share of the row budget spent on S1),
    # and the restriction lines per trial
    "full": (7, [(m1, m2, m, share) for m in (2, 3) for m1 in (1, 2)
                 for m2 in (1, 2) for share in (Fraction(1, 4), Fraction(1, 2))], 2),
    "smoke": (3, [(1, 1, 2, Fraction(1, 2)), (2, 1, 3, Fraction(1, 4))], 1),
}


def _trials(rng, q, shapes, nlines):
    """Seeded point sets for fixed trial shapes, so that the amount of work
    depends on the shapes and not on the seed."""
    pool = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    trials = []
    for m1, m2, m, share in shapes:
        budget = poly.count_capped_monomials(3, q, m) - 1
        w1, w2 = comb(m1 + 2, 3), comb(m2 + 2, 3)
        n1 = max(1, int(share * budget) // w1)
        n2 = min((budget - n1 * w1) // w2, 4)
        pts = rng.sample(pool, n1 + n2)
        lines = []
        for _ in range(nlines):
            b = (0, 0, 0)
            while not any(b):
                b = tuple(rng.randrange(q) for _ in range(3))
            lines.append([list(rng.choice(pool)), list(b)])
        trials.append({"m1": m1, "m2": m2, "m": str(m), "S1": [list(p) for p in pts[:n1]],
                       "S2": [list(p) for p in pts[n1:]], "lines": lines})
    return trials


def interpolate_setup(seed, size, workdir):
    q, shapes, nlines = INTERP[size]
    return {"q": q, "trials": _trials(random.Random(seed), q, shapes, nlines)}


def _interpolate_items(out, prefix, q, trials):
    for i, t in enumerate(trials):
        g = _item(out, f"{prefix}-{i}", poly.interpolate_vanishing,
                  [tuple(p) for p in t["S1"]], t["m1"],
                  [tuple(p) for p in t["S2"]], t["m2"], Fraction(t["m"]), q=q)
        for j, (a, b) in enumerate(t.get("lines", [])):
            if isinstance(g, Raised):
                out[f"restrict-{i}-{j}"] = g
            else:
                _item(out, f"restrict-{i}-{j}", poly.restrict_to_line, g, tuple(a), tuple(b))


def interpolate_run(inputs, workdir):
    out = {}
    _interpolate_items(out, "interpolate", inputs["q"], inputs["trials"])
    return out


def _check_interpolants(out, prefix, trials, bad):
    """Multiplicities re-derived with the full shift g(x + a), and
    restrictions re-evaluated pointwise."""
    for i, t in enumerate(trials):
        name = f"{prefix}-{i}"
        g = out[name]
        if isinstance(g, Raised) or g.is_zero():
            bad[name] = "raised or zero"
            continue
        for pts, mult in ((t["S1"], t["m1"]), (t["S2"], t["m2"])):
            for p in pts:
                if poly.multiplicity_via_full_shift(g, tuple(p)) < mult:
                    bad[name] = f"multiplicity below {mult} at {p}"
        for j, (a, b) in enumerate(t.get("lines", [])):
            rname = f"restrict-{i}-{j}"
            f = out[rname]
            q = g.basis.q
            if isinstance(f, Raised) or any(
                _eval_uni(f.coeffs, s, q) != _eval_multi(g, [(ai + s * bi) % q for ai, bi in zip(a, b)], q)
                for s in range(q)
            ):
                bad[rname] = "restriction disagrees with g on the line"


def _eval_uni(coeffs, t, p):
    return sum(int(c) * pow(t, i, p) for i, c in enumerate(coeffs)) % p


def _eval_multi(g, x, p):
    total = 0
    for e, c in g.support():
        term = int(c)
        for xi, ei in zip(x, e):
            term = term * pow(xi, ei, p)
        total += term
    return total % p


def interpolate_check(inputs, out, workdir):
    bad = {}
    _check_interpolants(out, "interpolate", inputs["trials"], bad)
    return bad


# ---------------------------------------------------------------------------
# extension: GF(p^2) Hermitian tangent families and GF(q^2) interpolation
# ---------------------------------------------------------------------------

EXTENSION = {
    # p of the tangent family, its alpha, number of CLI seeds; extension
    # field order and interpolation shapes (m1, m2, m, share)
    "full": (3, "1/8", 2, 9, [(1, 1, 1, Fraction(1, 4)), (2, 1, 1, Fraction(1, 4))]),
    "smoke": (2, "1/2", 2, 4, [(1, 1, 1, Fraction(1, 4))]),
}


def extension_setup(seed, size, workdir):
    p, alpha, nseeds, q, shapes = EXTENSION[size]
    rng = random.Random(seed)
    return {"p": p, "alpha": alpha, "seeds": [rng.randrange(10 ** 6) for _ in range(nseeds)],
            "q": q, "trials": _trials(rng, q, shapes, 0)}


def extension_run(inputs, workdir):
    out = {}
    for s in inputs["seeds"]:
        path = os.path.join(workdir, f"tangent{s}.lines")
        _item(out, f"tangent-{s}", _cli, workdir, f"tangent-{s}",
              ["hermitian", "tangent-family", "--p", str(inputs["p"]), "--alpha",
               inputs["alpha"], "--seed", str(s), "--out", path])
    _interpolate_items(out, "interpolate-ext", inputs["q"], inputs["trials"])
    return out


def _gf_p2(p, modulus):
    """(mul, add) of GF(p^2) = GF(p)[x]/(x^2 + c1 x + c0), on the
    package's element codes a0 + p*a1."""
    c0, c1 = modulus[0], modulus[1]

    def mul(a, b):
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        lo = (a0 * b0 - a1 * b1 * c0) % p
        hi = (a0 * b1 + a1 * b0 - a1 * b1 * c1) % p
        return lo + p * hi

    def add(a, b):
        return (a + b) % p + p * ((a // p + b // p) % p)

    return mul, add


def extension_check(inputs, out, workdir):
    bad = {}
    p = inputs["p"]
    q = p * p
    r = p
    alpha = Fraction(inputs["alpha"])
    nV = (r ** 4 - 1) * (r ** 3 + 1) // (q - 1)  # non-degenerate surface in PG(3, q)
    mul, add = _gf_p2(p, gf.make_field(p, 2).modulus)

    def norm(a):  # a^(p+1), the Hermitian form's diagonal term
        out_ = 1
        for _ in range(p + 1):
            out_ = mul(out_, a)
        return out_

    for s in inputs["seeds"]:
        name = f"tangent-{s}"
        values = _row(out[name], "hermitian-tangent-family", "pass")
        nP = int(alpha * nV)
        if values is None or (values["nV"], values["nP"], values["nL"],
                              values["uncovered_variety_points"]) != (
                nV, nP, (q - r) * nP, nV - nP):
            bad[name] = "counts differ from phi and (q - sqrt q)|P|"
            continue
        try:
            rows = _read_lines(os.path.join(workdir, f"tangent{s}.lines"), p)
        except (OSError, ValueError) as e:
            bad[name] = f"unreadable line file: {e}"
            continue
        if not 0 < len(rows) <= values["nL_affine"] or len(set(rows)) != len(rows):
            bad[name] = "line file size or duplicates"
            continue
        # a tangent line meets the variety 1 + N(x1) + N(x2) + N(x3) = 0 of
        # the affine chart in at most one point
        for vec, base in rows:
            hits = 0
            for t in range(q):
                x = [add(b, mul(t, v)) for v, b in zip(vec, base)]
                acc = 1
                for xi in x:
                    acc = add(acc, norm(xi))
                hits += acc == 0
            if hits > 1:
                bad[name] = f"line {vec} + t {base} meets the variety {hits} times"
                break
    _check_interpolants(out, "interpolate-ext", inputs["trials"], bad)
    return bad


def _read_lines(path, p):
    """Rows of a GF(p^2) line file as (direction, base) code triples."""
    def code(tok):
        hi, lo = (int(d) for d in tok.split("-"))
        if not (0 <= hi < p and 0 <= lo < p):
            raise ValueError(f"bad token {tok}")
        return lo + p * hi

    with open(path) as fh:
        if fh.readline().split() != [str(p * p), "3", "lines"]:
            raise ValueError("bad header")
        rows = []
        for line in fh:
            vals = [code(t) for t in line.split()]
            if len(vals) != 6:
                raise ValueError(f"bad row {line!r}")
            rows.append((tuple(vals[:3]), tuple(vals[3:])))
    return rows


# ---------------------------------------------------------------------------
# pipeline: the fractional-multiplicity pipeline
# ---------------------------------------------------------------------------

PIPELINE = {
    # (q, u, alpha, calls, retry cap).  Each cap is far from the case's
    # expected number of draws to acceptance (about 40, 2000, 8, 1 and 2500
    # at these q): nearly every call either exhausts its cap or accepts on
    # the first draw, so the number of sampler draws in a pass is set by
    # this list and not by the seed's luck.
    "full": [(9, 1, "1/2", 6, 2), (11, 1, "1/2", 4, 40), (13, 1, "1/2", 6, 1),
             (13, 1, "4/5", 2, 1), (9, 2, "1/3", 4, 40)],
    "smoke": [(5, 1, "1/2", 2, 2), (5, 1, "4/5", 1, 1)],
}

HONEST_STAGES = ("sampler-exhausted", "counting-not-in-paradox-regime",
                 "restriction-survives", "g0-vanishes-on-all-directions")


def pipeline_setup(seed, size, workdir):
    rng = random.Random(seed)
    return {"cases": [[q, u, alpha, cap, [rng.randrange(10 ** 6) for _ in range(calls)]]
                      for q, u, alpha, calls, cap in PIPELINE[size]]}


def pipeline_run(inputs, workdir):
    out = {}
    for q, u, alpha, cap, seeds in inputs["cases"]:
        for s in seeds:
            _item(out, f"pipeline-{q}-{u}-{alpha}-{s}", kakeya.fractional_pipeline,
                  q, u, Fraction(alpha), s, retry_cap=cap)
    return out


def _sign(r, b, q):
    """Exact sign of r + b * q^(2/3), by cubing."""
    if b == 0:
        return (r > 0) - (r < 0)
    if b < 0:
        return -_sign(-r, -b, q)
    if r >= 0:
        return 1
    return (b ** 3 * q * q > (-r) ** 3) - (b ** 3 * q * q < (-r) ** 3)


def pipeline_check(inputs, out, workdir):
    bad = {}
    for q, u, alpha, cap, seeds in inputs["cases"]:
        alpha = Fraction(alpha)
        a, b = (u + 1) - alpha, -alpha * (2 * u + 1)  # m = a + b q^(-1/3)
        sizeK = (q - 1) * ((q + 1) // 2) ** 2 + q * q
        monomials = sum(1 for e0 in range(q) for e1 in range(q) for e2 in range(q)
                        if _sign(a * q - (e0 + e1 + e2), b, q) > 0)
        for s in seeds:
            name = f"pipeline-{q}-{u}-{alpha}-{s}"
            rep = out[name]
            if isinstance(rep, Raised):
                bad[name] = "raised"
                continue
            d = rep.detail
            if rep.stage not in HONEST_STAGES or rep.size_K != sizeK:
                bad[name] = f"stage {rep.stage} or |K| {rep.size_K}"
            elif abs(rep.m_value - (float(a) + float(b) * q ** (-1 / 3))) > 1e-9:
                bad[name] = "m value"
            elif rep.stage == "sampler-exhausted":
                if "sample" in d:
                    bad[name] = "exhausted after an accepted draw"
            else:
                n = d["sample"]["size"]
                target = alpha * sizeK
                constraints = n * comb(u + 2, 3) + (sizeK - n) * comb(u + 3, 3)
                if not 1 <= d["sample"]["attempts"] <= cap:
                    bad[name] = "attempts outside the cap"
                elif abs(n - target) ** 3 * q >= target ** 3:
                    bad[name] = "accepted sample outside the size window"
                elif d["monomials"] != monomials or d["constraints"] != constraints:
                    bad[name] = "monomial or constraint count"
                elif (rep.stage == "counting-not-in-paradox-regime") != (constraints >= monomials):
                    bad[name] = "stage disagrees with the counts"
    return bad


WORKLOADS = {
    "verify": (verify_setup, verify_run, verify_check),
    "interpolate": (interpolate_setup, interpolate_run, interpolate_check),
    "extension": (extension_setup, extension_run, extension_check),
    "pipeline": (pipeline_setup, pipeline_run, pipeline_check),
}
