import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fqgeom
from fqgeom.cli import main
from fqgeom.geom import PointSet
from fqgeom.io import save_pointset


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_poly_count_prints(capsys):
    code, out = run(["poly", "count", "--n", "3", "--q", "3", "--m", "2"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == 26


def test_poly_count_non_prime_power_exits_2(capsys):
    code, out = run(["poly", "count", "--n", "3", "--q", "6", "--m", "2"], capsys)
    assert code == 2
    assert out == ""


# the spectrum and the bound are closed forms in q, but there is no field
# of order 1, 6 or 10 to take them over
@pytest.mark.parametrize("q", ["1", "6", "10"])
@pytest.mark.parametrize("argv", [["spectrum"], ["bound", "--np", "0", "--nl", "0"]],
                         ids=["spectrum", "bound"])
def test_incidence_non_prime_power_exits_2(argv, q, capsys):
    code, out = run(["incidence", *argv, "--q", q], capsys)
    assert code == 2
    assert out == ""


def test_conic_family_untabled_field_exits_2(capsys):
    code, out = run(["nikodym", "conic-family", "--q", "1031"], capsys)
    assert code == 2
    assert out == ""


def test_poly_count_needs_no_field(capsys):
    # counting monomials needs no arithmetic, so q above the field bound counts
    code, out = run(["poly", "count", "--n", "3", "--q", "1031", "--m", "1"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == 183183956


def test_poly_count_large_prime_order_is_fast(capsys):
    # Miller-Rabin decides q = 10^18 + 3 at once, where trial division took 90 s
    start = time.perf_counter()
    code, out = run(["poly", "count", "--n", "3", "--q", "1000000000000000003", "--m", "1"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["result"] == 166666666666666668666666666666666674500000000000000010


def test_poly_count_undecided_order_exits_2(capsys):
    # 2^89 - 1 is prime, but past the bound where Miller-Rabin is exact
    code, out = run(["poly", "count", "--n", "3", "--q", str(2 ** 89 - 1), "--m", "1"], capsys)
    assert code == 2
    assert out == ""


# GF(37^2) is above the field bound; 2^61 - 1 is refused by its order at
# once, before a trial division that would take minutes
@pytest.mark.parametrize("p", ["37", "2305843009213693951"])
def test_hermitian_build_untabled_field_exits_2(p, capsys):
    code, out = run(["hermitian", "build", "--p", p, "--n", "2"], capsys)
    assert code == 2
    assert out == ""


def test_unknown_flag_exits_2(capsys):
    assert main(["poly", "count", "--bogus", "1"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # the parser is shared by every call in a process: one command's
    # arguments must not reach the next command's config, and a bad flag
    # still exits 2 without spoiling the calls after it
    from fqgeom.cli import build_parser

    assert build_parser() is build_parser()
    pts = tmp_path / "k.pts"
    assert run(["kakeya", "build", "--q", "3", "--out", str(pts)], capsys)[0] == 0
    assert run(["kakeya", "verify", "--in", str(pts)], capsys)[0] == 0
    code, out = run(["suite", "--max-q", "2", "--seed", "1"], capsys)
    assert code == 0
    assert "in" not in json.loads(out)["config"]
    assert main(["kakeya", "verify", "--in", str(pts), "--bogus"]) == 2
    code, out = run(["kakeya", "verify", "--in", str(pts)], capsys)
    assert code == 0
    assert set(json.loads(out)["config"]) == {"command", "format", "in", "report", "sub"}


def test_kakeya_build_verify_roundtrip(tmp_path, capsys):
    pts = tmp_path / "k.pts"
    code, _ = run(["kakeya", "build", "--q", "5", "--out", str(pts)], capsys)
    assert code == 0
    code, out = run(["kakeya", "verify", "--in", str(pts)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["failed"] == []
    assert rep["rows"][0]["values"]["size"] == 61


@pytest.mark.parametrize("construction", ["qr", "thin"])
def test_kakeya_build_fails_a_set_of_the_wrong_size(construction, monkeypatch, capsys):
    # the residue set less one point, and all of AG(3,5) as the thin set
    import fqgeom.kakeya as kakeya

    qr = kakeya.build_quadratic_residue_set

    def one_short(q):
        K = qr(q)
        K.discard(int(K.indices()[0]))
        return K

    broken = {"qr": one_short, "thin": PointSet.full}[construction]
    monkeypatch.setattr(kakeya, {"qr": "build_quadratic_residue_set",
                                 "thin": "build_thin_kakeya_set"}[construction], broken)
    code, out = run(["kakeya", "build", "--q", "5", "--construction", construction], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["failed"] == ["kakeya-build"]
    assert rep["rows"][0]["status"] == "fail"
    assert rep["rows"][0]["values"]["size"] == {"qr": 60, "thin": 125}[construction]


def test_kakeya_verify_failure_exit_code(tmp_path, capsys):
    pts = tmp_path / "bad.pts"
    pts.write_text("3 3 points\n0 0 0\n")
    code, out = run(["kakeya", "verify", "--in", str(pts)], capsys)
    assert code == 1
    assert json.loads(out)["failed"] == ["kakeya-verify"]


def test_kakeya_verify_gf32_file(tmp_path, capsys):
    pset = PointSet.full(32)
    for p in random.Random(32).sample(range(32 ** 3), 64):
        pset.discard(p)
    pts = tmp_path / "k32.pts"
    save_pointset(pset, str(pts))
    first = pts.read_text().splitlines()[1].split()
    assert len(first) == 3 and all(len(t.split("-")) == 5 for t in first)
    code, out = run(["kakeya", "verify", "--in", str(pts)], capsys)
    assert code == 0
    assert json.loads(out)["failed"] == []


def test_missing_file_exits_2(capsys):
    assert main(["kakeya", "verify", "--in", "/nonexistent.pts"]) == 2


def test_unreadable_input_exits_2(tmp_path, capsys):
    # a directory given as the input file is a bad config, not a failed check
    assert main(["kakeya", "verify", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["nikodym", "harness", "--generator", "uniform", "--q", "3", "--seed", "1", "--lines", "-5"],
    ["nikodym", "harness", "--generator", "plane-capped", "--q", "3", "--seed", "1",
     "--lines", "0"],
    ["incidence", "planes-cover", "--q", "3", "--k", "2", "--seeds", "0"],
    ["nikodym", "harness", "--generator", "uniform", "--q", "3", "--seed", "1", "--trials", "0"],
    ["nikodym", "harness", "--generator", "uniform", "--q", "3", "--seed", "1",
     "--trials", "-2"],
])
def test_non_positive_count_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not positive" in captured.err


@pytest.mark.parametrize("argv", [
    ["kakeya", "pipeline", "--q", "5", "--u", "1", "--alpha", "1/0", "--seed", "1"],
    ["hermitian", "tangent-family", "--p", "2", "--alpha", "1/0", "--seed", "1"],
    ["nikodym", "harness", "--generator", "hermitian", "--q", "4", "--seed", "1",
     "--alpha", "1/0"],
    ["poly", "count", "--n", "3", "--q", "3", "--m", "1/0"],
    ["nikodym", "conic-family", "--q", "5", "--fraction", "1/0"],
], ids=["pipeline-alpha", "tangent-alpha", "harness-alpha", "count-m", "conic-fraction"])
def test_zero_denominator_exits_2(argv, capsys):
    """A fraction flag with a zero denominator is a bad config, refused as
    the arguments are parsed, not a ZeroDivisionError from the command."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"{argv[argv.index('1/0') - 1]}: '1/0' is not a fraction" in err


def test_pipeline_reported_only(capsys):
    code, out = run(
        ["kakeya", "pipeline", "--q", "5", "--u", "1", "--alpha", "0.8",
         "--seed", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"][0]["status"] == "reported"


def test_nikodym_threshold(capsys):
    code, out = run(["nikodym", "threshold"], capsys)
    assert code == 0
    root = json.loads(out)["rows"][0]["values"]["root"]
    assert abs(root - 0.618033988) < 1e-7


def test_nikodym_verify_witness(tmp_path, capsys):
    pts = tmp_path / "n.pts"
    rows = [f"{a} {b} {c}" for a in range(3) for b in range(3) for c in range(3)
            if (a, b, c) != (0, 0, 0)]
    pts.write_text("3 3 points\n" + "\n".join(rows) + "\n")
    wit = tmp_path / "w.json"
    code, out = run(["nikodym", "verify", "--in", str(pts),
                     "--extract-witness", str(wit)], capsys)
    assert code == 0
    assert json.loads(wit.read_text())["q"] == 3


def test_incidence_check_zero_direction_exits_2(tmp_path, capsys):
    (tmp_path / "a.pts").write_text("3 3 points\n0 0 0\n")
    (tmp_path / "b.lines").write_text("3 3 lines\n0 0 0 1 2 0\n")
    code, _ = run(["incidence", "check", "--points", str(tmp_path / "a.pts"),
                   "--lines", str(tmp_path / "b.lines")], capsys)
    assert code == 2


def test_incidence_check(tmp_path, capsys):
    from fqgeom.geom import LineFamily, PointSet, affine_space
    from fqgeom.io import save_linefamily, save_pointset

    sp = affine_space(3, 3)
    save_pointset(PointSet(3, 3, indices=range(10)), str(tmp_path / "a.pts"))
    save_linefamily(LineFamily(sp, sp.all_lines()[:15]), str(tmp_path / "b.lines"))
    code, out = run(["incidence", "check", "--points", str(tmp_path / "a.pts"),
                     "--lines", str(tmp_path / "b.lines")], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["status"] == "pass"


def test_incidence_check_plane_files_exit_2(tmp_path, capsys):
    # the mixing bound and the incidence cap are those of AG(3,q): files of
    # AG(2,3) are refused, not judged against them
    (tmp_path / "a.pts").write_text("3 2 points\n0 0\n1 0\n2 0\n0 1\n")
    (tmp_path / "b.lines").write_text("3 2 lines\n1 0 0 0\n0 1 0 0\n")
    code, out = run(["incidence", "check", "--points", str(tmp_path / "a.pts"),
                     "--lines", str(tmp_path / "b.lines")], capsys)
    assert code == 2
    assert out == ""


def test_hermitian_build(capsys):
    code, out = run(["hermitian", "build", "--p", "2", "--n", "2"], capsys)
    assert code == 0
    vals = json.loads(out)["rows"][0]["values"]
    assert vals["points"] == 9 == vals["formula"]


def test_hermitian_build_composite_root(capsys):
    # --p is r = sqrt(q), any prime power: r = 4 builds the surface over GF(16)
    code, out = run(["hermitian", "build", "--p", "4", "--n", "3"], capsys)
    assert code == 0
    vals = json.loads(out)["rows"][0]["values"]
    assert (vals["q"], vals["points"], vals["formula"], vals["rank"]) == (16, 1105, 1105, 4)


def test_hermitian_build_negative_n_exits_2(capsys):
    assert main(["hermitian", "build", "--p", "2", "--n", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "n = -1 is negative" in err


def test_harness_records(tmp_path, capsys):
    out_path = tmp_path / "r.jsonl"
    code, _ = run(["nikodym", "harness", "--generator", "uniform", "--q", "3",
                   "--trials", "2", "--seed", "5", "--lines", "15",
                   "--out", str(out_path)], capsys)
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2


def test_csv_format(capsys):
    code, out = run(["incidence", "spectrum", "--q", "2", "--format", "csv"],
                    capsys)
    assert code == 0
    assert out.splitlines()[0] == "name,status,claim,values"


def test_suite_deterministic(tmp_path, capsys):
    rep = tmp_path / "suite.json"
    assert main(["suite", "--max-q", "4", "--seed", "1",
                 "--report", str(rep)]) == 0
    first = rep.read_text()
    assert main(["suite", "--max-q", "4", "--seed", "1",
                 "--report", str(rep)]) == 0
    assert rep.read_text() == first
    data = json.loads(first)
    assert data["failed"] == []
    assert all(r["status"] in ("pass", "reported") for r in data["rows"])
    assert all("claim" in r for r in data["rows"])
    assert (tmp_path / "suite.json.timing").exists()


DATA = Path(__file__).parent / "data"


def python_optimized(*args, **kwargs):
    """Run python in a subprocess under `python -O`, which strips every
    assert, with this fqgeom on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                          **kwargs)


def run_optimized(argv, **kwargs):
    """Run the CLI under `python -O`."""
    return python_optimized("-m", "fqgeom.cli", *argv, **kwargs)


def test_kakeya_build_huge_order_exits_2_at_once():
    # q = 10^18 + 3 has no tabled field: refused before the trial division
    # for its prime, which would run for minutes
    proc = run_optimized(["kakeya", "build", "--q", "1000000000000000003"], timeout=30)
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"over 1024" in proc.stderr


def test_hermitian_build_too_large_exits_2():
    # PG(3, 961) would need about 28 GB: refused with exit 2 at once.  Run
    # in a subprocess, so the GF(961) tables built first stay out of this one
    proc = run_optimized(["hermitian", "build", "--p", "31", "--n", "3"])
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"over the limit" in proc.stderr


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    # running out of memory decides no claim, so it is not exit 1
    def verify_nikodym(pset):
        raise MemoryError("no room")

    monkeypatch.setattr("fqgeom.nikodym.verify_nikodym", verify_nikodym)
    path = tmp_path / "s.pts"
    path.write_text("3 3 points\n0 0 0\n")
    assert main(["nikodym", "verify", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory: no room\n"


OUT_OF_MEMORY_SCRIPT = """
import sys
import numpy as np
from fqgeom import nikodym
from fqgeom.cli import main

def verify_nikodym(pset):
    # 4 EiB is past any address space: numpy raises its _ArrayMemoryError
    return np.empty(1 << 62, dtype=np.uint8)

nikodym.verify_nikodym = verify_nikodym
with open("s.pts", "w") as fh:
    fh.write("3 3 points\\n0 0 0\\n")
sys.exit(main(["nikodym", "verify", "--in", "s.pts"]))
"""


def test_out_of_memory_exits_3_under_optimize(tmp_path):
    proc = python_optimized("-c", OUT_OF_MEMORY_SCRIPT, cwd=tmp_path)
    assert proc.returncode == 3 and proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate")


WORKLOAD_CALLS_SCRIPT = """
import contextlib, io, json, sys
from fractions import Fraction
from fqgeom.cli import main
from fqgeom.geom import LineFamily, PointSet, affine_space
from fqgeom.incidence import mixing_discrepancy_check
from fqgeom.io import load_pointset, save_pointset
from fqgeom.kakeya import fractional_pipeline, verify_kakeya
sp = affine_space(5, 3)
save_pointset(PointSet(5, 3, range(10, 125)), "fm.pts")
with contextlib.redirect_stdout(io.StringIO()):
    main(["kakeya", "build", "--q", "5", "--construction", "thin", "--out", "thin.pts"])
    for path in ("thin.pts", "fm.pts"):
        main(["kakeya", "verify", "--in", path])
    main(["nikodym", "verify", "--in", "fm.pts", "--extract-witness", "w.json"])
K = load_pointset("thin.pts")
mixing_discrepancy_check(K, LineFamily(sp, verify_kakeya(K).lines.values()))
with open("w.json") as fh:
    assignment = json.load(fh)["assignment"]
mixing_discrepancy_check(load_pointset("fm.pts"),
                         LineFamily(sp, [tuple(v) for v in assignment.values()]))
fractional_pipeline(9, 1, Fraction(1, 2), 1)
print(sorted(m for m in ("numpy.ma",) if m in sys.modules))
"""


def test_workload_calls_leave_numpy_ma_unimported(tmp_path):
    # the package calls of the benchmark's verify and pipeline workloads at
    # small q; numpy.ma, which np.unique imports, would add 0.7 MB to their
    # peak RSS, more than the benchmark's 0.1 MB bound
    proc = python_optimized("-c", WORKLOAD_CALLS_SCRIPT, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["[]"]


_HWM_CHILD = """
import contextlib, io, sys
from fqgeom.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
# VmHWM is this process's own peak, which ru_maxrss is not: it carries
# the peak of the process that forked it across exec
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, hwm)
"""


def test_hermitian_build_memory_bound():
    """The Hermitian surface of PG(3,81), 538,084 points, builds under
    130 MB peak RSS: it is a mask over point ids, and a coordinate tuple
    per point of PG(3,81) would add about 40 MB."""
    proc = python_optimized("-c", _HWM_CHILD, "hermitian", "build", "--p", "9", "--n", "3",
                            check=True)
    code, hwm_kb = map(int, proc.stdout.split())
    assert code == 0
    assert hwm_kb < 130 * 1024


def test_kakeya_verify_too_large_space_exits_2(tmp_path):
    # AG(3, 1021) has 1.06 * 10^9 points, and verifying a set in it would
    # build a label grid of about 8.5 GB: refused with exit 2 as the file is
    # read.  Run in a subprocess, like the Hermitian case above
    pts = tmp_path / "big.pts"
    pts.write_text("1021 3 points\n0 0 0\n")
    proc = run_optimized(["kakeya", "verify", "--in", str(pts)])
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"over the limit" in proc.stderr


def test_suite_stdout_matches_committed_output(capsys):
    # the output of `fqgeom suite --max-q 5 --seed 1` is pinned byte for
    # byte, in process and under `python -O`, which strips every assert
    golden = (DATA / "suite_max_q5_seed1.json").read_bytes()
    argv = ["suite", "--max-q", "5", "--seed", "1"]
    code, out = run(argv, capsys)
    assert code == 0
    assert out.encode() == golden
    proc = run_optimized(argv)
    assert proc.returncode == 0
    assert proc.stdout == golden


# the projective, Hermitian and point-file paths, pinned the same way: each
# command's --out file byte for byte, and its report rows (the report's
# config echoes the --out path) in tests/data/<name>.rows.json.  A command
# without --out (the `.json` names) has its whole stdout pinned instead.
GOLDEN_OUTPUTS = {
    "tangent_p2_alpha1-2_seed3.lines":
        ["hermitian", "tangent-family", "--p", "2", "--alpha", "1/2", "--seed", "3"],
    "tangent_p3_alpha1-8_seed1.lines":
        ["hermitian", "tangent-family", "--p", "3", "--alpha", "1/8", "--seed", "1"],
    # alpha*|V| < 1: no point sampled, an empty family with occupancy 0
    "tangent_p2_alpha1-64_seed1.lines":
        ["hermitian", "tangent-family", "--p", "2", "--alpha", "1/64", "--seed", "1"],
    "harness_hermitian_q4_seed7.jsonl":
        ["nikodym", "harness", "--generator", "hermitian", "--q", "4",
         "--trials", "5", "--seed", "7"],
    # GF(16), where sqrt(q) = 4 is not prime
    "tangent_p4_alpha1-8_seed1.lines":
        ["hermitian", "tangent-family", "--p", "4", "--alpha", "1/8", "--seed", "1"],
    "harness_hermitian_q16_seed7.jsonl":
        ["nikodym", "harness", "--generator", "hermitian", "--q", "16",
         "--trials", "2", "--seed", "7"],
    "harness_conic_dual_q7_seed7.jsonl":
        ["nikodym", "harness", "--generator", "conic-dual", "--q", "7",
         "--trials", "1", "--seed", "7"],
    # the seeded random generators; at cap 3 the first trial rejects 206
    # candidate lines, so the plane cap decides which lines are drawn
    "harness_uniform_q5_seed7.jsonl":
        ["nikodym", "harness", "--generator", "uniform", "--q", "5",
         "--trials", "3", "--seed", "7"],
    "harness_plane_capped_q5_cap3_seed7.jsonl":
        ["nikodym", "harness", "--generator", "plane-capped", "--q", "5",
         "--trials", "3", "--seed", "7", "--plane-cap", "3"],
    "kakeya_qr_q7.pts": ["kakeya", "build", "--q", "7", "--construction", "qr"],
    "kakeya_thin_q9.pts": ["kakeya", "build", "--q", "9", "--construction", "thin"],
    # the fractional pipeline at the benchmark's five (q, u, alpha) cases,
    # with the CLI's retry cap of 1000 draws: the seeded draws and repair
    # passes are pinned through the stage, the accepted size and attempts
    "pipeline_q9_u1_alpha1-2_seed1.json":
        ["kakeya", "pipeline", "--q", "9", "--u", "1", "--alpha", "1/2", "--seed", "1"],
    "pipeline_q11_u1_alpha1-2_seed1.json":
        ["kakeya", "pipeline", "--q", "11", "--u", "1", "--alpha", "1/2", "--seed", "1"],
    "pipeline_q13_u1_alpha1-2_seed1.json":
        ["kakeya", "pipeline", "--q", "13", "--u", "1", "--alpha", "1/2", "--seed", "1"],
    "pipeline_q13_u1_alpha4-5_seed1.json":
        ["kakeya", "pipeline", "--q", "13", "--u", "1", "--alpha", "4/5", "--seed", "1"],
    "pipeline_q9_u2_alpha1-3_seed1.json":
        ["kakeya", "pipeline", "--q", "9", "--u", "2", "--alpha", "1/3", "--seed", "1"],
    # the covering bound for kq planes, one family per generator and seed
    **{f"planes_cover_{gen}_q{q}_k{k}_seeds{seeds}_seed{seed}.json":
       ["incidence", "planes-cover", "--q", q, "--k", k, "--gen", gen,
        "--seeds", seeds, "--seed", seed]
       for gen in ("pencil", "parallel", "random")
       for q, k, seeds, seed in (("5", "2", "3", "5"), ("9", "3", "2", "1"))},
}


def report_rows(stdout: bytes) -> bytes:
    rows = json.loads(stdout)["rows"]
    return (json.dumps(rows, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_outputs_match_committed_files(name, tmp_path, capsys):
    golden = (DATA / name).read_bytes()
    if name.endswith(".json"):
        argv = GOLDEN_OUTPUTS[name]
        code, out = run(argv, capsys)
        assert code == 0
        assert out.encode() == golden
        proc = run_optimized(argv)
        assert proc.returncode == 0
        assert proc.stdout == golden
        return
    argv = GOLDEN_OUTPUTS[name] + ["--out", str(tmp_path / name)]
    rows = (DATA / (name.rsplit(".", 1)[0] + ".rows.json")).read_bytes()
    code, out = run(argv, capsys)
    assert code == 0
    assert report_rows(out.encode()) == rows
    assert (tmp_path / name).read_bytes() == golden
    (tmp_path / name).unlink()
    proc = run_optimized(argv)
    assert proc.returncode == 0
    assert report_rows(proc.stdout) == rows
    assert (tmp_path / name).read_bytes() == golden


def test_tangent_p4_lines_meet_variety_at_most_once():
    # each pinned GF(16) line, read token by token, meets the affine chart
    # 1 + N(x1) + N(x2) + N(x3) = 0 of the identity surface, N(x) = x^5,
    # in at most one point, and no line is listed twice
    from fqgeom.gf import field_of_order

    ctx = field_of_order(16)

    def code(tok):
        return int(tok.replace("-", ""), 2)  # base-2 digits, high first

    head, *rows = (DATA / "tangent_p4_alpha1-8_seed1.lines").read_text().splitlines()
    assert head == "16 3 lines"
    assert len(rows) == len(set(rows)) == 1650
    for row in rows:
        vals = [code(t) for t in row.split()]
        d, b = vals[:3], vals[3:]
        hits = 0
        for t in range(16):
            acc = 1
            for di, bi in zip(d, b):
                acc = ctx.add(acc, ctx.pow(ctx.add(bi, ctx.mul(t, di)), 5))
            hits += acc == 0
        assert hits <= 1, row


def test_tangent_family_p5_matches_committed_rows(tmp_path, capsys):
    # GF(25): 409 sampled points and 8180 lines, each line's q+1 planes
    # counted for the occupancy; the 196 KB --out file is pinned by hash
    out = tmp_path / "tangent_p5.lines"
    code, stdout = run(["hermitian", "tangent-family", "--p", "5", "--alpha", "1/8",
                        "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    assert report_rows(stdout.encode()) == (
        DATA / "tangent_p5_alpha1-8_seed1.rows.json").read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fb03c66feb6b97f3f64d2a100f2eb5607c74d27affcc6015c6bf861c567c4b1e")


# the benchmark's pipeline cases with its own retry caps, which the CLI does
# not take: the library call is pinned, in process and under `python -O`
PIPELINE_CAPS_SCRIPT = """
import json
from fractions import Fraction
from fqgeom.kakeya import fractional_pipeline
cases = [(9, 1, "1/2", 2), (11, 1, "1/2", 40), (13, 1, "1/2", 1),
         (13, 1, "4/5", 1), (9, 2, "1/3", 40)]
reps = [fractional_pipeline(q, u, Fraction(a), 1, retry_cap=cap).to_dict()
        for q, u, a, cap in cases]
print(json.dumps(reps, sort_keys=True, indent=2))
"""


def test_pipeline_benchmark_caps_match_committed_output(capsys):
    golden = (DATA / "pipeline_benchmark_caps_seed1.json").read_bytes()
    exec(PIPELINE_CAPS_SCRIPT, {})
    assert capsys.readouterr().out.encode() == golden
    proc = python_optimized("-c", PIPELINE_CAPS_SCRIPT)
    assert proc.returncode == 0
    assert proc.stdout == golden


CLAIM_CHECKS_SCRIPT = """
from fractions import Fraction
from fqgeom import cli, kakeya
kakeya.verify_kakeya = lambda K: kakeya.MissingDirections(K.q, [0])
try:
    kakeya.fractional_pipeline(5, 1, "1/2", 1)
except AssertionError as e:
    print("pipeline:", e)
try:
    kakeya.integer_multiplicity_bound(5, 3, 0)
except ValueError as e:
    print("bound:", e)
kakeya.fractional_coefficient = lambda m, u=1: Fraction(0)
try:
    kakeya.optimize_fractional_bound()
except AssertionError as e:
    print("optimum:", e)
try:
    cli._row("kakeya-verify", "a claim", "passed")
except AssertionError as e:
    print("row:", e)
"""


def test_kakeya_claim_checks_survive_optimize():
    # a construction that fails verification, a multiplicity below 1, a
    # fractional optimum that does not beat 5/24 and a report row with an
    # unknown status are refused under `python -O` too, where an assert
    # would be stripped
    proc = python_optimized("-c", CLAIM_CHECKS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "pipeline: qr construction failed verification at q = 5",
        "bound: multiplicity m = 0 must be at least 1",
        "optimum: fractional optimum 0.0 does not beat 5/24",
        "row: row status 'passed' is not pass, fail or reported",
    ]


NIKODYM_CHECKS_SCRIPT = """
import numpy as np
from fqgeom import nikodym
from fqgeom.geom import LineFamily, MismatchedField, PointSet, affine_space
from fqgeom.incidence import cover_fraction_check
sp = affine_space(5, 3)
witness = nikodym.verify_nikodym(PointSet.full(5))
LineFamily.max_plane_occupancy = lambda self: (0, 100)
try:
    nikodym.coplanar_line_bound_check(witness)
except AssertionError as e:
    print("coplanar:", e)
nikodym.mixing_bound_holds = lambda *args: False
try:
    nikodym.nikodym_complement_bound_check(nikodym.verify_nikodym(PointSet(5, 3, range(1, 125))))
except AssertionError as e:
    print("complement:", e)
sp3 = affine_space(3, 3)
L = LineFamily(sp3, np.concatenate([sp3.lines_in_plane(0), sp3.lines_in_plane(3)]))
try:
    nikodym.union_lower_bound_check(L)
except AssertionError as e:
    print("union:", e)
try:
    cover_fraction_check(5, lines=LineFamily(sp, sp.all_lines()[:10]))
except MismatchedField as e:
    print("cover:", e)
nikodym.sqrt = lambda x: 0.0
try:
    nikodym.golden_ratio_threshold()
except AssertionError as e:
    print("golden:", e)
"""


def test_nikodym_claim_checks_survive_optimize():
    # a plane over the coplanar bound, a broken mixing bound, a family over
    # the wrong space and a threshold equation without a root in [0.5, 0.7]
    # are refused under `python -O` too
    proc = python_optimized("-c", NIKODYM_CHECKS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "coplanar: plane 0 holds 100 lines > bound 17.180",
        "complement: 4 witness incidences break the mixing bound",
        "union: union of 15 points is below the mixing bound 27",
        "cover: lines over q=5,n=3; need q=5,n=2",
        "golden: (1-x) + sqrt(1-x) - 1 does not change sign on [0.5, 0.7]",
    ]


INCIDENCE_CHECKS_SCRIPT = """
import numpy as np
from fqgeom import geom, hermitian, incidence
from fqgeom.geom import LineFamily, PointSet, affine_space
sp = affine_space(3, 3)
pieces = incidence._mixing_pieces
incidence._mixing_pieces = lambda *args: pieces(*args)[:3] + (0,) + pieces(*args)[4:]
try:
    # the lines through the origin, whose index 0 is each one's least point
    incidence.mixing_discrepancy_check(PointSet(3, 3, [0]),
                                       LineFamily(sp, [(d, 0) for d in range(sp.ndirs)]))
except AssertionError as e:
    print("mixing:", e)
try:
    incidence.IncidenceStats(3, 1, 1, 4)
except AssertionError as e:
    print("stats:", e)
geom.AffineSpace.plane_points = lambda self, plane: []
try:
    incidence.cover_fraction_check(3, planes=range(6))
except AssertionError as e:
    print("cover:", e)
incidence.incidence_matrix = lambda q: np.eye(q ** 3, dtype=np.int64)
try:
    incidence.incidence_spectrum(3)
except AssertionError as e:
    print("spectrum:", e)
hermitian._root_q = lambda q: 2
try:
    hermitian.phi(1, 5)
except AssertionError as e:
    print("phi:", e)
"""


def test_incidence_claim_checks_survive_optimize():
    # a mixing inequality with a zero spectral radius, more incidences than
    # the lines and points can hold, a plane family that covers nothing, a
    # numeric spectrum off the closed form and a Hermitian count that is
    # not an integer are refused under `python -O` too, where an assert
    # would be stripped
    proc = python_optimized("-c", INCIDENCE_CHECKS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "mixing: mixing inequality violated at q=3: lhs=0.03292181069958848, rhs=0.0",
        "stats: 4 incidences exceed the cap 3",
        "cover: cover bound violated: 0 < 9.0",
        "spectrum: numeric singular value 1.0 is not 6.244997998398398",
        "phi: q - 1 = 4 does not divide 9",
    ]


WIDTH_CHECKS_SCRIPT = """
import numpy as np
from fqgeom import gf, linalg, poly
narrowest = gf.exact_dtype
linalg.exact_dtype = poly.exact_dtype = lambda bound, widths=gf.INT_WIDTHS: narrowest(
    bound << 64, widths)
try:
    linalg.rref(np.eye(3, dtype=np.int64), gf.field_of_order(5))
except gf.WidthExceeded as e:
    print("rref:", e)
try:
    poly.interpolate_vanishing([(0, 0, 0)], 1, [], 1, 1, q=5)
except gf.WidthExceeded as e:
    print("rows:", e)
try:
    basis = poly.MonomialBasis(3, 9, 1)
    poly.multiplicities(poly.MultiPoly(basis, [1] * len(basis)), [(0, 0, 0)])
except gf.WidthExceeded as e:
    print("shift:", e)
try:
    narrowest(gf.FLOAT_EXACT + 1, (np.float64,))
except gf.WidthExceeded as e:
    print("product:", e)
"""


def test_width_checks_survive_optimize():
    # an elimination, a constraint matrix and a GF(9) Taylor shift whose
    # bound is forced past int64, and a float64 product past 2^53, are
    # refused under `python -O` too, where an assert would be stripped
    proc = python_optimized("-c", WIDTH_CHECKS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        f"rref: bound {(4 + 3 * 4 ** 2) << 64} exceeds every width of int16, int32, int64",
        f"rows: bound {4 ** 2 << 64} exceeds every width of int16, int32, int64",
        f"shift: bound {9 * 2 * 2 ** 2 << 64} exceeds every width of int16, int32, int64",
        f"product: bound {2 ** 53 + 1} exceeds every width of float64",
    ]
