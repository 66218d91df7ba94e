"""Which functions of src/fqgeom no command and no benchmark workload calls.

Every CLI subcommand runs at small q, once for each value of its choice
flags, and the four benchmark workloads run their setup, run and check at
"smoke" size, all under sys.setprofile.  The functions never called must
be exactly UNREACHED: each entry is tagged with the ROADMAP item that will
give it a command (2 or 3), or is an input check that only malformed files
reach.  A function is keyed by its module and co_qualname, which names
methods, properties and nested functions alike.

    PYTHONPATH=src python3 -m pytest -q tests/test_reachability.py
"""
import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import fqgeom
from fqgeom import cli

SRC = Path(fqgeom.__file__).parent
PERFBENCH = Path(__file__).parent.parent / "perfbench"

UNREACHED = {
    "geom:AffineSpace._grid": "3",
    "incidence:mixing_bound_holds": "3",
    "io:_parse_rows": "input check",
    "io:_token_to_elem": "input check",
    "nikodym:_leq_f2_bound": "3",
    "nikodym:coplanar_line_bound_check": "3",
    "nikodym:f2_bound": "3",
    "nikodym:nikodym_complement_bound_check": "3",
    "nikodym:union_lower_bound_check": "3",
    "poly:MultiPoly.evaluate": "2",
    "poly:MultiPoly.total_degree": "2",
    "poly:UniPoly.degree": "2",
    "poly:UniPoly.evaluate": "2",
    "poly:UniPoly.is_zero": "2",
    "poly:UniPoly.multiplicity_at": "2",
    "poly:homogeneous_top": "2",
    "poly:is_identically_zero_on_space": "2",
}

# --construction takes no argparse choices; the CLI knows these two
CONSTRUCTIONS = ("qr", "thin")


def all_functions():
    """module:qualname of every named function defined in src/fqgeom."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            # functions, not class bodies, lambdas or comprehensions
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out.add(f"{path.stem}:{code.co_qualname}")
            todo += [c for c in code.co_consts if hasattr(c, "co_qualname")]
    return out


def commands(tmp):
    """One argv per subcommand and value of its choice flags, at small q."""
    pts, lines = tmp / "n.pts", tmp / "n.lines"
    pts.write_text("3 3 points\n" + "".join(
        f"{a} {b} {c}\n" for a in range(3) for b in range(3) for c in range(3) if a or b or c))
    lines.write_text("3 3 lines\n1 0 0 0 0 0\n0 1 2 0 0 1\n")
    out = [
        ["poly", "count", "--n", "3", "--q", "3", "--m", "3/2"],
        ["kakeya", "verify", "--in", str(pts)],
        ["kakeya", "optimize"],
        ["nikodym", "verify", "--in", str(pts), "--extract-witness", str(tmp / "w.json")],
        ["nikodym", "conic-family", "--q", "5"],
        ["nikodym", "threshold"],
        ["hermitian", "build", "--p", "2", "--n", "3"],
        ["hermitian", "tangent-family", "--p", "2", "--alpha", "1/2", "--seed", "1",
         "--out", str(tmp / "t.lines")],
        ["incidence", "spectrum", "--q", "3"],
        ["incidence", "bound", "--q", "3", "--np", "10", "--nl", "20"],
        ["incidence", "check", "--points", str(pts), "--lines", str(lines)],
        ["suite", "--max-q", "5", "--seed", "1"],
    ]
    for kind in CONSTRUCTIONS:
        out.append(["kakeya", "build", "--q", "5", "--construction", kind,
                    "--out", str(tmp / f"{kind}.pts")])
        out.append(["kakeya", "pipeline", "--q", "5", "--u", "1", "--alpha", "1/2",
                    "--seed", "1", "--construction", kind])
    for gen, q in (("uniform", 5), ("plane-capped", 5), ("conic-dual", 5), ("hermitian", 4)):
        out.append(["nikodym", "harness", "--generator", gen, "--q", str(q), "--trials", "1",
                    "--seed", "1", "--out", str(tmp / f"{gen}.jsonl")])
    for gen in ("pencil", "parallel", "random"):
        out.append(["incidence", "planes-cover", "--q", "5", "--k", "2", "--gen", gen])
    return out


def subcommands_and_choices(parser, path=()):
    """The command paths of the parser, such as ("kakeya", "build"), and the
    values of every choice flag other than --format, as (flag, value)
    pairs."""
    paths, choices = set(), set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                more = subcommands_and_choices(sub, path + (name,))
                paths |= more[0]
                choices |= more[1]
            return paths, choices
        if action.choices and action.option_strings != ["--format"]:
            choices |= {(action.option_strings[0], c) for c in action.choices}
    return {path}, choices


# the profiled runs, in a fresh process: a function behind an lru_cache or
# a cached_property that an earlier test filled would not be called again
CHILD = """
import contextlib, io, json, os, sys
from pathlib import Path
argvs, src = json.loads(sys.argv[1]), sys.argv[2]
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        called.add(f"{Path(code.co_filename).stem}:{code.co_qualname}")

sys.setprofile(profile)
from fqgeom import cli
import workloads
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(a) for a in argvs]
for name, (setup, run, check) in sorted(workloads.WORKLOADS.items()):
    os.mkdir(name)
    inputs = setup(1, "smoke", name)
    check(inputs, run(inputs, name), name)
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def test_unreached_functions_are_the_allow_list(tmp_path):
    argvs = commands(tmp_path)
    paths, choices = subcommands_and_choices(cli.build_parser())
    flags = {(a[i], a[i + 1]) for a in argvs for i in range(len(a) - 1)}
    assert paths <= {tuple(a[:len(p)]) for a in argvs for p in paths}
    assert choices | {("--construction", c) for c in CONSTRUCTIONS} <= flags

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), str(PERFBENCH), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs), str(SRC)],
                          cwd=tmp_path, env=env, capture_output=True, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(argvs)
    assert set(UNREACHED.values()) <= {"2", "3", "input check"}
    unreached = all_functions() - set(got["called"])
    assert unreached == set(UNREACHED), (
        f"now reached: {sorted(set(UNREACHED) - unreached)}; "
        f"now unreached: {sorted(unreached - set(UNREACHED))}")
