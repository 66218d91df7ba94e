"""Benchmark of fqgeom: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh child process,
one at a time, so the package's caches start empty as in a CLI call.  For
``--seconds`` seconds (and at least MIN_PASSES passes) the benchmark runs
untraced passes of the workload and reports the medians of

* ``wall_s``      -- the timed pass over the workload's item list,
* ``peak_rss_mb`` -- ``ru_maxrss`` of the child right after that pass,
* ``setup_s``     -- child start until imports are done and inputs exist.

The first pass re-checks every item's output exactly; later passes must
reproduce its per-item output digests.  Items that fail a check, raise or
differ count in ``failed``.  With ``--trace 1`` one more pass runs with
spans and counters around the package's functions, and the last line
carries the per-layer metrics instead; the spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``--workload all`` runs
every workload in turn and prints every metric prefixed by its workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class BenchError(RuntimeError):
    pass


def child_env():
    """The child's environment: the package from this checkout, one BLAS
    thread, a fixed hash seed, and asserts left on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONOPTIMIZE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode, size="full", outdir=OUT):
    """Run one pass in a fresh child process and return its result."""
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / f"pass-{workload}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, size]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned), str(out)], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def failed_items(passes):
    """Items of each pass that raised, failed the exact check (first pass)
    or differ from the first pass's output."""
    ref = passes[0]["items"]
    failed = 0
    for res in passes:
        for name, item in res["items"].items():
            if (item["raised"] or item.get("bad")
                    or name not in ref or item["digest"] != ref[name]["digest"]):
                failed += 1
        failed += len(set(ref) - set(res["items"]))
        if res["input_digest"] != passes[0]["input_digest"]:
            raise BenchError("the same seed gave different inputs")
    return failed


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload, seed, seconds, trace, log):
    """Untraced passes for ``seconds``, then a traced pass if asked."""
    start = time.monotonic()
    passes = [spawn(workload, seed, "check")]
    last = 0.0
    # stop before a pass that would end past the budget
    while len(passes) < MIN_PASSES or time.monotonic() - start + last < seconds:
        t = time.monotonic()
        passes.append(spawn(workload, seed, "plain"))
        last = time.monotonic() - t
    traced = spawn(workload, seed, "trace") if trace else None

    env = passes[0]["env"]
    if env["optimize"] or int(env["blas_threads"]["OPENBLAS_NUM_THREADS"]) > env["nproc"]:
        raise BenchError(f"child environment not as required: {env}")
    checked = passes + ([traced] if traced else [])
    attempted = sum(len(p["items"]) for p in checked)
    failed = failed_items(checked)
    for p in passes:
        for name, item in p["items"].items():
            if item["raised"] or item.get("bad"):
                log(f"# FAILED {workload}/{name}: {item.get('bad') or item['raised']}")

    e2e = {}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles([p[name] for p in passes])
        e2e[name] = {"value": med, "unit": unit}
        log(f"{workload} {name} median={med:.4f} {unit} q1={q1:.4f} q3={q3:.4f} "
            f"passes={len(passes)}")
    log(f"{workload} fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    log(f"# {workload} inputs sha256={passes[0]['input_digest']} seed={seed} "
        f"env={json.dumps(env, sort_keys=True)}")

    layers = None
    if traced is not None:
        overhead = traced["wall_s"] - e2e["wall_s"]["value"]
        traced["layers"]["trace.overhead_s"] = overhead
        from spans import PER_LAYER

        layers = {name: {"value": traced["layers"][name], "unit": unit}
                  for name, unit in PER_LAYER}
        path = OUT / f"trace-{workload}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "env": traced["env"],
                       "untraced_wall_s": e2e["wall_s"]["value"],
                       "traced_wall_s": traced["wall_s"], "layers": layers,
                       "absent": traced["absent"],
                       "spans_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": traced["spans"]}, fh)
        log(f"# {workload} traced wall {traced['wall_s']:.3f} s, overhead "
            f"{overhead:.3f} s, {len(traced['spans'])} spans, absent: "
            f"{traced['absent'] or 'none'} -> {path.relative_to(ROOT)}")
    return {"attempted": attempted, "failed": failed, "e2e": e2e, "layers": layers}


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, print)
        attempted += res["attempted"]
        failed += res["failed"]
        chosen = res["layers"] if args.trace else res["e2e"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "fqgeom" / "__init__.py").is_file():
        sys.exit(f"error: no fqgeom sources under {ROOT / 'src'}; run from a full checkout")
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.exit(f"error: {e}")
