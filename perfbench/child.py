"""One pass of one workload, in a fresh interpreter.

    python3 child.py WORKLOAD SEED MODE SIZE SPAWNED_AT OUT_JSON

MODE is ``check`` (timed pass, then the exact output checks), ``plain``
(timed pass only) or ``trace`` (timed pass with spans and counters).
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from then until the imports are done and
the seeded inputs exist.  The result, with per-item output digests, goes
to OUT_JSON.
"""
import sys
import time

if __name__ == "__main__":
    import json
    import os
    import platform
    import resource
    import shutil
    import traceback

    import numpy

    import workloads

    name, seed, mode, size, spawned, out_path = sys.argv[1:7]
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: the package's asserts must stay live")
    setup, run, check = workloads.WORKLOADS[name]
    workdir = out_path + ".work"
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = setup(int(seed), size, workdir)
    setup_s = time.monotonic() - float(spawned)

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    start = time.perf_counter()
    outputs = run(inputs, workdir)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = workloads.digest
    items = {k: {"digest": digest(workloads.plain(v)),
                 "raised": v.text if isinstance(v, workloads.Raised) else None}
             for k, v in outputs.items()}
    if mode == "check":
        try:
            bad = check(inputs, outputs, workdir)
        except Exception:  # a check that cannot finish fails every item
            why = traceback.format_exc(limit=4)
            bad = {k: why for k in items}
        for k, why in bad.items():
            items[k]["bad"] = why

    result = {
        "workload": name, "seed": int(seed), "mode": mode, "size": size,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "input_digest": digest(inputs), "items": items,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "optimize": sys.flags.optimize,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    shutil.rmtree(workdir, ignore_errors=True)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
