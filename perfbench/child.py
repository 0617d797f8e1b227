"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.child workload=dse entry=repro.core.dse seed=0 \
        mode=cold warm=3 trace=0

``mode`` is ``prime`` (imports only), ``cold``, ``disk_cold`` or
``disk_warm``; the disk tier is whatever ``REPRO_CACHE_DIR`` the parent
set. The first sweep call is timed, then ``warm`` repeats of it in the
same process. The last line of standard output is one JSON object.

``setup_s`` times ``import repro`` plus the workload's entry module and
nothing else: this module imports only ``sys`` and ``time`` before it,
so the standard-library modules ``repro`` pulls in are paid inside the
timed import, as a user pays them.
"""

import sys
import time


def _setup(entry: str) -> float:
    start = time.perf_counter()
    __import__("repro")
    __import__(entry)
    return time.perf_counter() - start


def spin_s(iterations: int = 200_000) -> float:
    """A fixed pure-Python loop, timed: the host-drift probe.

    It is benchmark code, not ``repro`` code, so no change to the
    program can move it; only the host's speed can.
    """
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


def main(argv: list) -> int:
    opts = dict(arg.split("=", 1) for arg in argv)
    setup_s = _setup(opts["entry"])

    import json
    import os
    import resource
    import traceback

    out: dict = {"setup_s": setup_s}
    try:
        import repro
        src = os.path.realpath(os.path.join(os.getcwd(), "src"))
        if not os.path.realpath(repro.__file__).startswith(src + os.sep):
            raise RuntimeError(f"repro imported from {repro.__file__}, "
                               f"not from {src}")
        if opts["mode"] != "prime":
            out.update(_sample(opts))
    except Exception:  # reported to the parent, which counts a failure
        out["error"] = traceback.format_exc()
    out.setdefault("peak_rss_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 1 if "error" in out else 0


def _sample(opts: dict) -> dict:
    import importlib
    import resource

    from perfbench import workloads
    from perfbench.tracer import Tracer, TARGETS, chrome_events, traced_call

    workload = workloads.WORKLOADS[opts["workload"]]
    call = workload.make_call(int(opts["seed"]))
    warm_reps = int(opts.get("warm", "0"))
    traced = opts.get("trace") == "1"
    # The drift probe runs before the first call and after every call.
    out: dict = {"spins": [spin_s()]}

    if traced or opts.get("preimport") == "1":
        # Both sides of the trace-overhead comparison load every traced
        # module up front, so they differ only by the wrappers.
        for target in TARGETS:
            importlib.import_module(target.module)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    def timed():
        if tracer is not None:
            return traced_call(tracer, call)
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start, None

    rows, first_s, layers = timed()
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["first_s"] = first_s
    out["digests"] = [workloads.digest(rows)]
    out["spins"].append(spin_s())
    phases = {opts["mode"]: layers}
    events = chrome_events(tracer.spans, opts["mode"]) if tracer else []

    out["warm_s"] = []
    for _ in range(warm_reps):
        rows, warm_s, layers = timed()
        out["warm_s"].append(warm_s)
        out["digests"].append(workloads.digest(rows))
        out["spins"].append(spin_s())
        phases["warm"] = layers
    if tracer is not None:
        out["phases"] = phases
        out["unwrapped"] = tracer.unwrapped_bindings()
        if warm_reps:
            events += chrome_events(tracer.spans, "warm")
        if opts.get("spans"):
            import json
            with open(opts["spans"], "w") as fh:
                json.dump(events, fh)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
