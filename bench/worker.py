"""One fresh benchmark process.

    python bench/worker.py '<json job>'

The job names the checkout root, the workload, the mode, the run length and
the seed.  The worker imports ``nugrass`` from ``<root>/src``, makes the
workload's warm-up call and prints ``READY`` with the speed probes taken
meanwhile (see ``speed.py``); the parent times set-up up to that line.
Mode ``setup`` stops there.  Mode ``timed`` then makes suite calls for the
run length and mode ``traced`` makes untraced/traced pairs on offset 0.  The
last line of stdout is a JSON object with what was measured.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from speed import Sampler, probe, scale

MIN_CALLS = 3


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nugrass

    where = os.path.realpath(nugrass.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"nugrass was imported from {where}, not from {src}")


def _suite_call(wl, offset, span, sampler=None):
    """One suite call: wall time up to the serialized report, then checks.

    With a speed sampler, ``scaled_s`` is the wall time less the sampler's
    own time, at the reference speed.
    """
    from workloads import digest

    t0 = time.perf_counter()
    try:
        with sampler or nullcontext(), span("suite"):
            payloads = wl.run(offset, span)
    except Exception as exc:  # a raising suite call is a counted failure
        traceback.print_exc()
        return {"offset": offset, "seconds": time.perf_counter() - t0,
                "payloads": None, "problems": [f"raised {exc!r}"]}
    call = {"offset": offset, "seconds": time.perf_counter() - t0, "payloads": payloads,
            "digest": digest(payloads), "problems": wl.check(payloads)}
    if sampler:
        probes = sampler.probes or [probe()]
        call.update(probe_s=sampler.spent, probes=len(probes), probe_mean_s=sum(probes) / len(probes),
                    scaled_s=(call["seconds"] - sampler.spent) * scale(probes))
    return call


def _strip(call):
    call.pop("payloads", None)
    return call


def timed(wl, job):
    """Suite calls on seed-chosen offsets, each under a speed sampler, until
    the next call would overrun the run length."""
    from workloads import no_span

    offsets = random.Random(job["seed"]).sample(range(wl.pool), wl.pool)
    calls, start = [], time.perf_counter()
    while True:
        offset = offsets[len(calls) % len(offsets)]
        calls.append(_strip(_suite_call(wl, offset, no_span, Sampler())))
        times = sorted(c["seconds"] for c in calls)
        elapsed = time.perf_counter() - start
        if len(calls) >= MIN_CALLS and elapsed + times[len(times) // 2] > job["seconds"]:
            break
    return {"calls": calls,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced(wl, tracer, job):
    """Pairs of one untraced and one traced call on offset 0, for half the
    run length; the parent runs this twice and compares the counts."""
    from workloads import gating_samples, no_span

    setup = {key: st[:] for key, st in tracer.stats.items()}
    pairs, start = [], time.perf_counter()
    while not pairs or time.perf_counter() - start < job["seconds"] / 2:
        tracer.uninstall()
        plain = _strip(_suite_call(wl, 0, no_span))
        tracer.install()
        tracer.reset()
        call = _suite_call(wl, 0, tracer.span)
        spans = tracer.spans
        kind = {rec[0]: rec[2] for rec in spans}
        call["minor_trials"] = sum(1 for rec in spans
                                   if rec[2] == "atlas.minor_inv" and kind.get(rec[1]) == "action.act")
        call["accepted"] = gating_samples(call["payloads"]) if call["payloads"] else 0
        call["stats"] = {key: st[:] for key, st in tracer.stats.items()}
        if not pairs:
            call["spans"] = [rec[:] for rec in spans]
        pairs.append({"untraced": plain, "traced": _strip(call)})
    tracer.uninstall()
    return {"setup_stats": setup, "pairs": pairs, "bindings": tracer.bindings}


def main():
    job = json.loads(sys.argv[1])
    # the traced run times layers, not set-up, so it runs without the probe
    sampler = Sampler() if job["mode"] != "traced" else None
    with sampler or nullcontext():
        _import_package(job["root"])
        from workloads import WORKLOADS

        wl = WORKLOADS[job["workload"]]
        tracer = None
        if job["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wl.warm_up()
    ready = {"probe_s": sampler.spent, "probes": sampler.probes} if sampler else {}
    print("READY " + json.dumps(ready), flush=True)
    if job["mode"] == "setup":
        return
    out = traced(wl, tracer, job) if tracer else timed(wl, job)
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    out.update(sympy=sympy.__version__, ground_types=GROUND_TYPES)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
