"""Benchmark of the nugrass verification suites: time to verdict.

    python3 bench/run.py --workload cocycle --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every measurement runs in a fresh worker process (``bench/worker.py``), one
at a time, with no threads.

``--trace 0`` reports the end-to-end metrics:

* ``verdict_s``: median wall time of one suite call up to its serialized
  report, over the calls made in ``--seconds`` (at least three);
* ``setup_s``: median over ``SETUP_PROCESSES`` fresh interpreters of the
  time from process start to ready (``import nugrass`` plus one warm-up call);
* ``peak_rss_mb``: peak resident memory of the process that made the calls.

Both times are scaled to the speed of an uncontended core by the probe in
``bench/speed.py``, sampled while they run; the raw wall times of the suite
calls are printed and recorded beside them.

``--trace 1`` reports the per-layer metrics of ``PER_LAYER`` from two
traced processes, which must give the same counts call for call and the
same report bytes as their untraced calls.  It also prints whether each
prediction in ``bench/predictions.json`` holds; a broken prediction is
shown, not failed, because a change to a layer is meant to move its counts.

A suite call fails when it raises, its gating verdict is not ok, its report
lacks the known structure, or its report bytes differ from the digest in
``bench/reference.json``.  ``failed_frac`` (failed / attempted suite calls)
is printed with the result; it is zero whenever the program is right, so it
is carried by ``attempted`` and ``failed`` rather than as a metric.  The last
stdout line is the JSON result; the exit code is 0 only when every check
passed.  Full records (environment, every call, spans) go to ``.bench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cocycle", "commutant", "action-r4")
SETUP_PROCESSES = 5
DEADLINE_S = 170.0

# traced functions with a call count and a self time, see bench/tracer.py
STAT_KEYS = (
    "superalgebra.grassmann_mul", "superalgebra.grassmann_addsub",
    "superalgebra.grassmann_inv", "superalgebra.lambda_sample",
    "superalgebra.rational_canon", "superalgebra.superfunction_mul",
    "superalgebra.superfunction_partial",
    "supermatrix.smat_inv", "supermatrix.smat_mul",
    "atlas.hop", "atlas.minor_inv", "atlas.sample_point", "atlas.transition_symbolic",
    "action.act", "action.gl_mul", "action.sample_gl", "action.witness",
    "nulie.fundamental_field", "nulie.rho_field", "nulie.nu_defect",
    "nulie.field_bracket", "nulie.in_span",
)
PER_LAYER = {}
for _key in STAT_KEYS:
    PER_LAYER.update({f"{_key}.calls": "count", f"{_key}.self_s": "s"})
PER_LAYER.update({
    "atlas.minor_inv.singular": "count",
    "atlas.accepted_samples": "count",
    "atlas.sample_accept_ratio": "ratio",
    "atlas.plan_status.calls": "count",
    "atlas.plan_status.self_s": "s",
    "action.act.minor_trials": "1/call",
    "nulie.rho_field.reuse": "ratio",
    "reports.to_json.self_s": "s",
    "trace.overhead_s": "s",
})


class BenchError(Exception):
    pass


def spawn(root: str, job: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its final JSON line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                            cwd=root, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if not line.startswith(b"READY "):
            raise BenchError(f"{job['mode']} worker did not get ready")
        ready = json.loads(line[len(b"READY "):])
        if ready:  # set-up time less the probes' own time, at the reference speed
            setup_s = (setup_s - ready["probe_s"]) * speed.scale(ready["probes"] or [speed.probe()])
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} worker exited with {proc.returncode}")
    lines = out.decode().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def call_problems(call: dict, reference: dict) -> list[str]:
    problems = list(call["problems"])
    want = reference.get(str(call["offset"]))
    if "digest" in call and call["digest"] != want:
        problems.append(f"report digest {call['digest'][:12]} differs from the "
                        f"recorded {str(want)[:12]} at offset {call['offset']}")
    return problems


def run_untraced(root, args, deadline):
    setup, out = [], None
    for i in range(SETUP_PROCESSES):
        mode = "timed" if i == SETUP_PROCESSES - 1 else "setup"
        job = {"root": root, "workload": args.workload, "mode": mode,
               "seconds": args.seconds, "seed": args.seed}
        s, out = spawn(root, job, deadline)
        setup.append(s)
    times = [c["seconds"] for c in out["calls"]]
    scaled = [c["scaled_s"] for c in out["calls"] if "scaled_s" in c] or times
    metrics = {
        "verdict_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
    }
    lo, _, hi = statistics.quantiles(scaled, n=4)
    notes = [f"verdict_s: {len(times)} suite calls, quartiles {lo:.4f} .. {hi:.4f} s; "
             f"raw wall median {statistics.median(times):.4f} s",
             f"setup_s: {len(setup)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setup)]
    return out["calls"], metrics, [], notes, {"setup_s": setup, "worker": out}


def _counts(stats: dict) -> dict:
    return {key: (st[0], st[2]) for key, st in stats.items()}


def run_traced(root, args, deadline):
    job = {"root": root, "workload": args.workload, "mode": "traced",
           "seconds": args.seconds, "seed": args.seed}
    runs = [spawn(root, job, deadline)[1] for _ in range(2)]
    pairs = [p for r in runs for p in r["pairs"]]
    traced = [p["traced"] for p in pairs]

    problems = []
    if _counts(runs[0]["setup_stats"]) != _counts(runs[1]["setup_stats"]):
        problems.append("the two traced processes disagree on set-up counts")
    for i, (a, b) in enumerate(zip(runs[0]["pairs"], runs[1]["pairs"])):
        a, b = a["traced"], b["traced"]
        if (_counts(a["stats"]), a["minor_trials"], a["accepted"]) != (
                _counts(b["stats"]), b["minor_trials"], b["accepted"]):
            problems.append(f"traced call {i} gives different counts in the two processes")
    for i, p in enumerate(pairs):
        if p["traced"].get("digest") != p["untraced"].get("digest"):
            problems.append(f"pair {i}: the traced report differs from the untraced one")

    first = traced[0]

    def calls(key):
        return first["stats"][key][0]

    def ratio(num, den):
        return num / den if den else 0.0

    def median_self(key, stats):
        return statistics.median(st[key][1] for st in stats)

    traced_stats = [c["stats"] for c in traced]
    m = {}
    for key in STAT_KEYS:
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.self_s"] = median_self(key, traced_stats)
    m["atlas.minor_inv.singular"] = first["stats"]["atlas.minor_inv"][2]
    m["atlas.accepted_samples"] = first["accepted"]
    m["atlas.sample_accept_ratio"] = ratio(first["accepted"], calls("atlas.sample_point"))
    # the plan cache fills during the warm-up, so plan_status is a set-up cost
    m["atlas.plan_status.calls"] = runs[0]["setup_stats"]["atlas.plan_status"][0]
    m["atlas.plan_status.self_s"] = median_self(
        "atlas.plan_status", [r["setup_stats"] for r in runs])
    m["action.act.minor_trials"] = ratio(first["minor_trials"], calls("action.act"))
    m["nulie.rho_field.reuse"] = ratio(calls("nulie.rho_field"),
                                       calls("nulie.fundamental_field"))
    m["reports.to_json.self_s"] = median_self("reports.to_json", traced_stats)
    m["trace.overhead_s"] = (statistics.median(c["seconds"] for c in traced)
                             - statistics.median(p["untraced"]["seconds"] for p in pairs))
    metrics = {name: (m[name], unit) for name, unit in PER_LAYER.items()}

    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)["predictions"].get(args.workload, [])
    notes = [f"{len(traced)} traced calls on offset 0 in 2 processes; wrapped bindings: "
             f"{sum(len(v) for v in runs[0]['bindings'].values())}"]
    for lhs, rhs in predictions:
        want = m[rhs] if isinstance(rhs, str) else rhs
        verdict = "holds" if m[lhs] == want else "BROKEN"
        notes.append(f"prediction {lhs} == {rhs}: {verdict} ({m[lhs]} vs {want})")
    calls_made = [c for p in pairs for c in (p["untraced"], p["traced"])]
    return calls_made, metrics, problems, notes, {"runs": runs}


def main() -> int:
    # on SIGTERM, unwind so that spawn() stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "nugrass", "__init__.py")):
        print(f"bench: no nugrass sources under {root}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()[0]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]["digests"]

    run = run_traced if args.trace else run_untraced
    try:
        calls, metrics, problems, notes, record = run(root, args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    failed = 0
    for call in calls:
        call["failures"] = call_problems(call, reference)
        failed += bool(call["failures"])
        problems += call["failures"]

    worker = record.get("worker") or record["runs"][0]
    env = {"python": platform.python_version(), "sympy": worker["sympy"],
           "ground_types": worker["ground_types"], "nproc": len(os.sched_getaffinity(0)),
           "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0]}
    correct = not problems
    result = {"correct": correct, "attempted": len(calls), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, "problems": problems,
                   "notes": notes, "calls": calls, **record}, fh)

    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: {len(calls)} suite "
          f"calls, {failed} failed (failed_frac {failed / len(calls):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for line in notes + problems[:10]:
        print(f"  {line}")
    print("  env: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
