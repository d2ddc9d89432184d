"""isogeny-kit benchmark: time to verdict on four exact-verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of suites-fp, suites-q, census, cartan-dieudonne, or `all`
(every workload in turn, in this one process).  Run it from any directory
of a checkout; it reads the library from `src/` beside this directory and
writes only under `.perfbench_tmp/` and `.perfbench_out/` of the checkout.
Everything runs in one thread.

With --trace 0 a run measures whole passes of the workload (see
workloads.py) until S seconds have passed, at least one, and checks every
output against the gate.  Its JSON carries the metrics
that BENCHMARK.json bounds:

- setup_s: median over 3 fresh processes that import isogeny_kit and
  build the workload inputs;
- verdict_s: median wall time of a pass, from its first call to its last
  verdict;
- peak_rss_mb: peak resident set of the measuring process (with `all`,
  the peak so far).

The summary line before it adds the op latencies, which are not bounded
because the median op of a suites or census pass is one or two samples
of a 50-200 ms call and swings by a quarter between runs on a shared
host:

- op_p50_ms, op_tail_ms: latency of one op over all passes, left out
  when fewer than 20 ops ran (a census pass makes 3).  The tail
  percentile is fixed per workload, so that it means the same however
  many passes a run makes: the highest with at least 10 ops beyond it
  among the ops of the fewest passes that reach 20 ops, capped at the
  99th; the line names it and the number of ops n;
- error_share: ops that raised or exited non-zero over ops attempted,
  which the JSON also carries as `failed` and `attempted`.

Failed ops do not stop the workload.  A known one is left visible: over
Q at suite seed 0, `GSphom` raises ValueError from the trial-division
bound of squarefree_part.

With --trace 1 a run times pass 0 untraced, then again under the
outside-in tracer (tracing.py), and prints the per-layer metrics: calls and
self time per library module, the layer counters, the tracing overhead
(traced over untraced pass time) and the time no layer span covers.  The
first tracing.MAX_SPANS spans go to `.perfbench_out/`; the file and the
summary line say how many were dropped past that cap.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 only when
every output passed the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

SETUP_SAMPLES = 3
MIN_OPS = 20
TAIL_BEYOND = 10

# the slowest suites over F_5 and Q at the reference seeds, timed one by one
TIMED_SUITES = ("GSprhoQst", "ref8igen", "NAvn2", "CDT", "deltadep",
                "GSphom", "GSppsi", "GSpprod")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_passes(plan, seconds, passes=None, tracer=None):
    """Whole passes until `seconds` have passed, or exactly `passes`
    passes from pass 0."""
    records = []
    start = time.perf_counter()
    n_ops = 0
    i = 0
    while True:
        ops = plan.pass_ops(i)
        outcomes = []
        t0 = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = n_ops + k
            a = time.perf_counter()
            res = workloads.execute(op)
            res["latency_s"] = time.perf_counter() - a
            outcomes.append(res)
        records.append({"seconds": time.perf_counter() - t0, "outcomes": outcomes})
        n_ops += len(ops)
        i += 1
        if passes is not None:
            if i >= passes:
                return records
        elif time.perf_counter() - start >= seconds:
            return records


def tail_percentile(ops_per_pass):
    """The workload's tail percentile: the highest that leaves TAIL_BEYOND
    ops beyond it in the fewest passes that reach MIN_OPS, capped at 99."""
    n = ops_per_pass * math.ceil(MIN_OPS / ops_per_pass)
    return 100.0 * min(n - TAIL_BEYOND, math.ceil(0.99 * n)) / n


def percentile(values, pct):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(1, math.ceil(pct / 100.0 * len(xs) - 1e-9)) - 1]


def measure_setup(workload, seed):
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def gate(records):
    outcomes = [o for r in records for o in r["outcomes"]]
    mismatched = [o for o in outcomes if o["problems"]]
    for o in mismatched[:5]:
        print("GATE %s: %s" % (o["label"], "; ".join(o["problems"])[:500]),
              file=sys.stderr)
    return outcomes, not mismatched


def summary_line(workload, seed, records, outcomes, extra=""):
    failed = [o for o in outcomes if o["failed"]]
    kinds = sorted({"%s in %s" % ((o["record"].get("error") or "exit %s" % o["record"].get("rc"))
                                  .split(":")[0], o["label"]) for o in failed})
    return ("%s seed=%d passes=%d ops=%d checks=%d failed=%d error_share=%.4f%s%s"
            % (workload, seed, len(records), len(outcomes),
               sum(o["checks"] for o in outcomes), len(failed),
               len(failed) / len(outcomes), extra,
               (" (" + ", ".join(kinds) + ")") if kinds else ""))


def end_to_end(workload, seed, plan, seconds):
    setup_s = measure_setup(workload, seed)
    records = run_passes(plan, seconds)
    outcomes, correct = gate(records)
    lat = [o["latency_s"] for o in outcomes]
    pct = tail_percentile(len(records[0]["outcomes"]))
    latency = (" op_p50_ms=%.4f op_tail_ms=%.4f tail=p%.1f"
               % (statistics.median(lat) * 1e3, percentile(lat, pct) * 1e3, pct)
               if len(lat) >= MIN_OPS else "")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(r["seconds"] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(summary_line(workload, seed, records, outcomes, latency + " n=%d" % len(lat)))
    return correct, outcomes, metrics


def layer_metrics(tracer, traced, untraced):
    t = tracer
    m = {}
    for layer in tracing.LAYERS:
        m[layer + ".calls"] = (t.layer_calls(layer), "count")
        m[layer + ".self_s"] = (t.layer_self_s(layer), "s")
    c = t.counts
    kc = t.key_calls
    cd_calls = kc("quadforms.cartan_dieudonne")
    iso_calls = kc("quadforms.find_isotropic")
    norm8 = kc("spin_eight.reduced_norm_M2A")
    m.update({
        "exactfield.scalar_ops": (c["exactfield.scalar_ops"], "count"),
        "exactfield.scalar_allocs": (c["exactfield.scalar_allocs"], "count"),
        "exactfield.square_class.calls": (kc("exactfield.square_class"), "count"),
        "exactfield.squarefree_part.calls": (kc("exactfield.squarefree_part"), "count"),
        "linalg.row_reductions": (sum(kc("linalg.Mat." + f)
                                      for f in ("det", "inverse", "solve", "rank")), "count"),
        "linalg.berkowitz_det.calls": (kc("linalg.berkowitz_det"), "count"),
        "quadforms.pairing.calls": (kc("quadforms.QuadSpace.pairing"), "count"),
        "quadforms.reflect.calls": (kc("quadforms.reflect"), "count"),
        "quadforms.cartan_dieudonne.calls": (cd_calls, "count"),
        "quadforms.mirrors_per_factorisation": (
            t.results["quadforms.cartan_dieudonne"][0] / cd_calls if cd_calls else 0.0, "ratio"),
        "quadforms.find_isotropic.none_share": (
            t.results["quadforms.find_isotropic"][1] / iso_calls if iso_calls else 0.0, "ratio"),
        "algebras.biquat_mul.calls": (kc("algebras.BiquatElem.__mul__"), "count"),
        "algebras.biquat_inverse.calls": (kc("algebras.BiquatElem.inverse"), "count"),
        "algebras.reduced_norm_A.calls": (kc("algebras.reduced_norm_A"), "count"),
        "algebras.alg_eq.calls": (kc("algebras.BiquatAlg.__eq__") + kc("algebras.QuatAlg.__eq__"),
                                  "count"),
        "spin_six.cover_mul.calls": (kc("spin_six.CoveredElem.__mul__"), "count"),
        "spin_eight.M2A_mul.calls": (kc("spin_eight.M2A.__mul__"), "count"),
        "spin_eight.reduced_norm_M2A.calls": (norm8, "count"),
        "spin_eight.split_oracle_share": (
            c["spin_eight._norm8_split_oracle.calls"] / norm8 if norm8 else 0.0, "ratio"),
        "spin_eight.gsp_decompose.calls": (kc("spin_eight.gsp_decompose"), "count"),
        "spin_eight.cover_mul.calls": (kc("spin_eight.cover_mul"), "count"),
        "smallfields.isometries_enumerated": (
            c["smallfields.enumerate_isometry_columns.yielded"], "count"),
        "smallfields.spinor_filtered": (c["smallfields.spinor_filtered"], "count"),
    })
    per_suite = {o["label"].rsplit("/", 1)[-1]: o["latency_s"] for o in untraced["outcomes"]}
    for name in TIMED_SUITES:
        m["suites.%s.s" % name] = (per_suite.get(name, 0.0), "s")
    covered = sum(t.layer_self)
    m.update({
        "trace.verdict_s": (traced["seconds"], "s"),
        "trace.overhead": (traced["seconds"] / untraced["seconds"], "ratio"),
        "trace.uninstrumented_s": (traced["seconds"] - covered, "s"),
        "trace.spans": (t.next_span, "count"),
    })
    return m


def traced_run(workload, seed, plan, out_dir):
    untraced = run_passes(plan, 0, passes=1)[0]
    tracer = tracing.Tracer().install()
    try:
        traced = run_passes(plan, 0, passes=1, tracer=tracer)[0]
    finally:
        tracer.uninstall()
    outcomes, correct = gate([untraced, traced])
    metrics = layer_metrics(tracer, traced, untraced)
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "trace-%s-seed%d.tsv.gz" % (workload, seed)))
    print(summary_line(workload, seed, [untraced, traced], outcomes,
                       " overhead=%.2fx uninstrumented_s=%.3f spans=%d spans_dropped=%d"
                       % (metrics["trace.overhead"][0], metrics["trace.uninstrumented_s"][0],
                          tracer.next_span, tracer.dropped_spans())))
    return correct, outcomes, metrics


def result(correct, outcomes, metrics):
    return {"correct": correct, "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if o["failed"]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = _parse(argv)
    if not workloads.library_present():
        print("error: no isogeny_kit sources at %s" % workloads.SRC, file=sys.stderr)
        return 2
    tmp_root = workloads.ROOT / ".perfbench_tmp"
    tmpdir = str(tmp_root / str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if args.setup_only:
            workloads.Plan(args.workload, args.seed, tmpdir)
            return 0
        results = []
        for name in names:
            plan = workloads.Plan(name, args.seed, tmpdir)
            if args.trace:
                res = result(*traced_run(name, args.seed, plan,
                                         str(workloads.ROOT / ".perfbench_out")))
            else:
                res = result(*end_to_end(name, args.seed, plan, args.seconds))
            results.append((name, res))
        if len(results) == 1:
            final = results[0][1]
        else:
            for name, res in results:
                print(name, json.dumps(res, sort_keys=True))
            final = {"correct": all(r["correct"] for _, r in results),
                     "attempted": sum(r["attempted"] for _, r in results),
                     "failed": sum(r["failed"] for _, r in results),
                     "metrics": {"%s.%s" % (n, k): v for n, r in results
                                 for k, v in r["metrics"].items()}}
        print(json.dumps(final, sort_keys=True))
        return 0 if final["correct"] else 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(tmp_root)


if __name__ == "__main__":
    sys.exit(main())
