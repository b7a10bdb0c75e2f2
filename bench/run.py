"""wittlab benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload laurent-pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

`--trace 0` runs a fixed number of ops, set by the seconds, with nothing
wrapped and reports the end-to-end metrics.  `--trace 1` times the field
kernels, runs a fixed number of ops untraced, then the same ops again
with spans around every public layer function, checks that both passes
gave the same answers, and reports the per-layer metrics and the tracing
overhead.
Every answer is checked (see README.md); a wrong answer fails the run.
The last stdout line is one JSON object.  `--workload all` runs each
workload in its own process and prints every metric in a table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("laurent-pipeline", "ratfunc-semidecision", "q2-class-sums", "cli-batch")
DEFAULT_SEED = 1
MIN_OPS = 100  # latency_p90_ms needs at least ten samples above it
SETUP_REPEATS = 7
# A plain run makes whole rounds of `Workload.round_ops` ops, this many ops
# per second of --seconds (about the loop rate at the commit that introduced
# the benchmark), so that a seed always gives the same ops and the same
# failures, however fast the host is that day.
OPS_PER_S = {"laurent-pipeline": 16, "ratfunc-semidecision": 24,
             "q2-class-sums": 32, "cli-batch": 12}
# A traced run times a fixed number of ops, so that per-layer counts repeat
# exactly for a seed and compare across commits: this many per second of
# --seconds, which makes each of its two passes about 0.45 * --seconds long
# at the commit that introduced the benchmark.
TRACE_OPS_PER_S = {"laurent-pipeline": 7.3, "ratfunc-semidecision": 11.5,
                   "q2-class-sums": 12.6, "cli-batch": 4.9}
SPANS_DIR = HERE / "out"


def _import_wittlab():
    if not (SRC / "wittlab" / "__init__.py").is_file():
        sys.exit(f"bench: no wittlab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import wittlab
    if Path(wittlab.__file__).resolve().parent != SRC / "wittlab":
        sys.exit(f"bench: imported wittlab from {wittlab.__file__}, not {SRC}")


# -- measurement -------------------------------------------------------------------


def measure_setup(fields):
    """Median wall time of a fresh interpreter importing wittlab and
    building the workload's fields (after one unmeasured warm-up)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wittlab\n"
            "for s in sys.argv[2:]: wittlab.field_shorthand(s)")
    argv = [sys.executable, "-c", code, str(SRC), *fields]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def drive(workload, n, tracer=None):
    """Closed loop over the first n ops.  Input generation sits outside the
    timed region, and so do the ops' own `after` checks.
    Returns [(kind, answer, latency_ns)]."""
    records = []
    clock = time.perf_counter_ns
    for op in itertools.islice(workload.ops(), n):
        t0 = clock()
        answer = (op.call() if tracer is None
                  else tracer.run_op(len(records), op.kind, op.call))
        dt = clock() - t0
        records.append((op.kind, answer, dt))
        if op.after is not None and tracer is None:
            op.after()  # the traced pass repeats ops the untraced pass checked
    return records


def plain_ops(workload, seconds):
    """Ops of a plain run: whole rounds, at least MIN_OPS."""
    per_round = workload.round_ops
    rounds = round(OPS_PER_S[workload.name] * seconds / per_round)
    return max(-(-MIN_OPS // per_round), rounds) * per_round


def end_to_end(records):
    lat = sorted(dt for _, _, dt in records)
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_p90_ms": q[8] / 1e6,
    }


# -- correctness -------------------------------------------------------------------


def check_answers(workload, records):
    """Seed-independent checks on every answer, plus, for the seed the
    answers were stored from, equality with the stored answers.  Returns
    how many answers were compared with stored ones."""
    from workloads import Mismatch, schema_ok
    for _, answer, _ in records:
        workload.check(answer)
    stored = json.loads((HERE / "expected" / f"{workload.name}.json").read_text())
    if stored["seed"] != workload.seed:
        return 0
    for i, ((kind, answer, _), want) in enumerate(zip(records, stored["answers"])):
        if answer == want:
            continue
        if workload.name == "cli-batch" and workload.failed(want) and schema_ok(answer):
            continue  # a stored failure that now succeeds
        raise Mismatch(f"{workload.name} op {i} ({kind}): got {json.dumps(answer)[:300]}, "
                       f"stored {json.dumps(want)[:300]}")
    return min(len(records), len(stored["answers"]))


def make_workload(name, seed):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


# -- per-layer ---------------------------------------------------------------------


def per_layer(tracer, records):
    from tracer import COUNTED_NAMES, SPANNED_NAMES
    calls, self_ns = {}, {}
    for (name, *_), s in zip(tracer.spans, tracer.self_times()):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + s
    out = {}
    for name in SPANNED_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in COUNTED_NAMES:
        out[f"{name}.calls"] = tracer.counts[name]
    reduce_ok = tracer.counts["norms.depth_reduce.certified"]
    reduce_calls = calls.get("norms.depth_reduce", 0)
    out["norms.depth_reduce.reduced_frac"] = reduce_ok / reduce_calls if reduce_calls else 0.0
    rounds, max_dim = tracer.canonical_rounds()
    out["arason.canonical.rounds"] = rounds
    out["arason.canonical.max_dim"] = max_dim
    attempts = tracer.binding_calls["cli.field_shorthand"]
    mains = calls.get("cli.main", 0)
    answered = sum(1 for kind, a, _ in records
                   if kind.startswith("cli.") and a["rc"] in (0, 3))
    out["cli.attempts_per_call"] = attempts / mains if mains else 0.0
    out["cli.wasted_attempt_frac"] = (attempts - answered) / attempts if attempts else 0.0
    return out


def run_plain(name, seed, seconds):
    wl = make_workload(name, seed)
    setup_s = measure_setup(wl.fields)
    records = drive(wl, plain_ops(wl, seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = check_answers(wl, records)
    metrics = end_to_end(records)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb
    return wl, records, checked, metrics


def run_traced(name, seed, seconds):
    from kernels import kernel_metrics
    from tracer import Tracer
    from workloads import expect
    metrics = kernel_metrics()
    n = max(1, round(TRACE_OPS_PER_S[name] * seconds))
    plain = make_workload(name, seed)
    untraced = drive(plain, n)
    traced_wl = make_workload(name, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = drive(traced_wl, n, tracer=tracer)
    finally:
        tracer.uninstall()
    for i, (u, t) in enumerate(zip(untraced, traced)):
        expect(u[1] == t[1], f"op {i} answered differently with tracing on")
    tracer.check_self_time_sums()
    tracer.check_bindings(name)
    checked = check_answers(plain, untraced)
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / f"{name}.spans.jsonl")
    metrics.update(per_layer(tracer, traced))
    u_rate = end_to_end(untraced)["ops_per_s"]
    t_rate = end_to_end(traced)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = u_rate
    metrics["trace.traced_ops_per_s"] = t_rate
    metrics["trace.overhead_frac"] = u_rate / t_rate - 1
    return plain, untraced, checked, metrics


# -- recording and self-checks ------------------------------------------------------


def record(name, seed, n):
    """Store the answers of the first n ops of `seed` as the expected answers
    (for q2-class-sums, first recompute the class table by enumeration)."""
    import wittlab
    from wittlab import arason
    from workloads import Q2ClassSums
    if name == "q2-class-sums":
        decomps, table = arason.enumerate_wq_Q2()
        k = wittlab.field_shorthand("q2").residue_field
        Q2ClassSums.TABLE.write_text(json.dumps(
            {"classes": [d.describe(k) for d in decomps], "table": table}) + "\n")
    wl = make_workload(name, seed)
    records = drive(wl, n)
    for _, answer, _ in records:
        wl.check(answer)
    (HERE / "expected" / f"{name}.json").write_text(json.dumps(
        {"seed": seed, "answers": [a for _, a, _ in records]}) + "\n")
    print(f"recorded {len(records)} answers for {name} seed {seed}")
    return 0


def digest(name, seed, n):
    """Inputs, answers and (field, size) mix of the first n ops, as JSON."""
    import hashlib
    wl = make_workload(name, seed)
    inputs, answers, mix = [], [], []
    for op in wl.ops():
        if len(inputs) == n:
            break
        inputs.append(op.describe())
        answers.append(op.call())
        mix.append([op.field, op.size])
    h = lambda x: hashlib.sha256(json.dumps(x).encode()).hexdigest()
    print(json.dumps({"inputs": h(inputs), "answers": h(answers), "mix": mix}))
    return 0


def check_determinism(names, seed, n=30):
    """One seed gives the same inputs and answers in two fresh processes
    with different PYTHONHASHSEED; the next seed gives other inputs with
    the same field and size mix."""
    def child(name, s, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(s), "--digest", str(n)],
                             env=env, cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        return json.loads(out.splitlines()[-1])
    ok = True
    for name in names:
        a, b, c = child(name, seed, 0), child(name, seed, 1), child(name, seed + 1, 0)
        same = a == b
        other = c["inputs"] != a["inputs"] and c["mix"] == a["mix"]
        ok = ok and same and other
        print(f"{name:22s} same seed, two hash seeds: {'identical' if same else 'DIFFER'}; "
              f"seed {seed + 1}: {'other inputs, same mix' if other else 'BAD'}")
    return 0 if ok else 1


def run_all(names, args):
    """Each workload in a fresh process; prints every metric with its unit."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


# -- output ---------------------------------------------------------------------------


def print_table(title, metrics, units):
    print(f"# {title}")
    for key in sorted(metrics):
        print(f"{key:58s} {metrics[key]:>16.6g} {units.get(key, '')}")


def guess_unit(key):
    """Unit of a table-only metric, from its name."""
    if key.endswith("_us"):
        return "us"
    if key.endswith("_s"):
        return "s"
    return "count" if key.endswith(".calls") else "ratio"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=int, default=0, metavar="N",
                   help="store the answers of the first N ops as the expected answers")
    p.add_argument("--check-determinism", action="store_true",
                   help="check that inputs and answers depend on the seed alone")
    p.add_argument("--digest", type=int, default=0, metavar="N", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _import_wittlab()

    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    if args.check_determinism:
        return check_determinism(names, args.seed)
    if args.digest:
        return digest(args.workload, args.seed, args.digest)
    if args.workload == "all":
        return run_all(names, args)
    if args.record:
        return record(args.workload, args.seed, args.record)

    from tracer import TraceError
    from workloads import Mismatch
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        run = run_traced if args.trace else run_plain
        wl, records, checked, metrics = run(args.workload, args.seed, args.seconds)
    except (Mismatch, TraceError) as e:
        print(f"bench: {type(e).__name__}: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    failed = sum(1 for _, a, _ in records if wl.failed(a))
    table = dict(metrics, failed_frac=failed / len(records))
    print_table(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(records)} "
                f"failed={failed} checked_against_stored={checked}",
                table, {k: listed.get(k) or guess_unit(k) for k in table})
    result = {"correct": True, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in listed.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
