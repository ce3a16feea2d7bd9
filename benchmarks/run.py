"""Benchmark of the partible CLI: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload sweep|constants|analyze \\
        --seed N --seconds S --trace 0|1

Inputs are generated from the seed.  Every timed pass is a fresh
interpreter (`child.py`) that imports `partible` from this checkout's
`src` and runs the workload's CLI calls in-process, one after another
(closed loop, one caller, `jobs=1`).  Passes repeat until the next one
would end after S seconds (at least MIN_PASSES), and the end-to-end
metrics are medians over passes.  With `--trace 1` untraced and traced
passes alternate and the per-layer metrics come from the traced ones.
Outputs are checked per operation and hashed against the digests
recorded in `digests.json`.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_PROBES = 3  # per pass
CHILD_TIMEOUT_S = 150
# layer metrics that count calls, by span name
CALL_METRICS = {
    "sequences.terms": "sequences.terms_calls",
    "congruence.verify": "congruence.cells",
    "exact.residue": "exact.residue_calls",
    "congruence.derive": "congruence.derive_calls",
    "reduction.partible_reduce": "reduction.partible_reduce_calls",
    "operators.adjoint_apply": "operators.adjoint_apply_calls",
    "poly.taylor_shift": "poly.taylor_shift_calls",
    "ratfunc.new": "ratfunc.new_calls",
    "operators.profile": "operators.profile_calls",
    "sequences.guess": "sequences.guess_calls",
}


class PassFailed(RuntimeError):
    pass


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(jobs_path, mode, spans_path=None):
    """One fresh-interpreter pass; adds setup_s (spawn to ready)."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(jobs_path), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - spawned
    return report


def measure(jobs_path, seconds, trace, spans_path):
    """Passes until the next round would end after `seconds`."""
    run_pass(jobs_path, "setup")  # compiles bytecode; not counted
    setups, plain, traced = [], [], []
    started = time.monotonic()
    while True:
        plain.append(run_pass(jobs_path, "run"))
        if trace:
            traced.append(run_pass(jobs_path, "trace", spans_path))
            traced[-1]["untraced_s"], traced[-1]["closure"] = closure(
                traced[-1], json.loads(spans_path.read_text()))
        else:  # spread over the run, so one burst of host noise cannot own the median
            setups += [run_pass(jobs_path, "setup") for _ in range(SETUP_PROBES)]
        elapsed = time.monotonic() - started
        rounds = len(plain)
        if rounds >= (1 if trace else MIN_PASSES) and elapsed * (rounds + 1) / rounds > seconds:
            return setups, plain, traced


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _job_digest(job, code, stdout, workloads):
    text = f"{code}\n{workloads.canonical(job, stdout)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digests(workload, seed, workloads):
    """Per-job digests recorded for this workload and seed, or None."""
    if workload not in workloads.SEED_FREE and seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())[workload]


def check(jobs, passes, want, partible, workloads):
    """(attempted, failed, combined digest, problems) over every pass."""
    checker = workloads.Checker(partible)
    first = passes[0]["results"]
    digests = [_job_digest(job, r[0], r[2], workloads) for job, r in zip(jobs, first)]
    attempted = failed = 0
    problems = []
    for n, job in enumerate(jobs):
        code, _, out, err, _ = first[n]
        try:
            bad = checker(job, code, out)
        except Exception as exc:  # unparsable or unexpected output fails the job
            bad = [f"check raised {exc!r}"] * job["ops"]
        if want is not None and (len(want) != len(jobs) or want[n] != digests[n]):
            bad = bad or ["output differs from the recorded digest"] * job["ops"]
        for later in passes[1:]:
            again = later["results"][n]
            if _job_digest(job, again[0], again[2], workloads) != digests[n]:
                bad = bad or ["output differs between passes"] * job["ops"]
        if bad:
            problems.append({"argv": job["argv"], "exit": code, "problem": bad[0], "stderr": err[-300:]})
        attempted += job["ops"] * len(passes)
        failed += min(len(bad), job["ops"]) * len(passes)
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    return attempted, failed, combined, problems


def end_to_end(jobs, setups, plain):
    """Host-adjusted medians over passes, taken per job: the run's median pass.

    Each time is scaled by NOMINAL_S over the mean speed-probe sample
    around it (`speed.py`), which removes most of the host's speed swings.
    Host noise also comes in bursts shorter than a pass; a job's median
    over the passes drops the burst that hit one pass, where the median
    of whole-pass times would not.
    """
    children = setups + plain
    ops = sum(job["ops"] for job in jobs)
    latency_ms = [statistics.median(p["results"][n][1] * NOMINAL_S / p["results"][n][4]
                                    for p in plain) * 1000
                  for n in range(len(jobs))]
    wall = sum(latency_ms) / 1000
    fastest = min(c["ref_min"] for c in children)
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] * NOMINAL_S / c["setup_ref"] for c in children), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (ops / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        "query_p50_ms": (nearest_rank(latency_ms, 0.5), "ms"),
        "query_p95_ms": (nearest_rank(latency_ms, 0.95), "ms"),
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "fastest_sample_s": fastest,
        "host_slowdown": [p["ref_pass"] / fastest for p in plain],
        "pass_adjusted_s": [sum(r[1] * NOMINAL_S / r[4] for r in p["results"]) for p in plain],
    }
    return metrics, raw


def closure(report, dump):
    """(time outside spans, problems): the recorder's split checked against raw readings.

    Self times are recomputed per name from the dumped start, end and
    parent arrays and must match the recorder's running totals.  The time
    outside spans is taken from the job intervals, which the child reads
    outside the wrapped `cli.main`: every top-level span must lie inside
    one job and spans must not overlap, so that the self times plus that
    time add up to the traced wall.  A leaked, unclosed or misnested span,
    or time charged to the wrong name, fails one of these.
    """
    names, spans, wall = dump["names"], dump["spans"], dump["wall_s"]
    code, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    tolerance = 1e-6 * wall + 1e-9
    problems = []
    if any(s <= 0 or e < s for s, e in zip(start, end)):
        problems.append("a span was never closed")
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p < 0:
            continue
        if not (p < i and start[p] <= start[i] and end[i] <= end[p]):
            problems.append(f"span {i} ({names[code[i]]}) is not inside its parent {p}")
        own[p] -= end[i] - start[i]
    recomputed = dict.fromkeys(names, 0.0)
    for c, t in zip(code, own):
        recomputed[names[c]] += t
    for name in names:
        if abs(recomputed[name] - report["trace"]["self_s"][name]) > tolerance:
            problems.append(f"{name}: recorded self {report['trace']['self_s'][name]}, "
                            f"from spans {recomputed[name]}")

    tops = sorted((s, e) for p, s, e in zip(parent, start, end) if p < 0)
    untraced = wall
    k = 0
    for t0, t1 in dump["jobs"]:
        last = t0
        while k < len(tops) and tops[k][1] <= t1:
            s, e = tops[k]
            if s < last:
                problems.append(f"top-level span [{s}, {e}] outside its job or overlapping")
            untraced -= e - s
            last = e
            k += 1
    if k < len(tops):
        problems.append(f"{len(tops) - k} top-level spans after the last job")
    total = sum(report["trace"]["self_s"].values()) + untraced
    if abs(total - wall) > tolerance:
        problems.append(f"self times + untraced = {total}, traced wall {wall}")
    return untraced, problems


def per_layer(jobs, plain, traced, workloads):
    """Median self times over traced passes, counts, and the trace's own cost."""
    from spans import SPANS

    names = sorted({name for name, _, _ in SPANS})
    out = {f"{name}_s": (statistics.median(t["trace"]["self_s"][name] for t in traced), "s")
           for name in names}
    calls = traced[0]["trace"]["calls"]
    out.update({metric: (calls[name], "count") for name, metric in CALL_METRICS.items()})
    out["sequences.term_bits_max"] = (traced[0]["trace"]["term_bits_max"], "bits")
    out["cli.out_bytes"] = (sum(len(workloads.canonical(job, r[2]).encode())
                                for job, r in zip(jobs, traced[0]["results"])), "bytes")
    out["trace.untraced_s"] = (statistics.median(t["untraced_s"] for t in traced), "s")
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    problems = [{"problem": problem} for t in traced for problem in t["closure"]]
    return out, problems


def source_lines():
    return {path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted((SRC / "partible").glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "constants", "analyze"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # kills and reaps a running pass

    init = SRC / "partible" / "__init__.py"
    if not init.is_file():
        print(f"error: no partible source at {init}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partible
    import workloads

    if Path(partible.__file__).resolve() != init.resolve():
        print(f"error: imported partible from {partible.__file__}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WORKLOADS[args.workload],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "source_lines": source_lines(),
    }
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    workdir.mkdir(parents=True)
    spans_path.parent.mkdir(exist_ok=True)
    try:
        jobs = workloads.MAKE_JOBS[args.workload](args.seed, workdir)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps([job["argv"] for job in jobs]))
        try:
            setups, plain, traced = measure(jobs_path, args.seconds, args.trace, spans_path)
        except PassFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        want = recorded_digests(args.workload, args.seed, workloads)
        attempted, failed, combined, problems = check(
            jobs, plain + traced, want, partible, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, trace_problems = per_layer(jobs, plain, traced, workloads)
        problems += trace_problems
        info["spans_per_pass"] = traced[0]["trace"]["spans"]
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, info["unadjusted"] = end_to_end(jobs, setups, plain)
        info["setup_samples"] = len(setups) + len(plain)
        info["queries_per_pass"] = len(jobs)
    info.update({
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cpu_s": [p["cpu_s"] for p in plain],
        "operations_per_pass": sum(job["ops"] for job in jobs),
        "failed_frac": failed / attempted,
        "digest": combined,
        "digest_recorded": want is not None,
        "problems": problems[:10],
    })
    correct = failed == 0 and not problems
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
