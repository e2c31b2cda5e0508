"""branchdim benchmark: seeded whole-pipeline workloads, per-module spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload measure_moran --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin-reference

Each workload is a closed loop with one client in one process: a job
starts only after the previous one finished.  The loop runs whole blocks
of the seeded job list (see ``workloads.py``), cycling through the list
if needed, until the blocks' wall time reaches ``--seconds``, so every
run sees whole job strata.  Each block starts from a collected heap, and
its outputs go through the workload's oracles right after it, outside
the timed wall.  Set-up (import of ``branchdim`` plus input generation)
is repeated ``SETUP_REPEATS`` times and its median reported.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
block twice, untraced and traced in alternating order, and prints
per-layer metrics from the traced passes (``tracing.py``); a final pass
over the median-size job of each kind in block 0, under tracemalloc,
gives the memory peaks of the table kernels and of
``enumerate_components``; its timings are not used.

Every job's output is hashed into a SHA-256 digest.  Per-job digests for
``SHIPPED_SEED`` are pinned in ``reference_digests.json``; at that seed a
mismatch fails the job.  The workload digest over block 0 is printed on
every run, so two versions of the program can be compared byte for byte
on any seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the
full result go to ``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference_digests.json"

sys.path.insert(0, str(HERE))

from tracing import LAYERS, MEMORY_PROBED, Tracer  # noqa: E402
from workloads import WORKLOADS, corrupt_output  # noqa: E402

SHIPPED_SEED = 1
SETUP_REPEATS = 7
# The highest percentile with at least ten jobs beyond it in a run of the
# benchmark's length (each workload runs 40 or more jobs).  It is fixed,
# not chosen per run, so that it does not move with the job count.
TAIL_PERCENTILE = 75
RECONCILE_LIMIT = 0.05

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "counting.ub_table.self_s": "s",
    "counting.ub_table.calls": "count",
    "counting.lb_table.self_s": "s",
    "counting.lb_table.calls": "count",
    "counting.IntervalSet.self_s": "s",
    "counting.cells": "count",
    "counting.cells_per_s": "1/s",
    "counting.pieces_in": "count",
    "counting.estimators.self_s": "s",
    "counting.table_peak_mb": "MB",
    "sets.build_moran.self_s": "s",
    "sets.runs": "count",
    "sets.enumerate_components.self_s": "s",
    "sets.enumerate_peak_mb": "MB",
    "sets.realize_uniform_profile.self_s": "s",
    "sets.profile_from_lipschitz.self_s": "s",
    "sets.build_assembly.self_s": "s",
    "spectra.check_inequality.self_s": "s",
    "spectra.check_inequality.calls": "count",
    "spectra.s_per_check": "s",
    "spectra.check_joint.self_s": "s",
    "branch.lift.self_s": "s",
    "branch.lambda_limit.self_s": "s",
    "branch.regularize.self_s": "s",
    "branch.check_branch.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
    "trace.reconcile_err": "frac",
    "src.lines": "lines",
    **{f"{layer}.src_lines": "lines" for layer in LAYERS},
    "helpers.src_lines": "lines",
}

ESTIMATORS = ("counting.estimate_lower_spectrum", "counting.monotonize_estimate",
              "counting.estimate_assouad_spectrum", "counting.check_uniformity")


@dataclass
class Done:
    """A job just run; its output is held only until the block is judged."""

    job: object
    seconds: float
    out: object
    error: str | None


class _Discard:
    """stdout sink for the program's own progress lines."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


# ---------------------------------------------------------------------------
# set-up

def import_program():
    """A fresh import of branchdim and its five layer modules."""
    for name in [n for n in sys.modules if n == "branchdim" or n.startswith("branchdim.")]:
        del sys.modules[name]
    package = importlib.import_module("branchdim")
    for layer in LAYERS:
        importlib.import_module(f"branchdim.{layer}")
    return package


def set_up(workload, seed):
    """Repeated import + generation; returns (package, blocks, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        bd = import_program()
        blocks = workload.generate(bd, random.Random(f"{workload.name}:{seed}"),
                                   str(WORKDIR))
        times.append(perf_counter() - start)
    return bd, blocks, statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop

def run_block(bd, workload, block, tracer=None):
    """Run the jobs back to back; returns their records and the block's wall.

    Each block starts from a collected heap, so a job's time does not
    depend on garbage left by the jobs or oracles before it.
    """
    gc.collect()
    done = []
    with contextlib.redirect_stdout(_Discard()):
        start = perf_counter()
        for job in block:
            if tracer is not None:
                tracer.job = job.id
            error = raw = None
            t0 = perf_counter()
            try:
                raw = workload.run(bd, job)
            except Exception:  # a job that raises is a failed job, not a crash
                error = traceback.format_exc(limit=4)
            seconds = perf_counter() - t0
            done.append(Done(job, seconds, workload.collect(bd, job, raw), error))
        wall = perf_counter() - start
    return done, wall


def timed_loop(bd, workload, blocks, seconds, judge):
    """Whole blocks until ``seconds`` of block wall time; oracles run between."""
    elapsed = 0.0
    count = 0
    while True:
        done, wall = run_block(bd, workload, blocks[count % len(blocks)])
        elapsed += wall
        judge(done)
        count += 1
        if elapsed >= seconds:
            return elapsed, count


def traced_loop(bd, workload, blocks, seconds, judge):
    """Each block untraced and traced, in alternating order.

    Returns the tracer, the summed walls of both kinds of pass and the
    number of blocks.
    """
    tracer = Tracer(bd)
    walls = {False: 0.0, True: 0.0}
    count = 0
    while True:
        block = blocks[count % len(blocks)]
        for traced in ((False, True) if count % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                done, wall = run_block(bd, workload, block, tracer if traced else None)
            finally:
                tracer.uninstall()
            walls[traced] += wall
            judge(done)
        count += 1
        if walls[False] + walls[True] >= seconds:
            return tracer, {"untraced": walls[False], "traced": walls[True]}, count


def memory_jobs(block):
    """The median-size job of each kind: tracemalloc slows the big ones 8x."""
    by_kind = {}
    for job in block:
        by_kind.setdefault(job.kind, []).append(job)
    chosen = [sorted(jobs, key=lambda j: (j.size, j.id))[(len(jobs) - 1) // 2]
              for jobs in by_kind.values()]
    return sorted(chosen, key=lambda j: j.id)


def memory_pass(bd, workload, jobs, judge):
    """Jobs under tracemalloc; only the peaks inside the probed calls are kept."""
    tracer = Tracer(bd)
    tracer.memory = True
    tracemalloc.start()
    tracer.install()
    try:
        done, _ = run_block(bd, workload, jobs, tracer)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    judge(done)
    return tracer.mem_peak


# ---------------------------------------------------------------------------
# correctness

def load_reference(workload_name, seed):
    if seed != SHIPPED_SEED or not REFERENCE.exists():
        return None
    data = json.loads(REFERENCE.read_text())
    return data["workloads"].get(workload_name)


class Judge:
    """Oracles and digests, applied to each block as soon as it has run.

    A job fails when it raised, when an oracle reports a problem, when its
    output differs from an earlier run of the same job, or when its digest
    differs from the pinned reference.
    """

    def __init__(self, bd, workload, reference):
        self.bd = bd
        self.workload = workload
        self.reference = reference
        self.durations = []
        self.failed = 0
        self.problems = []
        self.digests = {}

    def __call__(self, done):
        for d in done:
            self.durations.append(d.seconds)
            problems = self._problems(d)
            if problems:
                self.failed += 1
                self.problems.append(f"job {d.job.id} ({d.job.kind}): "
                                     + "; ".join(problems))

    def _problems(self, d):
        if d.error is not None:
            return ["raised: " + d.error.strip().splitlines()[-1]]
        try:
            problems, material = self.workload.check(self.bd, d.job, d.out)
        except Exception:
            return ["oracle raised: " + traceback.format_exc(limit=2)]
        if material is not None:
            digest = hashlib.sha256(material).hexdigest()[:16]
            if self.digests.setdefault(d.job.id, digest) != digest:
                problems.append("output differs from an earlier run of this job")
            want = (self.reference or {}).get(str(d.job.id))
            if want is not None and want != digest:
                problems.append(f"digest {digest} != reference {want}")
        return problems

    @property
    def attempted(self):
        return len(self.durations)


def workload_digest(blocks, digests):
    ids = [job.id for job in blocks[0]]
    if any(i not in digests for i in ids):
        return None
    return hashlib.sha256("".join(digests[i] for i in ids).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics

def tail(durations):
    """Job wall time at TAIL_PERCENTILE, interpolated between order statistics."""
    ordered = sorted(durations)
    pos = TAIL_PERCENTILE / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def src_lines():
    counts = {}
    for path in sorted((SRC / "branchdim").glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = fh.read().count(b"\n")
    out = {"src.lines": sum(counts.values())}
    for layer in LAYERS:
        out[f"{layer}.src_lines"] = counts.get(layer, 0)
    out["helpers.src_lines"] = out["src.lines"] - sum(counts.get(l, 0) for l in LAYERS)
    return out


def layer_metrics(tracer, walls, mem_peak):
    totals = tracer.self_times()

    def self_s(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    wall = walls["traced"]
    m = {}
    for table in ("counting.ub_table", "counting.lb_table"):
        m[f"{table}.self_s"] = self_s(table)
        m[f"{table}.calls"] = calls(table)
    m["counting.IntervalSet.self_s"] = self_s("counting.IntervalSet")
    cells = tracer.counters["counting.cells"]
    table_s = self_s("counting.lb_table") + self_s("counting.ub_table")
    m["counting.cells"] = cells
    m["counting.cells_per_s"] = cells / table_s if table_s else 0.0
    m["counting.pieces_in"] = tracer.counters["counting.pieces_in"]
    m["counting.estimators.self_s"] = sum(self_s(n) for n in ESTIMATORS)
    m["counting.table_peak_mb"] = max(mem_peak["counting.lb_table"],
                                      mem_peak["counting.ub_table"])
    m["sets.build_moran.self_s"] = self_s("sets.build_moran")
    m["sets.runs"] = tracer.counters["sets.runs"]
    m["sets.enumerate_components.self_s"] = self_s("sets.enumerate_components")
    m["sets.enumerate_peak_mb"] = mem_peak["sets.enumerate_components"]
    for name in ("sets.realize_uniform_profile", "sets.profile_from_lipschitz",
                 "sets.build_assembly", "spectra.check_inequality",
                 "spectra.check_joint", "branch.lift", "branch.lambda_limit",
                 "branch.regularize", "branch.check_branch", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    checks = calls("spectra.check_inequality")
    m["spectra.check_inequality.calls"] = checks
    m["spectra.s_per_check"] = self_s("spectra.check_inequality") / checks if checks else 0.0
    m["cli.bytes_written"] = tracer.counters["cli.bytes_written"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (seconds, _) in totals.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / wall
    unattributed = wall - tracer.top_level_coverage()
    m["trace.overhead_frac"] = wall / walls["untraced"] - 1
    m["trace.unattributed_frac"] = unattributed / wall
    m["trace.reconcile_err"] = abs(sum(layer_self.values()) + unattributed - wall) / wall
    m.update(src_lines())
    return m


def end_to_end_metrics(durations, elapsed, setup_s):
    m = {
        "jobs_per_s": len(durations) / elapsed,
        "job_p50_s": statistics.median(durations),
        "job_tail_s": tail(durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "jobs_per_s": f"{len(durations)} jobs in {elapsed:.2f} s",
        "job_p50_s": f"median of {len(durations)} jobs",
        "job_tail_s": (f"p{TAIL_PERCENTILE} of {len(durations)} jobs, "
                       f"{len(durations) * (100 - TAIL_PERCENTILE) / 100:.0f} beyond"),
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return m, notes


# ---------------------------------------------------------------------------
# entry points

def measure(workload, seed, seconds, trace):
    bd, blocks, setup_s = set_up(workload, seed)
    judge = Judge(bd, workload, load_reference(workload.name, seed))
    notes = {}
    if trace:
        tracer, walls, n_blocks = traced_loop(bd, workload, blocks, seconds, judge)
        mem_peak = dict.fromkeys(MEMORY_PROBED, 0.0)
        if any(name in MEMORY_PROBED for name, *_ in tracer.spans):
            mem_peak = memory_pass(bd, workload, memory_jobs(blocks[0]), judge)
        metrics = layer_metrics(tracer, walls, mem_peak)
        units = PER_LAYER
        tracer.dump(str(WORKDIR / f"spans-{workload.name}-seed{seed}.json"))
        if metrics["trace.reconcile_err"] > RECONCILE_LIMIT:
            judge.problems.append(f"span bookkeeping: layer self times miss traced "
                                  f"wall by {metrics['trace.reconcile_err']:.1%}")
    else:
        elapsed, n_blocks = timed_loop(bd, workload, blocks, seconds, judge)
        metrics, notes = end_to_end_metrics(judge.durations, elapsed, setup_s)
        units = END_TO_END
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "blocks": n_blocks, "block_jobs": len(blocks[0]),
        "digest": workload_digest(blocks, judge.digests),
        "digest_jobs": len(blocks[0]),
        "attempted": judge.attempted, "failed": judge.failed,
        "failed_frac": judge.failed / judge.attempted,
        "problems": judge.problems,
        "metrics": metrics, "units": units, "notes": notes,
    }


def report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  blocks {result['blocks']} x "
          f"{result['block_jobs']} jobs")
    for name, unit in result["units"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:40s} {result['metrics'][name]:>14.6g} {unit:6s} {note}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} {'frac':6s} "
          f"{result['failed']} of {result['attempted']} jobs")
    print(f"  digest {result['digest']} over block 0 ({result['digest_jobs']} jobs)")
    for line in result["problems"][:20]:
        print(f"  PROBLEM {line}")
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / (f"result-{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in result["units"].items()},
    }))


def pin_reference():
    """Write per-job digests of the whole job list at SHIPPED_SEED."""
    pinned = {}
    for name, workload in WORKLOADS.items():
        bd, blocks, _ = set_up(workload, SHIPPED_SEED)
        judge = Judge(bd, workload, None)
        for block in blocks:
            judge(run_block(bd, workload, block)[0])
        for line in judge.problems:
            print(f"{name}: PROBLEM {line}")
        pinned[name] = {str(i): d for i, d in sorted(judge.digests.items())}
        print(f"{name}: {judge.attempted} jobs, {judge.failed} failed, "
              f"digest {workload_digest(blocks, judge.digests)}")
    REFERENCE.write_text(json.dumps({"seed": SHIPPED_SEED, "workloads": pinned},
                                    indent=1, sort_keys=True) + "\n")


def self_test():
    """Smoke-size run of every workload, plus proof that the gate can fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        ok &= bool(cond)

    expect(declared == END_TO_END, "BENCHMARK.json end_to_end matches the printed metrics")
    expect(declared_layers == PER_LAYER, "BENCHMARK.json per_layer matches the printed metrics")
    for name, workload in WORKLOADS.items():
        print(f"{name}:")
        bd, blocks, setup_s = set_up(workload, SHIPPED_SEED)
        smoke = {}
        for job in blocks[0]:
            if job.kind not in smoke or job.size < smoke[job.kind].size:
                smoke[job.kind] = job
        block = sorted(smoke.values(), key=lambda j: j.id)
        reference = load_reference(name, SHIPPED_SEED)
        judge = Judge(bd, workload, reference)
        tracer, walls, _ = traced_loop(bd, workload, [block], 0, judge)
        mem_peak = memory_pass(bd, workload, memory_jobs(block), judge)
        layers = layer_metrics(tracer, walls, mem_peak)
        e2e, _ = end_to_end_metrics(judge.durations, sum(walls.values()), setup_s)
        expect(set(e2e) == set(END_TO_END) and set(layers) == set(PER_LAYER),
               f"all {len(e2e) + len(layers)} metrics computed with units")
        expect(layers["trace.reconcile_err"] <= RECONCILE_LIMIT,
               f"spans reconcile with traced wall ({layers['trace.reconcile_err']:.2%})")
        expect(judge.failed == 0,
               f"{judge.attempted} smoke jobs pass the oracles {judge.problems[:2]}")
        expect(reference is not None and all(str(i) in reference for i in judge.digests),
               "smoke jobs have pinned reference digests")

        done, _ = run_block(bd, workload, block)
        wrong = Judge(bd, workload, {str(d.job.id): "0" * 16 for d in done})
        wrong(done[:1])
        expect(wrong.failed == 1, "a corrupted reference digest fails the job")
        corrupted = Judge(bd, workload, None)
        broken = next(d for d in done if corrupt_output(d.out) is not None)
        corrupted([Done(broken.job, broken.seconds, corrupt_output(broken.out), None)])
        expect(corrupted.failed == 1,
               f"a corrupted output fails its oracle: {corrupted.problems[:1]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-size run that also proves the gate can fail")
    parser.add_argument("--pin-reference", action="store_true",
                        help=f"rewrite the pinned digests for seed {SHIPPED_SEED}")
    args = parser.parse_args(argv)

    if not (SRC / "branchdim" / "__init__.py").is_file():
        print(f"error: no branchdim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.pin_reference:
        pin_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    report(measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
