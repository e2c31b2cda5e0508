"""The three seeded workloads: job generators, job bodies and output oracles.

Every workload is a list of blocks, and a run is a whole number of
blocks.  A block holds one job from each cost stratum (for
``measure_moran``, the whole job pool), so every run sees the same job mix
whatever the seed, while the seed chooses the exact parameters, pairings
and order.  The program is reached only through the
module attributes of ``bd`` (``bd.counting.lb_table`` and so on), looked
up at call time, so the tracer can wrap them from outside.

Each workload provides:

* ``generate(bd, rng, workdir)``: the seeded job list, built in set-up;
* ``run(bd, job)``: the timed program work of one job;
* ``collect(bd, job, raw)``: untimed glue right after a job (reading the
  CLI's files before the next job overwrites them);
* ``check(bd, job, out)``: the oracles, returning the problems found and
  the bytes that go into the job's output digest.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
from dataclasses import dataclass, field
from fractions import Fraction as F

INEQUALITIES = ("S", "W", "M", "L", "AQ")


@dataclass
class Job:
    id: int
    kind: str
    size: int  # cost hint within the kind: picks smoke-test and memory jobs
    params: dict = field(repr=False)


def _stable_text(x) -> str:
    """Exact, platform-stable text for digests (Fractions as num/den)."""
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ";".join(_stable_text(v) for v in x) + ")"
    return str(x)


def _restricted_cells(thetas, window):
    lo, hi = window
    return sorted({(u, min(u, math.ceil(t * u)))
                   for u in range(lo, hi + 1) for t in thetas})


def _parse_table_csv(bd, text: str):
    """A CountTable rebuilt from the CLI's lb.csv / ub.csv text."""
    meta = {}
    cells = {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line and line[0].isdigit():
            u, v, count, _ = line.split(",")
            cells[(int(u), int(v))] = int(count)
    return bd.counting.CountTable(kind=meta["kind"], u_max=int(meta["u_max"]),
                                  cells=cells,
                                  candidate_rule=meta["candidate_rule"])


def _run_count(bd, subdivision) -> int:
    """Runs ``build_moran`` will store: 2^h(k*), k* the last level with a=0.

    After level k* every retained cube keeps both children, so runs only
    lengthen; before it, the run count is at most the cube count.
    """
    zeros = [k for k, a in enumerate(subdivision.a, start=1) if a == 0]
    return 1 << subdivision.h(zeros[-1] if zeros else 0)


# ---------------------------------------------------------------------------
# measure_moran: CLI measure on seeded Moran configs

class MeasureMoran:
    name = "measure_moran"
    why = ("CLI measure of Moran sets, slopes k/20 >= 2/5, depths 12-16, size "
           "bound 2^7 runs, dense lb+ub: counting does nearly all the work; "
           "sets and spectra idle")
    DEPTHS = (12, 13, 14, 15, 16)
    # below 8/20 a set has at most 16 runs and measures in milliseconds,
    # where CLI start-up and file writes, not counting, set the time
    SLOPES = tuple(F(k, 20) for k in range(8, 21))
    # size bound: dense tables cost about runs^2, so a slope of 18/20 at
    # depth 12 (512 runs) already takes 10 s; larger sets are left out
    RUN_CAP = 1 << 7
    OUTPUTS = ("assouad.csv", "lb.csv", "lower.csv", "monotone.csv", "ub.csv",
               "uniformity.csv")

    def generate(self, bd, rng, workdir):
        """One block: every (depth, slope) under the cap, in seeded order.

        Job costs range from milliseconds to seconds and cannot be told
        apart before running, so a run repeats the whole pool rather than
        a sample of it; the seed sets the order and each job's theta grid.
        """
        cfg_dir = os.path.join(workdir, "inputs", self.name)
        self.out_dir = os.path.join(workdir, "cli-out", self.name)
        os.makedirs(cfg_dir, exist_ok=True)
        pool = []
        for depth in self.DEPTHS:
            for slope in self.SLOPES:
                line = bd.branch.LipschitzProfile((F(0), F(depth)),
                                                  (F(0), slope * depth), F(1))
                runs = _run_count(bd, bd.sets.profile_from_lipschitz(line, 1, depth))
                if runs <= self.RUN_CAP:
                    pool.append((depth, slope, runs))
        rng.shuffle(pool)
        jobs = []
        for job_id, (depth, slope, runs) in enumerate(pool):
            thetas = sorted(rng.sample(range(1, 20), rng.randint(3, 9)))
            text = (
                "command=measure\nkind=moran\n"
                f"slope={slope}\ndepth={depth}\ntables=both\n"
                "candidate-rule=dense\neta=4\n"
                "theta-grid=" + ",".join(f"{t}/20" for t in thetas) + "\n"
            )
            path = os.path.join(cfg_dir, f"job-{job_id}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            jobs.append(Job(job_id, f"depth{depth}", runs,
                            {"config": path, "depth": depth, "slope": slope}))
        return [jobs]

    def run(self, bd, job):
        return bd.cli.main(["--config", job.params["config"],
                            "--out", self.out_dir])

    def collect(self, bd, job, raw):
        files = {}
        if os.path.isdir(self.out_dir):
            for name in sorted(os.listdir(self.out_dir)):
                with open(os.path.join(self.out_dir, name), "rb") as fh:
                    files[name] = fh.read()
            shutil.rmtree(self.out_dir)
        return {"rc": raw, "files": files}

    def check(self, bd, job, out):
        problems = []
        files = out["files"]
        if out["rc"] != 0:
            problems.append(f"CLI exit code {out['rc']}")
        missing = [n for n in self.OUTPUTS if n not in files]
        if missing:
            problems.append(f"missing CSVs {missing}")
        tables = {}
        for name in ("lb.csv", "ub.csv"):
            if name in files:
                table = _parse_table_csv(bd, files[name].decode())
                tables[table.kind] = table
                problems += [f"{name}: {p}" for p in table.validate()[:3]]
        if len(tables) == 2:
            lb, ub = tables["lb"], tables["ub"]
            bad = [uv for uv in sorted(lb.cells)
                   if lb.cells[uv] > ub.cells.get(uv, math.inf)]
            if bad:
                problems.append(f"lb > ub at {len(bad)} cells, first {bad[0]}")
        digest = b"".join(name.encode() + b"\0" + data + b"\0"
                          for name, data in sorted(files.items()))
        return problems, digest


# ---------------------------------------------------------------------------
# realize_measure: realize a target, measure it back

class RealizeMeasure:
    name = "realize_measure"
    why = ("realize psi targets (size bound 2^15 runs) and depth-22 "
           "assemblies (2^10 runs), sparse lb + estimate: sets and the "
           "IntervalSet/sparse-lb path dominate; no ub")
    SCHEDULE = (2, 24, 3)          # geometric_schedule(2, 24, 3): depth 24
    UNIFORM_THETAS = (F(1, 3), F(1, 2), F(2, 3))
    # One uniform job per run-count stratum 2^h, the largest being the size
    # cap, plus one assembly per family: ten jobs, so the 75th percentile
    # falls inside a stratum, not on the step between two.  Sets of equal
    # run count still differ up to 2x in lb cost, so the cap stays low
    # enough for a run to hold several blocks.
    UNIFORM_H = (9, 10, 11, 12, 13, 14, 15)
    RUN_CAP = 1 << 15
    ASSEMBLY_DEPTH = 22
    ASSEMBLY_KMAX = 16
    ASSEMBLY_RUN_CAP = 1 << 10
    ASSEMBLY_FAMILIES = ("phi", "q", "min")
    N_BLOCKS = 8

    def generate(self, bd, rng, workdir):
        sp, st = bd.spectra, bd.sets
        schedule = st.geometric_schedule(*self.SCHEDULE)
        depth = int(schedule[-1])
        u_window = (depth // 2, depth)
        u_cells = _restricted_cells(self.UNIFORM_THETAS, u_window)
        tenths = tuple(F(i, 10) for i in range(1, 10))
        a_window = (self.ASSEMBLY_DEPTH // 2, self.ASSEMBLY_DEPTH)
        a_cells = _restricted_cells(tenths, a_window)

        # uniform targets: draw psi parameters, size each draw by its run
        # count, and queue it under its stratum; draws above the cap or
        # outside the strata are redrawn
        queues = {h: [] for h in self.UNIFORM_H}
        while any(len(q) < self.N_BLOCKS for q in queues.values()):
            alpha = rng.choice((F(1), F(3, 4), F(1, 2)))
            lam = F(rng.randrange(2, 31), 32)
            spec = sp.make_psi(alpha, lam, alpha * (1 - lam) * F(rng.randrange(1, 32), 32))
            # cert_grid only affects the certificate, not the profile
            profile = st.realize_uniform_profile(spec, schedule, cert_grid=2)
            runs = _run_count(bd, st.profile_from_lipschitz(profile, 1, depth))
            h = runs.bit_length() - 1
            if runs <= self.RUN_CAP and h in queues and len(queues[h]) < self.N_BLOCKS:
                queues[h].append((spec, runs))

        blocks = []
        for b in range(self.N_BLOCKS):
            block = [("uniform",) + queues[h][b] for h in self.UNIFORM_H]
            block += [("assembly",) + self._assembly_target(bd, rng, family)
                      for family in self.ASSEMBLY_FAMILIES]
            rng.shuffle(block)
            jobs = []
            for kind, spec, runs in block:
                job_id = b * len(block) + len(jobs)
                if kind == "uniform":
                    params = {"spec": spec, "schedule": schedule, "depth": depth,
                              "thetas": self.UNIFORM_THETAS, "window": u_window,
                              "cells": u_cells}
                else:
                    params = {"spec": spec, "depth": self.ASSEMBLY_DEPTH,
                              "k_max": self.ASSEMBLY_KMAX, "thetas": tenths,
                              "window": a_window, "cells": a_cells}
                jobs.append(Job(job_id, kind, runs, params))
            blocks.append(jobs)
        return blocks

    def _assembly_target(self, bd, rng, family):
        sp = bd.spectra
        while True:
            if family == "phi":
                lam = F(rng.randrange(2, 15), 16)
                spec = sp.make_phi(1, lam, (1 - lam) * F(rng.randrange(1, 8), 8))
            elif family == "q":
                n1 = rng.randrange(4, 10)
                n2 = rng.randrange(n1 + 1, 15)
                spec = sp.make_q(1, F(n1, 16), F(n2, 16), F(rng.randrange(1, 8), 8))
            else:
                lams = rng.sample(range(2, 19), 3)
                spec = sp.min_family([sp.make_phi(1, F(l, 20), (1 - F(l, 20)) ** 4)
                                      for l in lams])
            runs = self._assembly_runs(bd, spec)
            if runs <= self.ASSEMBLY_RUN_CAP:
                return spec, runs

    def _assembly_runs(self, bd, spec) -> int:
        """Run count of the assembly, from each component's strip profile.

        Component k realizes u -> (k+u) * phi(k/(k+u)) over local depth
        depth-k (see ``build_assembly``); the profile is rebuilt here from
        public pieces so the size is known before anything is built.
        """
        total = 0
        for k in range(1, self.ASSEMBLY_KMAX + 1):
            local = self.ASSEMBLY_DEPTH - k
            knots = {F(0), F(local)}
            knots.update(F(k) / b - k for b in spec.breakpoints
                         if b and 0 < F(k) / b - k < local)
            ordered = sorted(knots)
            values = tuple((k + u) * bd.spectra.eval_spectrum(spec, F(k) / (k + u))
                           for u in ordered)
            strip = bd.branch.LipschitzProfile(tuple(ordered), values, spec.alpha)
            total += _run_count(bd, bd.sets.profile_from_lipschitz(strip, 1, local))
        return total

    def run(self, bd, job):
        p = job.params
        st, ct = bd.sets, bd.counting
        if job.kind == "uniform":
            profile = st.realize_uniform_profile(p["spec"], p["schedule"])
            subdivision = st.profile_from_lipschitz(profile, 1, p["depth"])
            built = st.build_moran(subdivision, p["depth"])
            certified = True
        else:
            built = st.build_assembly(p["spec"], d=1, k_max=p["k_max"],
                                      depth=p["depth"])
            certified = built.certified
        iset = st.enumerate_components(built, p["depth"])
        table = ct.lb_table(iset, p["depth"], candidate_rule="sparse",
                            cells=p["cells"])
        est = ct.estimate_lower_spectrum(table, p["thetas"], p["window"])
        return {"table": table, "estimate": est, "certified": certified,
                "pieces": len(iset)}

    def collect(self, bd, job, raw):
        return raw

    def check(self, bd, job, out):
        problems = [f"lb table: {p}" for p in out["table"].validate()[:3]]
        if not all(math.isfinite(v) and v >= 0 for v in out["estimate"].values):
            problems.append(f"estimate values {out['estimate'].values}")
        if problems:  # table_to_csv cannot take the log of a count below 1
            return problems, None
        digest = "".join((
            bd.counting.table_to_csv(out["table"]),
            bd.counting.estimate_to_csv(out["estimate"]),
            f"certified={out['certified']} pieces={out['pieces']}\n",
        )).encode()
        return problems, digest


# ---------------------------------------------------------------------------
# classify_spectra: inequality checks, lifts, regularization

class ClassifySpectra:
    name = "classify_spectra"
    why = ("S/W/M/L/AQ checks at grid 32/64/128 + check_joint, and lift + "
           "lambda_limit + regularize + check_branch: spectra and branch "
           "carry the load; sets and counting idle")
    # Each spectrum gives two jobs: its inequality checks, and its branch
    # work (lift, limits, regularization).  Grid slots of one block; across
    # six blocks every spectrum shape meets every slot once.
    GRID_SLOTS = (32, 32, 32, 64, 64, 128)
    JOINT_GRID = 32
    LIFT_U_MAX = 48
    LIFT_THETAS = tuple(sorted({F(i, 12) for i in range(1, 13)}
                               | {F(i, 10) for i in range(1, 11)}))
    ETA = 2
    N_BLOCKS = 12

    def generate(self, bd, rng, workdir):
        sp, br = bd.spectra, bd.branch
        kinds = rng.sample(range(len(self.GRID_SLOTS)), len(self.GRID_SLOTS))
        eta = br.EtaBound.const(self.ETA)
        previous = {}
        blocks = []
        for b in range(self.N_BLOCKS):
            work = []
            for pos in rng.sample(range(len(kinds)), len(kinds)):
                grid = self.GRID_SLOTS[(pos + b) % len(self.GRID_SLOTS)]
                spec = self._random_spectrum(sp, rng, kinds[pos])
                companion = previous.get(spec.alpha) or sp.spectrum_from_breakpoints(
                    (0, 1), (spec.alpha, 0), spec.alpha)
                previous[spec.alpha] = spec
                work.append((f"grid{grid}", grid,
                             {"spec": spec, "grid": grid, "companion": companion}))
                work.append(("branch", 0, {"spec": spec, "eta": eta,
                                           "f": self._perturbed_lift(sp, br, rng)}))
            rng.shuffle(work)
            first = b * len(work)
            blocks.append([Job(first + i, kind, size, params)
                           for i, (kind, size, params) in enumerate(work)])
        return blocks

    @staticmethod
    def _random_spectrum(sp, rng, kind):
        """Spectra shaped like the requirement-8 sweep: named families,
        segments and free profiles on a sixteenth grid."""
        alpha = rng.choice((F(1, 2), F(1), F(2)))
        if kind in (0, 1):
            lam = F(rng.randrange(2, 15), 16)
            t = alpha * (1 - lam) * F(rng.randrange(1, 8), 8)
            return (sp.make_phi, sp.make_psi)[kind](alpha, lam, t)
        if kind == 2:
            n1 = rng.randrange(4, 10)
            n2 = rng.randrange(n1 + 1, 15)
            return sp.make_q(alpha, F(n1, 16), F(n2, 16),
                             alpha * F(rng.randrange(1, 8), 8))
        if kind == 3:
            start = alpha * F(rng.randrange(1, 9), 8)
            end = F(0) if rng.random() < 0.5 else start
            return sp.spectrum_from_breakpoints((0, 1), (start, end), alpha)
        inner = sorted(rng.sample(range(1, 16), rng.randrange(2, 6)))
        breaks = [F(0)] + [F(k, 16) for k in inner] + [F(1)]
        values = [alpha * F(rng.randrange(0, 17), 16) for _ in breaks]
        if rng.random() < 0.5:
            values[-1] = F(0)
        if rng.random() < 0.3:
            for i in range(1, len(values)):
                values[i] = min(values[i - 1], values[i])
        return sp.spectrum_from_breakpoints(breaks, values, alpha)

    @staticmethod
    def _perturbed_lift(sp, br, rng):
        """Integer-grid samples of u*phi(v/u) plus two unit jumps in u."""
        u_max = rng.randint(14, 20)
        lam = F(rng.randrange(4, 13), 16)
        maker = rng.choice((sp.make_phi, sp.make_psi))
        base = maker(1, lam, (1 - lam) * F(rng.randrange(1, 8), 8))
        cuts = (rng.randrange(2, u_max), rng.randrange(2, u_max))

        def jumps(x):
            return sum(1 for c in cuts if x >= c)

        samples = {(u, v): (u * sp.eval_spectrum(base, F(v, u)) if u else F(0))
                   + jumps(u) - jumps(v)
                   for u in range(u_max + 1) for v in range(u + 1)}
        return br.GridBranch(samples, u_max)

    def run(self, bd, job):
        p = job.params
        sp, br = bd.spectra, bd.branch
        spec = p["spec"]
        if job.kind != "branch":
            return {"reports": {name: sp.check_inequality(spec, name, p["grid"],
                                                          tolerance=0.0)
                                for name in INEQUALITIES},
                    "joint": sp.check_joint(p["companion"], spec, self.JOINT_GRID)}
        lifted = br.lift(spec, self.LIFT_U_MAX)
        limits = [br.lambda_limit(lifted, th, 7, self.LIFT_U_MAX)
                  for th in self.LIFT_THETAS]
        g = br.regularize(p["f"], 1, p["eta"])
        return {"certified": lifted.certified, "limits": limits, "g": g,
                "branch": br.check_branch(g, 1, tolerance=0.0)}

    def collect(self, bd, job, raw):
        return raw

    def check(self, bd, job, out):
        if job.kind == "branch":
            return self._check_branch(bd, job, out)
        sp = bd.spectra
        spec = job.params["spec"]
        passed = {name: rep.passed for name, rep in out["reports"].items()}
        end_zero = sp.eval_spectrum(spec, 1) == 0
        problems = []
        if passed["M"] and passed["W"] and not passed["S"]:
            problems.append("M and W hold without S")
        if passed["L"] and end_zero and not passed["W"]:
            problems.append("L and phi(1)=0 hold without W")
        if passed["S"]:
            vals = spec.values
            if not end_zero or any(a < b for a, b in zip(vals, vals[1:])):
                problems.append("S holds without decay to phi(1)=0")
        lines = [_stable_text((name, rep.passed, rep.worst_violation,
                               rep.worst_margin, rep.witness))
                 for name, rep in sorted(out["reports"].items())]
        joint = out["joint"]
        lines.append(_stable_text(("JOINT", joint.passed, joint.worst_violation,
                                   joint.worst_margin, joint.witness, joint.binding)))
        return problems, ("\n".join(lines) + "\n").encode()

    def _check_branch(self, bd, job, out):
        sp = bd.spectra
        spec, f, eta = job.params["spec"], job.params["f"], job.params["eta"]
        problems = []
        for th, got in zip(self.LIFT_THETAS, out["limits"]):
            if got != sp.eval_spectrum(spec, th):
                problems.append(f"lambda_limit round trip fails at theta={th}")
                break
        g, top = out["g"], int(f.u_max)
        g_vals = []
        outside = []
        for u in range(top + 1):
            for v in range(u + 1):
                fv, gv = f.value(u, v), g.value(u, v)
                g_vals.append(gv)
                if not (fv - eta.at(u) <= gv <= fv):
                    outside.append((u, v))
        if outside:
            problems.append(f"sandwich f-eta <= g <= f fails at {len(outside)} "
                            f"cells, first {outside[0]}")
        if not out["branch"].passed:
            problems.append(f"check_branch fails: {out['branch']}")
        rep = out["branch"]
        lines = [
            _stable_text((out["certified"], out["limits"])),
            _stable_text((rep.passed, rep.superadd_violation, rep.superadd_witness,
                          rep.lipschitz_violation, rep.lipschitz_witness)),
            _stable_text(g_vals),
        ]
        return problems, ("\n".join(lines) + "\n").encode()


def corrupt_output(out):
    """A copy of a job output that breaks an invariant its oracle checks,
    or None for an output kind this does not corrupt (self-test only)."""
    out = copy.deepcopy(out)
    if "files" in out:                       # measure_moran: lb.csv count 0
        lines = out["files"]["lb.csv"].decode().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
        u, v, _, log2 = lines[row].split(",")
        lines[row] = f"{u},{v},0,{log2}"
        out["files"]["lb.csv"] = ("\n".join(lines) + "\n").encode()
    elif "table" in out:                     # realize_measure: table cell 0
        out["table"].cells[next(iter(out["table"].cells))] = 0
    elif "limits" in out:                    # classify_spectra: broken limit
        out["limits"][0] += 1
    else:
        return None
    return out


WORKLOADS = {w.name: w for w in (MeasureMoran(), RealizeMeasure(), ClassifySpectra())}
