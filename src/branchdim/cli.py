"""Command-line orchestration: configs in, CSV artifacts and exit codes out.

Configuration files are flat ``key=value`` text; blank lines and ``#``
comments are ignored, later keys win, and a handful of flags override the
file.  Values are parsed exactly (``0.1`` becomes the rational 1/10, not
the nearest double), which keeps every derived CSV byte-identical across
runs and platforms.

Commands:

* ``check``     evaluate classification inequalities for a spectrum
* ``make-set``  build a Moran set or an assembly and write it out
* ``measure``   count a built set into tables and spectrum estimates
* ``verify``    build, measure, and compare against the target spectrum
* ``examples``  write sample config files demonstrating the keys

Exit codes: 0 success/pass, 1 a requested check or comparison failed,
2 configuration or input could not be parsed, 3 a precondition gate
stopped the run (uncertified spectrum).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .branch import EtaBound
from .counting import (
    _resolve_window,
    check_uniformity,
    estimate_assouad_spectrum,
    estimate_lower_spectrum,
    estimate_to_csv,
    lb_table,
    lower_cells,
    monotonize_estimate,
    table_to_csv,
    ub_table,
    uniformity_report_to_csv,
)
from .errors import BranchDimError, FormatError, ParameterError
from .branch import LipschitzProfile
from .sets import (
    assembly_to_csv,
    build_assembly,
    build_moran,
    dyadic_set_to_csv,
    enumerate_components,
    profile_from_lipschitz,
)
from .spectra import (
    INEQUALITIES,
    Spectrum,
    check_inequality,
    make_phi,
    make_psi,
    make_q,
    spectrum_from_breakpoints,
    spectrum_from_text,
)
from ._num import as_fraction, fmt_decimal

__all__ = ["main", "run_check", "run_make_set", "run_measure", "run_verify"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_GATE = 3

KNOWN_KEYS = {
    "command", "out",
    "family", "alpha", "lambda", "t", "a1", "a2", "kappa", "spectrum-file",
    "kind", "slope", "depth", "kmax",
    "u-max", "candidate-rule", "tables", "eta",
    "window", "theta-grid", "tolerance",
    "inequalities", "grid",
}

COMMANDS = ("check", "make-set", "measure", "verify", "examples")


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value lines; unknown keys are rejected, last value wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _fraction(cfg: dict, key: str, default=None) -> Fraction:
    if key not in cfg:
        if default is None:
            raise FormatError(f"missing required key {key!r}")
        return as_fraction(default)
    try:
        return as_fraction(cfg[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _int(cfg: dict, key: str, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise FormatError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise FormatError(f"bad integer for {key!r}: {cfg[key]!r}") from exc


def _theta_grid(cfg: dict) -> list[Fraction]:
    raw = cfg.get("theta-grid", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    try:
        grid = [as_fraction(part.strip()) for part in raw.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad theta grid {raw!r}") from exc
    if not grid or any(not (0 < t <= 1) for t in grid):
        raise FormatError(f"theta grid must lie in (0, 1], got {raw!r}")
    return grid


def _window(cfg: dict, u_max: int) -> tuple[int, int]:
    """The estimators' u window: the configured one, else their default."""
    raw = cfg.get("window")
    if raw is None:
        return _resolve_window(None, u_max)
    sep = ".." if ".." in raw else ","
    parts = [p.strip() for p in raw.split(sep)]
    if len(parts) != 2:
        raise FormatError(f"window must be 'lo,hi' or 'lo..hi', got {raw!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"bad window {raw!r}") from exc
    if not (0 < lo <= hi <= u_max):
        raise FormatError(f"window {raw!r} outside 1..{u_max}")
    return (lo, hi)


def _spectrum(cfg: dict) -> Spectrum:
    """Resolve the target spectrum from inline family keys or a file."""
    if "spectrum-file" in cfg:
        path = cfg["spectrum-file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return spectrum_from_text(fh.read())
        except OSError as exc:
            raise FormatError(f"cannot read spectrum file {path!r}: {exc}") from exc
    family = cfg.get("family")
    if family is None:
        raise FormatError("config needs either family= or spectrum-file=")
    alpha = _fraction(cfg, "alpha", 1)
    try:
        if family == "zero":
            return spectrum_from_breakpoints((0, 1), (0, 0), alpha)
        if family == "segment":
            return spectrum_from_breakpoints((0, 1), (alpha, 0), alpha)
        if family in ("phi", "psi"):
            maker = make_phi if family == "phi" else make_psi
            return maker(alpha, _fraction(cfg, "lambda"), _fraction(cfg, "t"))
        if family == "q":
            return make_q(alpha, _fraction(cfg, "a1"), _fraction(cfg, "a2"),
                          _fraction(cfg, "kappa"))
    except ParameterError as exc:
        raise FormatError(f"bad {family} parameters: {exc}") from exc
    raise FormatError(f"unknown family {family!r}")


def _build_set(cfg: dict):
    """Construct the object named by kind=; returns (object, depth)."""
    kind = cfg.get("kind", "moran")
    depth = _int(cfg, "depth", 16)
    if kind == "moran":
        slope = _fraction(cfg, "slope", Fraction(1, 2))
        if not (0 <= slope <= 1):
            raise FormatError(f"moran slope must lie in [0, 1], got {slope}")
        end = Fraction(max(depth, 1))  # a line needs two knots, also at depth 0
        line = LipschitzProfile((Fraction(0), end), (Fraction(0), slope * end), Fraction(1))
        profile = profile_from_lipschitz(line, 1, depth)
        return build_moran(profile, depth), depth
    if kind == "assembly":
        spec = _spectrum(cfg)
        kmax = _int(cfg, "kmax", 8)
        return build_assembly(spec, d=1, k_max=kmax, depth=depth), depth
    raise FormatError(f"unknown set kind {kind!r}")


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def run_check(cfg: dict, out_dir: str) -> int:
    spec = _spectrum(cfg)
    wanted = [s.strip() for s in cfg.get("inequalities", "S,W").split(",") if s.strip()]
    for name in wanted:
        if name not in INEQUALITIES:
            raise FormatError(f"unknown inequality {name!r}")
    grid = _int(cfg, "grid", 512)
    lines = ["check,passed,worst,witness"]
    all_passed = True
    for name in wanted:
        rep = check_inequality(spec, name, grid)
        all_passed &= rep.passed
        witness = "" if rep.witness is None else \
            f"({fmt_decimal(rep.witness[0])};{fmt_decimal(rep.witness[1])})"
        lines.append(
            f"{name},{str(rep.passed).lower()},{rep.worst_violation!r},{witness}"
        )
        print(f"check {name}: {'pass' if rep.passed else 'FAIL'}")
    _write(out_dir, "check.csv", "\n".join(lines) + "\n")
    return EXIT_OK if all_passed else EXIT_FAILED


def run_make_set(cfg: dict, out_dir: str) -> int:
    built, _ = _build_set(cfg)
    if hasattr(built, "components"):
        text = assembly_to_csv(built)
    else:
        text = dyadic_set_to_csv(built)
    path = _write(out_dir, "set.csv", text)
    print(f"wrote {path}")
    return EXIT_OK


def run_measure(cfg: dict, out_dir: str) -> int:
    tables = cfg.get("tables", "lb")
    if tables not in ("lb", "both"):
        raise FormatError(f"tables must be lb or both, got {tables!r}")
    built, depth = _build_set(cfg)
    u_max = _int(cfg, "u-max", depth)
    rule = cfg.get("candidate-rule", "dense")
    window = _window(cfg, u_max)
    thetas = _theta_grid(cfg)
    eta = (EtaBound.const(_fraction(cfg, "eta"))
           if tables == "both" and "eta" in cfg else None)
    iset = enumerate_components(built, depth)

    lb = lb_table(iset, u_max, candidate_rule=rule)
    _write(out_dir, "lb.csv", table_to_csv(lb))
    lower = estimate_lower_spectrum(lb, thetas, window)
    _write(out_dir, "lower.csv", estimate_to_csv(lower))
    _write(out_dir, "monotone.csv", estimate_to_csv(monotonize_estimate(lower)))

    if tables == "both":
        ub = ub_table(iset, u_max, candidate_rule=rule)
        _write(out_dir, "ub.csv", table_to_csv(ub))
        assouad = estimate_assouad_spectrum(ub, thetas, window)
        _write(out_dir, "assouad.csv", estimate_to_csv(assouad))
        if eta is not None:
            report = check_uniformity(lb, ub, eta)
            _write(out_dir, "uniformity.csv", uniformity_report_to_csv(report))
            print(f"uniformity: {'pass' if report.passed else 'FAIL'}")
    print(f"measured {len(lb.grid())} cells to u_max={u_max}")
    return EXIT_OK


def run_verify(cfg: dict, out_dir: str) -> int:
    spec = _spectrum(cfg)
    depth = _int(cfg, "depth", 16)
    kmax = _int(cfg, "kmax", 8)
    tolerance = float(_fraction(cfg, "tolerance", Fraction(3, 20)))
    grid = _int(cfg, "grid", 512)
    gate = [name for name in ("S", "W")
            if not check_inequality(spec, name, grid).passed]
    if gate:
        print(f"spectrum fails {','.join(gate)}; not realizable here",
              file=sys.stderr)
        return EXIT_GATE

    assembly = build_assembly(spec, d=1, k_max=kmax, depth=depth)
    iset = enumerate_components(assembly, depth)
    rule = cfg.get("candidate-rule", "dense")
    thetas = _theta_grid(cfg)
    window = _window(cfg, depth)
    cells = lower_cells(depth, thetas, window)
    lb = lb_table(iset, depth, candidate_rule=rule, cells=cells)
    est = estimate_lower_spectrum(lb, thetas, window)

    lines = ["theta,target,measured,abs_error"]
    worst = 0.0
    for theta, measured in zip(est.thetas, est.values):
        target = float(spec.eval_exact(theta))
        err = abs(measured - target)
        worst = max(worst, err)
        lines.append(f"{fmt_decimal(theta)},{target!r},{measured!r},{err!r}")
    _write(out_dir, "verify.csv", "\n".join(lines) + "\n")
    passed = worst <= tolerance
    print(f"verify: worst |measured - target| = {worst:.4f} "
          f"(tolerance {tolerance}) -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILED


EXAMPLE_CONFIGS = {
    "check-q.cfg": (
        "# classification checks for a three-piece target\n"
        "command=check\n"
        "family=q\n"
        "alpha=1\n"
        "a1=1/2\n"
        "a2=2/3\n"
        "kappa=1/4\n"
        "inequalities=S,W\n"
    ),
    "moran-half.cfg": (
        "# half-slope Moran set, measured to depth 12\n"
        "command=measure\n"
        "kind=moran\n"
        "slope=1/2\n"
        "depth=12\n"
        "tables=both\n"
        "eta=4\n"
    ),
    "verify-zero.cfg": (
        "# the empty-spectrum assembly measures back to zero\n"
        "command=verify\n"
        "family=zero\n"
        "depth=12\n"
        "kmax=6\n"
        "tolerance=0.05\n"
    ),
}


def run_examples(out_dir: str) -> int:
    for name, text in sorted(EXAMPLE_CONFIGS.items()):
        _write(out_dir, name, text)
    print(f"wrote {len(EXAMPLE_CONFIGS)} example configs to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchdim",
        description="Build, measure, and verify dimension-spectrum sets.",
    )
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the config's command")
    parser.add_argument("--depth", type=int, help="override construction depth")
    parser.add_argument("--kmax", type=int, help="override assembly cutoff")
    parser.add_argument("--theta-grid", help="override theta grid (comma list)")
    parser.add_argument("--tolerance", help="override verify tolerance")
    args = parser.parse_args(argv)

    try:
        cfg: dict[str, str] = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = parse_config(fh.read())
            except OSError as exc:
                raise FormatError(f"cannot read config: {exc}") from exc
        if args.command:
            cfg["command"] = args.command
        if args.depth is not None:
            cfg["depth"] = str(args.depth)
        if args.kmax is not None:
            cfg["kmax"] = str(args.kmax)
        if args.theta_grid is not None:
            cfg["theta-grid"] = args.theta_grid
        if args.tolerance is not None:
            cfg["tolerance"] = args.tolerance
        out_dir = args.out or cfg.get("out", ".")

        command = cfg.get("command")
        if command is None:
            raise FormatError("no command given (config command= or --command)")
        if command == "check":
            return run_check(cfg, out_dir)
        if command == "make-set":
            return run_make_set(cfg, out_dir)
        if command == "measure":
            return run_measure(cfg, out_dir)
        if command == "verify":
            return run_verify(cfg, out_dir)
        if command == "examples":
            return run_examples(out_dir)
        raise FormatError(f"unknown command {command!r}")
    except BranchDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
