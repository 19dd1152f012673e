"""Command-line driver.

    dimlab construct {alternating,sweep,ifs,points,measure} ...
    dimlab estimate  {box,corr,frostman,fourier-corr,fourier-box,energy} ...
    dimlab verify    {alternating-counts,sweep-counts,frostman-stages,
                      fourier-sandwich,corr-sandwich,ineq-chain,
                      ball-lower-bound} ...
    dimlab export    ...

Exit codes: 0 success, 2 parameter/file validation error, 3 computation
error (unavailable or unsupported request), 4 verification failure. A
verify suite that ends inconclusive (bracket too wide to decide) exits 0
but says INCONCLUSIVE; only definite violations exit 4.

Parameters where exactness matters (dimension exponents, radii used in
floor computations) are rationals written as "p/q"; decimals are rejected
there. Plain tolerances and quadrature targets accept floats. Scale lists
are written either as "2^a..2^b" (inclusive, integer exponents) or as a
comma-separated list of rationals.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import fourier, io
from .constructions import (alternating_measure, alternating_plan,
                            alternating_set, stagewise_frostman_measures,
                            sweep_plan, sweep_set, verify_alternating_plan,
                            verify_stage_balls, verify_sweep_plan,
                            verify_sweep_set)
from .estimators import (box_dims, correlation_dims, correlation_sandwich,
                         frostman_slope, inequality_report)
from .exact import (ConstructionError, UnavailableError,
                    UnsupportedModelError, ValidationError,
                    parse_rational, pow2)
from .measure import (DyadicMeasureTree, anti_frostman_check,
                      anti_frostman_measure, net_measure)
from .settree import DyadicSetTree

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_VERIFICATION = 4


# ---------------------------------------------------------------------------
# argument parsing helpers


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _levels(text: str) -> list[int]:
    """'a..b' (inclusive) or comma-separated integers."""
    t = text.strip()
    try:
        if ".." in t:
            lo, hi = t.split("..", 1)
            a, b = int(lo), int(hi)
            if b < a:
                raise ValueError
            return list(range(a, b + 1))
        return [int(c) for c in t.split(",") if c.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")


def _pow2_token(tok: str) -> int | None:
    t = tok.strip()
    if t.startswith("2^"):
        try:
            return int(t[2:])
        except ValueError:
            return None
    return None


def _scales(text: str) -> list[Fraction]:
    """'2^a..2^b' (inclusive, either direction) or comma-separated
    rationals/2^k tokens. Exact values throughout."""
    t = text.strip()
    if ".." in t:
        lo, hi = t.split("..", 1)
        a, b = _pow2_token(lo), _pow2_token(hi)
        if a is None or b is None:
            raise argparse.ArgumentTypeError(
                f"range form must be 2^a..2^b, got {text!r}")
        step = 1 if b >= a else -1
        return [pow2(e) for e in range(a, b + step, step)]
    out = []
    for tok in t.split(","):
        if not tok.strip():
            continue
        e = _pow2_token(tok)
        out.append(pow2(e) if e is not None else _rational(tok))
    if not out:
        raise argparse.ArgumentTypeError(f"empty scale list {text!r}")
    return out


def _load_set(path: str) -> DyadicSetTree:
    obj = io.load_json(path)
    if isinstance(obj, DyadicMeasureTree):
        return obj.support
    if isinstance(obj, DyadicSetTree):
        return obj
    raise ValidationError(f"{path} holds a plan, not a set")


def _load_measure(path: str) -> DyadicMeasureTree:
    obj = io.load_json(path)
    if isinstance(obj, DyadicMeasureTree):
        return obj
    if isinstance(obj, DyadicSetTree):
        return DyadicMeasureTree.uniform_on_set(obj)
    raise ValidationError(f"{path} holds a plan, not a measure")


def _emit(args, report, lines) -> None:
    for line in lines:
        print(line)
    if getattr(args, "json", None):
        io.report_to_json(report, args.json)
        print(f"wrote {args.json}")


def _verdict(args, report, lines, ok: bool) -> int:
    """A verify suite's tail: lines and its "{suite}: PASS" or "FAIL" line
    emitted with the report, then its exit code."""
    lines.append(f"{args.suite}: {'PASS' if ok else 'FAIL'}")
    _emit(args, report, lines)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _slope_lines(name: str, st) -> list[str]:
    return [f"{name}: full={st.full.value:.4f} lower={st.lower.value:.4f} "
            f"upper={st.upper.value:.4f} window_len={st.window_len} "
            f"points={len(st.points)}"]


def _triple_report(st) -> dict:
    return {"full": st.full.value, "lower": st.lower.value,
            "upper": st.upper.value, "window_len": st.window_len,
            "points": [[x, y] for x, y in st.points]}


def _check_lines(checks) -> list[str]:
    limit = 20  # failed checks listed one by one
    lines = []
    bad = [c for c in checks if not c["ok"]]
    for c in bad[:limit]:
        detail = " ".join(f"{k}={v}" for k, v in c.items()
                          if k not in ("ok", "name"))
        lines.append(f"  FAIL {c['name']} {detail}")
    if len(bad) > limit:
        lines.append(f"  ... and {len(bad) - limit} more failures")
    lines.append(f"  checks: {len(checks) - len(bad)}/{len(checks)} passed")
    return lines


# ---------------------------------------------------------------------------
# construct


def _construct_plan(args, make_plan, make_set):
    """The plan of construct alternating or sweep, saved to --plan-out, and
    its set at --depth saved to --out."""
    plan = make_plan(args.dim_low, args.dim_high,
                     level_budget=args.level_budget)
    print(f"{args.kind} plan: stages k=1..{plan.k_max}, "
          f"last level {plan.last_level}")
    if args.plan_out:
        io.save_json(plan, args.plan_out)
        print(f"wrote {args.plan_out}")
    if args.out:
        if args.depth is None:
            raise ValidationError("--depth is required with --out")
        tree = make_set(plan, args.depth)
        io.save_json(tree, args.out)
        print(f"wrote {args.out} (depth {args.depth}, "
              f"{len(tree.levels[args.depth])} leaf cubes)")
    return plan


def _cmd_construct_alternating(args) -> int:
    plan = _construct_plan(args, alternating_plan, alternating_set)
    if args.measure_out:
        if args.stage is None:
            raise ValidationError("--stage is required with --measure-out")
        mu = alternating_measure(plan, args.stage)
        io.save_json(mu, args.measure_out)
        print(f"wrote {args.measure_out} (stage {args.stage}, "
              f"depth {mu.max_depth})")
    return EXIT_OK


def _cmd_construct_sweep(args) -> int:
    _construct_plan(args, sweep_plan, sweep_set)
    return EXIT_OK


def _cmd_construct_ifs(args) -> int:
    base = args.base
    group = base.bit_length() - 1
    if group < 1 or base != 1 << group:
        raise ValidationError(f"--base must be a power of two >= 2, got {base}")
    try:
        keep = sorted(set(int(c) for c in args.keep.split(",")))
    except ValueError as exc:
        raise ValidationError(
            f"--keep must be comma-separated integers, got {args.keep!r}"
        ) from exc
    tree = DyadicSetTree.from_digit_ifs(args.d, group, keep, args.depth)
    io.save_json(tree, args.out)
    print(f"wrote {args.out} (digit rule base {base} keep {keep}, "
          f"depth {args.depth}, {len(tree.levels[args.depth])} leaf cubes)")
    return EXIT_OK


def _cmd_construct_points(args) -> int:
    tree = io.points_from_csv(args.csv, args.d, args.snap_depth)
    io.save_json(tree, args.out)
    print(f"wrote {args.out} ({len(tree.levels[tree.max_depth])} occupied "
          f"cubes at depth {tree.max_depth})")
    return EXIT_OK


def _cmd_construct_measure(args) -> int:
    tree = _load_set(args.set)
    if args.kind == "uniform":
        mu = DyadicMeasureTree.uniform_on_set(tree)
    elif args.kind == "net":
        mu = net_measure(tree, args.level if args.level is not None
                         else tree.max_depth)
    else:  # anti-frostman
        if not args.net_levels:
            raise ValidationError("--net-levels required for anti-frostman")
        mu, _ = anti_frostman_measure(tree, args.net_levels)
    io.save_json(mu, args.out)
    print(f"wrote {args.out} ({args.kind} measure, depth {mu.max_depth})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate_slope(args) -> int:
    """estimate box, corr or frostman: the loader, fit and CSV column that
    the subcommand registered."""
    st = args.fit(args.load(args.infile), args.levels, args.window)
    _emit(args, _triple_report(st), _slope_lines(args.estimator, st))
    if args.csv:
        io.curve_to_csv(st.points, args.csv, header=("level", args.column))
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_estimate_fourier(args) -> int:
    """estimate fourier-corr or fourier-box: the loader and fit that the
    subcommand registered."""
    rep = args.fit(args.load(args.infile), args.scales, args.window,
                   args.rel_tol)
    st = rep.dims
    lines = _slope_lines(args.estimator, st)
    if rep.low_confidence:
        lines.append("  low confidence: fewer than 4 octaves or points")
    if rep.curve.degraded:
        lines.append("  quadrature budget exhausted on some samples")
    _emit(args, {"dims": _triple_report(st),
                 "low_confidence": rep.low_confidence}, lines)
    if args.csv:
        io.curve_to_csv(rep.curve.samples, args.csv)
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_estimate_energy(args) -> int:
    mu = _load_measure(args.infile)
    rep = fourier.fourier_energy(mu, args.s, r_max=args.rmax,
                                 rel_tol=args.rel_tol)
    if rep.diverged:
        lines = [f"energy s={args.s}: diverged "
                 f"(decay exponent {rep.decay_exponent:.3f})"]
    else:
        lines = [f"energy s={args.s}: {rep.value:.6g} "
                 f"(decay exponent {rep.decay_exponent:.3f}, "
                 f"est. err ~{rep.err:.2g})"]
    _emit(args, rep, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_alternating(args) -> int:
    plan = alternating_plan(args.dim_low, args.dim_high,
                            level_budget=args.level_budget)
    rep = verify_alternating_plan(plan)
    lines = [f"alternating-counts: k=1..{rep['k_max']}, "
             f"last level {rep['last_level']}"]
    lines += _check_lines(rep["checks"])
    return _verdict(args, rep, lines, rep["ok"])


def _cmd_verify_sweep(args) -> int:
    plan = sweep_plan(args.dim_low, args.dim_high,
                      level_budget=args.level_budget)
    prep = verify_sweep_plan(plan)
    tree = sweep_set(plan, args.materialize_depth)
    srep = verify_sweep_set(plan, tree)
    ok = prep["ok"] and srep["ok"]
    lines = [f"sweep-counts: k=1..{prep['k_max']}, materialized depth "
             f"{args.materialize_depth}"]
    lines += _check_lines(prep["checks"] + srep["checks"])
    return _verdict(args, {"plan": prep, "set": srep, "ok": ok}, lines, ok)


def _cmd_verify_frostman_stages(args) -> int:
    tree = _load_set(args.infile) if args.infile else DyadicSetTree.full(
        args.d, args.depth)
    # default radius ladder: one candidate level per materialized level
    radii = args.radii if args.radii else [pow2(-(k + 2))
                                           for k in range(1, tree.max_depth + 1)]
    measures, rep = stagewise_frostman_measures(tree, args.s, radii,
                                                stages=args.stages)
    balls = verify_stage_balls(measures, rep)
    ok = rep.ok and balls["ok"] and bool(rep.stage_levels)
    lines = [f"frostman-stages: s={args.s}, stages at levels "
             f"{rep.stage_levels}"]
    for row in rep.rows:
        lines.append(f"  stage {row['stage']} level {row['level']}: "
                     f"{row['cubes']} cubes, mass bound "
                     f"{'ok' if row['mass_bound_ok'] else 'VIOLATED'}")
    for row in balls["rows"]:
        lines.append(f"  ball check at level {row['stage_level']}: "
                     f"{row['centers']} centers, "
                     f"{'ok' if row['ok'] else 'VIOLATED'}")
    if rep.heuristic_oracle:
        lines.append("  note: admissibility decided by a slope heuristic")
    return _verdict(args, {"stages": rep, "balls": balls, "ok": ok},
                    lines, ok)


def _cmd_verify_fourier_sandwich(args) -> int:
    mu = _load_measure(args.infile)
    rep = fourier.fourier_sandwich_report(
        mu, float(args.eps), args.scales, tol=args.tol)
    lines = [f"fourier-sandwich: eps={args.eps}, slope {rep.slope:+.4f}, "
             f"band +-{mu.d * float(args.eps) + args.tol:.4f}"]
    for row in rep.rows:
        lines.append(f"  r={row['r']}: ratio {row['ratio']:.4g}"
                     + (" (bracket too wide)"
                        if row.get("flag") == "wide-bracket" else ""))
    if rep.inconclusive:
        lines.append("fourier-sandwich: INCONCLUSIVE")
        _emit(args, rep, lines)
        return EXIT_OK
    return _verdict(args, rep, lines, rep.passed)


def _cmd_verify_corr_sandwich(args) -> int:
    tree = _load_set(args.infile)
    rep = correlation_sandwich(tree, args.levels,
                               n_random=args.random_measures, seed=args.seed)
    bad = [r for r in rep["rows"] if not r["ok"]]
    lines = [f"corr-sandwich: levels {args.levels[0]}..{args.levels[-1]}, "
             f"{args.random_measures} random measures, "
             f"{len(rep['rows']) - len(bad)}/{len(rep['rows'])} checks passed"]
    for r in bad[:10]:
        lines.append(f"  FAIL level {r['level']} measure {r['measure']}")
    return _verdict(args, rep, lines, rep["ok"])


def _cmd_verify_ineq_chain(args) -> int:
    tree = _load_set(args.infile)
    measures = [DyadicMeasureTree.uniform_on_set(tree)]
    for path in args.measures or []:
        measures.append(_load_measure(path))
    rep = inequality_report(tree, measures, args.levels, args.window,
                            tol=args.tol)
    lines = [f"ineq-chain: window {rep.window}, tol {rep.tol}"]
    for k, v in sorted(rep.estimates.items()):
        lines.append(f"  {k} = {v}")
    for c in rep.checks:
        mark = "ok  " if c["ok"] else "FAIL"
        lines.append(f"  {mark} {c['name']}: {c['lhs']:.4f} vs {c['rhs']:.4f}")
    for g in rep.gaps:
        lines.append(f"  gap: {g}")
    return _verdict(args, rep, lines, rep.ok)


def _cmd_verify_ball_lower(args) -> int:
    tree = _load_set(args.infile)
    rep = anti_frostman_check(tree, args.levels)
    lines = []
    for row in rep["rows"]:
        lines.append(f"  level {row['level']}: net {row['net_size']}, "
                     f"min ball mass {row['min_ball_mass']} >= bound "
                     f"{row['bound']}: {'ok' if row['ok'] else 'VIOLATED'}")
    return _verdict(args, {k: v for k, v in rep.items() if k != "measure"},
                    lines, rep["ok"])


# ---------------------------------------------------------------------------
# export


def _cmd_export(args) -> int:
    obj = io.load_json(args.infile)
    if not isinstance(obj, (DyadicMeasureTree, DyadicSetTree)):
        raise ValidationError("export needs a set or measure file")
    if not 0 <= args.min_level <= obj.max_depth:
        raise ValidationError(f"--min-level must lie in 0..{obj.max_depth}")
    levels = range(args.min_level, obj.max_depth + 1)
    if isinstance(obj, DyadicMeasureTree):
        rows = [(n, float(obj.max_cube_mass(n)),
                 float(obj.dyadic_correlation_sum(n))) for n in levels]
        io.curve_to_csv(rows, args.csv,
                        header=("level", "max_mass", "corr_sum"))
    else:
        rows = [(n, obj.box_count(n), "") for n in levels]
        io.curve_to_csv(rows, args.csv, header=("level", "box_count", ""))
    print(f"wrote {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_common_estimate(p, scales_default=None):
    """The options of the slope estimates; with scales_default, of the
    Fourier ones, which take --scales and --rel-tol instead of --levels."""
    p.add_argument("--in", dest="infile", required=True,
                   help="set or measure JSON (a set is wrapped in its "
                        "uniform-split measure where one is needed)")
    if scales_default is None:
        p.add_argument("--levels", type=_levels, default=None,
                       help="'a..b' or comma list (default: all "
                            "materialized)")
    p.add_argument("--window", type=int, default=None,
                   help="window length for the windowed slope extremes")
    p.add_argument("--json", default=None, help="write the report as JSON")
    p.add_argument("--csv", default=None, help="write the fit points as CSV")
    if scales_default is not None:
        p.add_argument("--scales", type=_scales, default=scales_default,
                       help=f"frequency/radius list (default {scales_default})")
        p.add_argument("--rel-tol", type=float, default=1e-3,
                       help="quadrature relative error target")


def _add_plan_options(p, level_budget, dim_low=None, dim_high=None):
    """--dim-low and --dim-high (required where they have no default) and
    --level-budget of a plan command."""
    for flag, default in (("--dim-low", dim_low), ("--dim-high", dim_high)):
        p.add_argument(flag, type=_rational, required=default is None,
                       default=default, metavar="p/q")
    p.add_argument("--level-budget", type=int, default=level_budget)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dimlab parser, built once per process on first use and shared
    by every later call, so callers must not change it. Defaults are
    immutable or strings that argparse converts on each parse, so no parsed
    value is shared between calls."""
    ap = argparse.ArgumentParser(
        prog="dimlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # construct ---------------------------------------------------------
    c = sub.add_parser("construct", help="build and persist sets/measures")
    csub = c.add_subparsers(dest="kind", required=True)

    p = csub.add_parser("alternating",
                        help="two-regime set alternating frozen and "
                             "doubling count stretches")
    _add_plan_options(p, 10 ** 6)
    p.add_argument("--depth", type=int, default=None,
                   help="materialization depth for --out")
    p.add_argument("--stage", type=int, default=None,
                   help="stage index for --measure-out")
    p.add_argument("--out", default=None, help="set JSON path")
    p.add_argument("--plan-out", default=None, help="plan JSON path")
    p.add_argument("--measure-out", default=None,
                   help="stage-measure JSON path")
    p.set_defaults(func=_cmd_construct_alternating)

    p = csub.add_parser("sweep",
                        help="set with one doubling interval swept "
                             "left-to-right with wraparound")
    _add_plan_options(p, 10 ** 5)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--plan-out", default=None)
    p.set_defaults(func=_cmd_construct_sweep)

    p = csub.add_parser("ifs", help="digit-restriction self-similar set")
    p.add_argument("--base", type=int, required=True,
                   help="power-of-two digit base, e.g. 4")
    p.add_argument("--keep", required=True,
                   help="comma list of kept digits, e.g. 0,3")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct_ifs)

    p = csub.add_parser("points", help="occupied-cube tree from a point CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--snap-depth", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct_points)

    p = csub.add_parser("measure", help="standard measures on a stored set")
    p.add_argument("--set", required=True)
    p.add_argument("--kind", choices=("uniform", "net", "anti-frostman"),
                   default="uniform")
    p.add_argument("--level", type=int, default=None,
                   help="net level (net kind only; default: deepest)")
    p.add_argument("--net-levels", type=_levels, default=None,
                   help="levels for the anti-frostman net sum")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct_measure)

    # estimate ----------------------------------------------------------
    e = sub.add_parser("estimate", help="slope and energy estimators")
    esub = e.add_subparsers(dest="estimator", required=True)

    for name, text, load, fit, column in (
            ("box", "box-count log-log slopes", _load_set, box_dims,
             "log2_count"),
            ("corr", "dyadic correlation-sum slopes", _load_measure,
             correlation_dims, "neg_log2_corr_sum"),
            ("frostman", "max-cube-mass decay slopes", _load_measure,
             frostman_slope, "neg_log2_max_mass")):
        p = esub.add_parser(name, help=text)
        _add_common_estimate(p)
        p.set_defaults(func=_cmd_estimate_slope, load=load, fit=fit,
                       column=column)

    for name, text, load, fit in (
            ("fourier-corr", "correlation slopes from the mean-square "
             "transform curve", _load_measure,
             fourier.fourier_correlation_dims),
            ("fourier-box", "box-flavored slope from the best transform "
             "curve over a candidate measure family", _load_set,
             fourier.fourier_box_estimate)):
        p = esub.add_parser(name, help=text)
        _add_common_estimate(p, scales_default="2^1..2^12")
        p.set_defaults(func=_cmd_estimate_fourier, load=load, fit=fit)

    p = esub.add_parser("energy", help="weighted frequency-energy integral")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=_rational, required=True, metavar="p/q")
    p.add_argument("--rmax", type=float, default=4096.0)
    p.add_argument("--rel-tol", type=float, default=1e-3)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_estimate_energy)

    # verify ------------------------------------------------------------
    v = sub.add_parser("verify", help="exact verification suites")
    vsub = v.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("alternating-counts",
                        help="exact count inequalities of the alternating "
                             "schedule")
    _add_plan_options(p, 10 ** 6, Fraction(2, 5), Fraction(7, 10))
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_alternating)

    p = vsub.add_parser("sweep-counts",
                        help="exact count and designation checks of the "
                             "sweep schedule")
    _add_plan_options(p, 10 ** 5, Fraction(2, 5), Fraction(7, 10))
    p.add_argument("--materialize-depth", type=int, default=24)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_sweep)

    p = vsub.add_parser("frostman-stages",
                        help="stagewise mass bounds and ball bounds at every "
                             "centre")
    p.add_argument("--in", dest="infile", default=None,
                   help="set JSON (default: the full interval/cube)")
    p.add_argument("--d", type=int, default=1,
                   help="dimension of the default full cube")
    p.add_argument("--depth", type=int, default=16,
                   help="depth of the default full cube")
    p.add_argument("--s", type=_rational, required=True, metavar="p/q")
    p.add_argument("--radii", type=_scales, default=None,
                   help="decreasing radii (default: 2^-(k+2) per stage)")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_frostman_stages)

    p = vsub.add_parser("fourier-sandwich",
                        help="two-point correlation vs r^d I(1/r) ratio "
                             "flatness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=_rational, required=True, metavar="p/q")
    p.add_argument("--scales", type=_scales, default="2^-4..2^-10",
                   help="radii (default 2^-4..2^-10)")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_fourier_sandwich)

    p = vsub.add_parser("corr-sandwich",
                        help="1/box_count <= correlation sum, with the net "
                             "equality witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", type=_levels, required=True)
    p.add_argument("--random-measures", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_corr_sandwich)

    p = vsub.add_parser("ineq-chain",
                        help="ordering of the dimension proxies on one "
                             "window")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--measures", nargs="*", default=None,
                   help="extra witness measure JSONs")
    p.add_argument("--levels", type=_levels, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_ineq_chain)

    p = vsub.add_parser("ball-lower-bound",
                        help="net-sum measure is heavy at every listed "
                             "scale (exact)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", type=_levels, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify_ball_lower)

    # export ------------------------------------------------------------
    p = sub.add_parser("export", help="dump per-level tables as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--min-level", type=int, default=0)
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnavailableError, UnsupportedModelError,
            ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
