"""Command line front end.

Subcommands
-----------
boundary   crescent edges q_delta / q_nabla on a TPP grid for one shape
curve      instance-specific asymptotic trade-off curve for a prior
path       one simulated instance's full Lasso path, event by event
simulate   replicated paths averaged onto a TPP grid (tradeoff mode)
rank       first-false-selection rank statistics (rank mode)

Inline flags override --config values.  The fully resolved configuration is
echoed as a JSON comment in the output header, so a run can be reproduced
from its output file alone.  Exit codes: 0 success, 2 invalid input,
3 numerical infeasibility, 4 solver failure.
"""

import argparse
import json
import os
import sys

from . import __version__
from .crescent import crescent, touching_points
from .errors import ConvergenceError, InfeasibleRegionError
from .harness import (
    config_from_json,
    config_to_json,
    fields_from_json,
    prior_from_json,
    run_rank_experiment,
    run_tradeoff_experiment,
    _simulate_instance,
)
from .lasso_path import lasso_path, tpp_fdp_along_path
from .state_evolution import ModelShape, tradeoff_curve

_OUTDIR_ENV = "LASSOCRESCENT_OUTDIR"


def _write_outputs(args, default_name, header, tables, plot):
    """Write a command's tables and, with ``--gnuplot``, its plot script.

    The first of ``tables`` (``(suffix, columns, rows)`` triples) goes to the
    output path, the others next to it under their suffixes; every path is
    printed.  ``plot`` is ``(xlabel, ylabel, [(using, style, title), ...])``.
    """
    if args.out:
        out = args.out
    else:
        outdir = os.environ.get(_OUTDIR_ENV, ".")
        os.makedirs(outdir, exist_ok=True)
        out = os.path.join(outdir, default_name)
    for suffix, columns, rows in tables:
        _write_table(out + suffix, header, columns, rows)
        print(out + suffix)
    if args.gnuplot:
        xlabel, ylabel, series = plot
        plots = [f"'{out}' using {u} with {style} title '{title}'" for u, style, title in series]
        with open(out + ".gp", "w") as fh:
            fh.write(
                "set datafile separator ','\n"
                "set datafile commentschars '#'\n"
                "set key left top\n"
                f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\n"
                "plot " + ", \\\n     ".join(plots) + "\n"
            )
        print(out + ".gp")


def _write_table(path, header_obj, columns, rows):
    lines = [f"# lassocrescent {__version__}"]
    lines.append("# config: " + json.dumps(header_obj, sort_keys=True))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".12g")


def _load_config_arg(args):
    if not args.config:
        return None
    if os.path.isfile(args.config):
        with open(args.config) as fh:
            obj = json.load(fh)
    elif args.config.lstrip().startswith("{"):
        obj = json.loads(args.config)  # inline JSON
    else:
        raise ValueError(f"config file {args.config!r} not found (inline JSON starts with '{{')")
    if not isinstance(obj, dict):
        raise ValueError(f"--config must hold a JSON object, got {type(obj).__name__}")
    return obj


def _with_flags(args, obj, keys):
    """The --config object ``obj`` (or {}) with the inline flags ``keys`` laid over it."""
    flags = {key: getattr(args, key, None) for key in keys}  # path has no --replicates
    return {**(obj or {}), **{key: v for key, v in flags.items() if v is not None}}


def _shape_from(args, obj):
    obj = _with_flags(args, obj, ("delta", "epsilon", "sigma"))
    return ModelShape(**fields_from_json(ModelShape, obj, "shape (flags or --config)"))


def _cmd_boundary(args):
    obj = _load_config_arg(args)
    shape = _shape_from(args, obj)
    n_points = 99 if args.n_points is None else args.n_points
    points = crescent(shape, n_points=n_points)
    header = {
        "command": "boundary",
        "delta": shape.delta,
        "epsilon": shape.epsilon,
        "n_points": n_points,
    }
    if len(points) < n_points:
        header["feasible_u"] = [points[0].u, points[-1].u]
        print(
            f"note: {n_points - len(points)} grid levels past the feasible end of "
            f"an edge were dropped; feasible TPP range "
            f"[{points[0].u:.4f}, {points[-1].u:.4f}]",
            file=sys.stderr,
        )
    rows = [
        (p.u, p.t_delta, p.q_delta, p.varsigma, p.t_nabla, p.q_nabla) for p in points
    ]
    tables = [("", ["u", "t_delta", "q_delta", "varsigma", "t_nabla", "q_nabla"], rows)]
    if args.touching:
        gammas = [float(g) for g in args.touching.split(",")]
        header["touching_gamma"] = gammas
        tables.append((".touching.csv", ["u", "q_delta"], touching_points(gammas, shape)))
    plot = ("TPP", "FDP", [("1:3", "lines", "q_delta"), ("1:6", "lines", "q_nabla")])
    return "boundary.csv", header, tables, plot


def _cmd_curve(args):
    obj = dict(_load_config_arg(args) or {})
    config_prior = obj.pop("prior", None)  # the rest of the config is the shape
    shape = _shape_from(args, obj)
    spec = json.loads(args.prior) if args.prior else config_prior
    if spec is None:
        raise ValueError("curve needs a prior object (--prior JSON or 'prior' in --config)")
    prior = prior_from_json(spec, epsilon=shape.epsilon)
    n_points = 50 if args.n_points is None else args.n_points
    curve = tradeoff_curve(prior, shape, n_points=n_points)
    header = {
        "command": "curve",
        "delta": shape.delta,
        "epsilon": shape.epsilon,
        "sigma": shape.sigma,
        "prior": config_to_json(prior),
        "n_points": n_points,
    }
    rows = list(zip(curve.alpha, curve.lam, curve.tau, curve.tpp, curve.fdp))
    tables = [("", ["alpha", "lambda", "tau", "tpp_inf", "fdp_inf"], rows)]
    return "curve.csv", header, tables, ("TPP", "FDP", [("4:5", "lines", "trade-off")])


def _config_from(args, mode):
    obj = _load_config_arg(args)
    if obj is None:
        raise ValueError(f"{mode} needs --config (JSON file or inline JSON)")
    obj = _with_flags(args, obj, ("seed", "replicates", "sigma"))
    return config_from_json({"mode": mode, **obj})


def _cmd_path(args):
    config = _config_from(args, "tradeoff")
    if args.replicate < 0:
        raise ValueError(f"--replicate must be a nonnegative integer, got {args.replicate}")
    X, y, support = _simulate_instance(config, args.replicate)
    path = lasso_path(X, y)
    stats = tpp_fdp_along_path(path, support)
    header = {
        "command": "path",
        "replicate": args.replicate,
        "stopping_reason": path.stopping_reason,
        "config": config_to_json(config),
    }
    rows = [
        (i, ev.lam, ev.kind, ev.variable, len(ev.active_set), tpp, fdp)
        for i, (ev, (_, tpp, fdp)) in enumerate(zip(path.events, stats))
    ]
    tables = [("", ["event_index", "lambda", "kind", "variable", "n_active", "tpp", "fdp"], rows)]
    return "path.csv", header, tables, ("TPP", "FDP", [("6:7", "steps", "path")])


def _cmd_simulate(args):
    config = _config_from(args, "tradeoff")
    summary = run_tradeoff_experiment(config, jobs=args.jobs)
    header = {"command": "simulate", "config": config_to_json(config)}
    rows = [
        (g, m, s, summary.n_ok)
        for g, m, s in zip(summary.tpp_grid, summary.mean_fdp, summary.se_fdp)
    ]
    tables = [("", ["tpp_grid", "mean_fdp", "se_fdp", "n_ok"], rows)]
    return "simulate.csv", header, tables, ("TPP", "FDP", [("1:2:3", "yerrorlines", "mean FDP")])


def _cmd_rank(args):
    config = _config_from(args, "rank")
    summary = run_rank_experiment(config, jobs=args.jobs)
    header = {"command": "rank", "config": config_to_json(config)}
    columns = ["sweep_value", "mean_T", "median_T", "q10", "q90", "n_censored"]
    series = [
        ("1:3", "linespoints", "median T"),
        ("1:4:5", "filledcurves fs transparent solid 0.2", "q10-q90"),
    ]
    plot = ("sweep value", "first false rank", series)
    return "rank.csv", header, [("", columns, summary.rows)], plot


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lassocrescent",
        description="Asymptotic TPP/FDP trade-off curves, crescent boundaries, "
        "and Lasso-path Monte Carlo for Gaussian designs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_shape=False):
        p.add_argument("--config", help="JSON config file (or inline JSON)")
        p.add_argument("--out", help=f"output CSV (default: ${_OUTDIR_ENV} or cwd)")
        p.add_argument("--gnuplot", action="store_true", help="also write a .gp plot script")
        p.add_argument("--sigma", type=float, default=None)
        if needs_shape:
            p.add_argument("--delta", type=float, default=None)
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--n-points", type=int, default=None, dest="n_points")
        else:
            p.add_argument("--seed", type=int, default=None)

    pb = sub.add_parser("boundary", help="crescent edges for one shape")
    common(pb, needs_shape=True)
    pb.add_argument(
        "--touching",
        help="comma-separated mass split; also writes the touching levels "
        "of the matching geometric-ladder prior",
    )
    pb.set_defaults(func=_cmd_boundary)

    pc = sub.add_parser("curve", help="asymptotic trade-off curve of a prior")
    common(pc, needs_shape=True)
    pc.add_argument(
        "--prior",
        help='inline prior JSON, e.g. \'{"kind":"homogeneous","epsilon":0.2,"magnitude":1}\'',
    )
    pc.set_defaults(func=_cmd_curve)

    pp = sub.add_parser("path", help="event table of one simulated path")
    common(pp)
    pp.add_argument("--replicate", type=int, default=0, help="replicate id to draw")
    pp.set_defaults(func=_cmd_path)

    ps = sub.add_parser("simulate", help="replicated paths on a TPP grid")
    ps.set_defaults(func=_cmd_simulate)
    pr = sub.add_parser("rank", help="first-false-selection rank experiment")
    pr.set_defaults(func=_cmd_rank)
    for p in (ps, pr):
        common(p)
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_outputs(args, *args.func(args))
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleRegionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
