"""Command-line front end: reproducible reports for every experiment.

Every subcommand embeds its fully resolved configuration in the report, so
any emitted number can be regenerated from the file alone.  The key=value
lines of a ``--config`` file act as the subcommand's flags, placed ahead of
the command line's own, and argparse parses the lot once.  Each ``cmd_*``
returns its report, a JSON dict or a CSV header and rows, and :func:`main`
writes it to ``--out`` or stdout; ``verify`` writes its lines there as each
criterion ends.  Exit codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

from . import acceptance, limits, linosc
from .dynamics import Params, PhaseState, energy_xy
from .extremal import BracketError, SweepPolicy, bifurcation_table, max_switchings
from .quasiopt import CapturePolicy, DampingNonConvergence, simulate_damping, sweep_scaling

FAILURE = 1  # computation failure; argparse itself exits 2 on usage errors


def _open_out(path):
    """path opened for writing, or stdout."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _write(report, path) -> None:
    """Write a JSON dict, or a CSV (header, rows) with floats as their repr and
    None as an empty field, to path or stdout."""
    with _open_out(path) as fh:
        if isinstance(report, dict):
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            header, rows = report
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def _config_flags(subparser, argv) -> list[str]:
    """The key=value lines of the --config file named in argv, as flags of subparser.

    Placed ahead of the command line's own flags they act as if typed there:
    an explicit flag still wins (argparse keeps an option's last value), a
    required or multi-value option (values separated by spaces) can come
    from the file, and a value that its option's type rejects is a usage
    error.  A flag that takes no value is set by 1, true or yes.
    """
    finder = argparse.ArgumentParser(prog=subparser.prog, add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        subparser.error(f"cannot read config file: {exc}")
    options = {a.dest: a for a in subparser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = []
    for ln in lines:
        key, eq, val = (part.strip() for part in ln.partition("="))
        if key.startswith("#") or not (key or eq):
            continue
        if not eq:
            subparser.error(f"malformed config line {key!r} (expected key=value)")
        key = key.replace("-", "_")
        if key not in options:
            subparser.error(f"config key {key!r} does not match any option")
        action = options[key]
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true flags
            flags += [flag] if val.lower() in ("1", "true", "yes") else []
        elif action.nargs is None:
            flags.append(f"{flag}={val}")
        else:
            flags += [flag, *val.split()]
    return flags


def _eps_list(text: str) -> list[float]:
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty epsilon list")
    return vals


def cmd_constants(args) -> dict:
    d = limits.constant_D(args.tol)
    tm2 = limits.tau_minus(2.0, args.tol)
    return {
        "D": d.value,
        "D_error_estimate": d.error_estimate,
        "tau_minus_2": tm2.value,
        "Phi0": linosc.phi0_constant(),
        "config": {"tol": args.tol},
    }


def cmd_tau(args) -> dict:
    e = args.E
    q = limits.tau(e, args.tol)
    payload = {"E": e, "tau": q.value, "error_estimate": q.error_estimate,
               "config": {"tol": args.tol}}
    if e >= 2.0:
        payload["tau_plus"] = limits.tau_plus(e, args.tol).value
        payload["tau_minus_2"] = limits.tau_minus(2.0, args.tol).value
    return payload


def cmd_simulate(args) -> dict:
    p = Params(args.epsilon)
    policy = CapturePolicy(k_cap=args.capture_k, budget_factor=args.budget)
    res = simulate_damping(PhaseState(args.x0, args.y0), p, policy,
                           keep_samples=args.trajectory_out is not None)
    if args.trajectory_out:
        _write((["t", "x", "y", "phi", "psi", "u", "E"],
                [[t, x, y, "", "", res.control_at(t), energy_xy(x, y)]
                 for t, (x, y) in zip(res.trajectory.times, res.trajectory.states)]),
               args.trajectory_out)
    return {
        "epsilon": args.epsilon,
        "x0": args.x0,
        "y0": args.y0,
        "damping_time": res.damping_time,
        "switch_count": res.switch_count,
        "lower_time_bound": res.lower_time_bound,
        "terminal_state": [res.terminal_state.x, res.terminal_state.y],
        "phase_log": [
            {"mode": e.mode, "control": e.control, "t_start": e.t_start,
             "t_end": e.t_end, "start": list(e.start), "end": list(e.end)}
            for e in res.phase_log
        ],
        "stats": dataclasses.asdict(res.stats),
        "config": {"capture_k": args.capture_k, "budget": args.budget},
    }


def cmd_sweep(args):
    tab = sweep_scaling(PhaseState(args.x0, args.y0), args.eps_list,
                        CapturePolicy(k_cap=args.capture_k, budget_factor=args.budget))
    if args.format == "csv":
        return (["epsilon", "T", "N", "epsT", "epsN"],
                [[r.epsilon, r.damping_time, r.switch_count, r.eps_T, r.eps_N]
                 for r in tab.rows])
    return {
        "x0": args.x0,
        "y0": args.y0,
        "rows": [
            {"epsilon": r.epsilon, "T": r.damping_time, "N": r.switch_count,
             "epsT": r.eps_T, "epsN": r.eps_N}
            for r in tab.rows
        ],
        "extrapolated_epsT": tab.extrapolated_eps_T,
        "extrapolated_epsN": tab.extrapolated_eps_N,
        "config": {"eps_list": args.eps_list, "capture_k": args.capture_k,
                   "budget": args.budget},
    }


def cmd_extremals(args) -> dict:
    policy = SweepPolicy(grid_points=args.grid, phi_max_scaled=args.phi_max)
    res = max_switchings(Params(args.epsilon), policy)
    return {
        "epsilon": args.epsilon,
        "max_switchings": res.max_allowed,
        "max_raw_switchings": res.max_raw,
        "argmax_phiT": res.argmax_phi_T,
        "argmax_sign": res.argmax_sign,
        "boundary_hit": res.boundary_hit,
        "unresolved_transitions": res.unresolved_transitions,
        "n_runs": res.n_runs,
        "sturm": {
            "min_gap": min((d.min_gap for d in res.runs if d.min_gap is not None),
                           default=None),
            "spacing_ok": all(d.spacing_ok for d in res.runs),
            "interleaving_ok": all(d.interleaving_ok for d in res.runs),
            "lemma_bound_ok": all(d.lemma_bound_ok for d in res.runs),
        },
        "runs": [d.as_dict() for d in res.runs],
        "stats": dataclasses.asdict(res.stats),
        "config": {"grid": args.grid, "phi_max": args.phi_max},
    }


def cmd_bifurcations(args):
    policy = SweepPolicy(grid_points=args.grid)
    rows = bifurcation_table(args.n_max, tol=args.tol, policy=policy)
    if args.format == "csv":
        return (["n", "epsilon_n", "n_times_epsilon_n", "bracket_width"],
                [[r.n, r.epsilon_n, r.product, r.bracket_width] for r in rows])
    return {
        "rows": [
            {"n": r.n, "epsilon_n": r.epsilon_n, "n_times_epsilon_n": r.product,
             "bracket_width": r.bracket_width}
            for r in rows
        ],
        "D": acceptance.D_TARGET,
        "stats": [{"n": r.n, "scans": r.scans, **dataclasses.asdict(r.stats)} for r in rows],
        "config": {"n_max": args.n_max, "tol": args.tol, "grid": args.grid},
    }


def cmd_euler(args):
    rows = limits.euler_convergence(args.x0, args.eps_list)
    if args.format == "csv":
        return (["epsilon", "n_iterates", "sup_error", "ratio"],
                [[r.epsilon, r.n_iterates, r.sup_error, r.ratio_vs_previous] for r in rows])
    return {
        "x0": args.x0,
        "rows": [
            {"epsilon": r.epsilon, "n_iterates": r.n_iterates, "sup_error": r.sup_error,
             "ratio_vs_previous": r.ratio_vs_previous}
            for r in rows
        ],
        "config": {"eps_list": args.eps_list},
    }


def cmd_linear(args) -> dict:
    if args.support is not None:
        xi1, xi2, horizon = args.support
        return {
            "support": linosc.lin_support((xi1, xi2), horizon),
            "xi": [xi1, xi2],
            "T": horizon,
            "Phi0": linosc.phi0_constant(),
        }
    x0, y0 = (0.0 if v is None else v for v in (args.x0, args.y0))
    res = linosc.lin_simulate(linosc.LinState(x0, y0))
    return {
        "x0": x0,
        "y0": y0,
        "T": res.damping_time,
        "switches": res.switch_count,
        "switch_points": [list(pt) for pt in res.switch_points],
    }


def cmd_verify(args) -> int:
    """Write one line per criterion as it ends, then the tally; returns the exit code."""
    with _open_out(args.out) as fh:
        results = acceptance.run_all(fast=args.fast,
                                     report=lambda line: print(line, file=fh, flush=True))
        n_fail = sum(0 if r.passed else 1 for r in results)
        print(f"{len(results) - n_fail}/{len(results)} criteria passed"
              + (" (fast subset)" if args.fast else ""), file=fh)
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendamp",
        description="Minimum-time pendulum damping laboratory: quadrature constants, "
        "dry-friction damping, extremal switching counts, bifurcation values, "
        "and the linear-oscillator baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._command_parsers = sub.choices

    def common(sp, fmt=False):
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--config", help="key=value lines read as flags ahead of the "
                        "command line's")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("constants", help="print D, tau_minus(2), Phi0")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("tau", help="piecewise damping-time limit tau(E)")
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("simulate", help="closed-loop dry-friction damping run")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--capture-k", type=float, default=4.0, dest="capture_k")
    sp.add_argument("--budget", type=float, default=64.0,
                    help="time budget in units of 1/epsilon")
    sp.add_argument("--trajectory-out", dest="trajectory_out",
                    help="also dump the trajectory CSV here")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="scaling table eps -> (T, N, epsT, epsN)")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--eps-list", dest="eps_list", type=_eps_list,
                    default=[0.2, 0.1, 0.05, 0.02],
                    help="comma-separated, strictly decreasing")
    sp.add_argument("--capture-k", type=float, default=4.0, dest="capture_k")
    sp.add_argument("--budget", type=float, default=64.0)
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("extremals", help="max switching count over the backward family")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--grid", type=int, default=512, help="phi_T grid points per sign")
    sp.add_argument("--phi-max", type=float, default=4.0, dest="phi_max",
                    help="scan range in the scaled variable eps*phi_T")
    common(sp)
    sp.set_defaults(fn=cmd_extremals)

    sp = sub.add_parser("bifurcations", help="table of bifurcation values eps_n")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--tol", type=float, default=1e-3, help="bisection bracket width")
    sp.add_argument("--grid", type=int, default=acceptance.BIFURCATION_GRID,
                    help="phi_T grid points per sign inside the bisection")
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_bifurcations)

    sp = sub.add_parser("euler", help="broken-line convergence table")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--eps-list", dest="eps_list", type=_eps_list,
                    default=[0.02, 0.01, 0.005, 0.0025])
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("linear", help="linear-oscillator baseline")
    sp.add_argument("--x0", type=float, help="start (default 0)")
    sp.add_argument("--y0", type=float, help="start (default 0)")
    sp.add_argument("--support", nargs=3, type=float, metavar=("XI1", "XI2", "T"),
                    help="evaluate the reachable-set support function instead (no --x0, --y0)")
    common(sp)
    sp.set_defaults(fn=cmd_linear)

    sp = sub.add_parser("verify", help="run the acceptance battery")
    sp.add_argument("--fast", action="store_true",
                    help="skip the slow criteria (7-10)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = parser._command_parsers
    if argv and argv[0] in commands:
        argv[1:1] = _config_flags(commands[argv[0]], argv[1:])
    args = parser.parse_args(argv)
    subparser = commands[args.command]
    if getattr(args, "format", None) == "csv" and not args.out:
        subparser.error("csv output needs --out")
    if getattr(args, "support", None) is not None and (args.x0, args.y0) != (None, None):
        subparser.error("--support takes no --x0 or --y0: it evaluates no run from a start")
    try:
        report = args.fn(args)
    except (ValueError, BracketError, DampingNonConvergence,
            limits.QuadratureError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    if isinstance(report, int):  # verify's exit code: its lines are written
        return report
    _write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
