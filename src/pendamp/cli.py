"""Command-line front end: reproducible reports for every experiment.

Every subcommand embeds its fully resolved configuration in the report, so
any emitted number can be regenerated from the file alone.  Exit codes:
0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import acceptance, limits, linosc
from .dynamics import Params, PhaseState, energy_xy
from .extremal import (
    BracketError,
    SweepPolicy,
    bifurcation_table,
    max_switchings,
)
from .quasiopt import CapturePolicy, DampingNonConvergence, simulate_damping, sweep_scaling

FAILURE = 1  # computation failure; argparse itself exits 2 on usage errors


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_rows_csv(path, header, rows) -> None:
    """Write a header line and the rows; floats as repr, None as an empty field."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _config_defaults(subparser, path) -> None:
    """Make the key=value lines of a --config file the subcommand's defaults.

    argparse converts a string default with its option's ``type`` when the
    option is not given, so a flag on the command line still wins and a bad
    value is a usage error.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        subparser.error(f"cannot read config file: {exc}")
    options = {a.dest: a for a in subparser._actions if a.option_strings}
    defaults = {}
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            subparser.error(f"malformed config line {ln!r} (expected key=value)")
        key, _, val = ln.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in options or key in ("help", "config"):
            subparser.error(f"config key {key!r} does not match any option")
        if isinstance(options[key].default, bool):  # store_true flags
            val = val.lower() in ("1", "true", "yes")
        defaults[key] = val
    subparser.set_defaults(**defaults)


def _eps_list(text: str) -> list[float]:
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty epsilon list")
    return vals


def cmd_constants(args) -> int:
    d = limits.constant_D(args.tol)
    tm2 = limits.tau_minus(2.0, max(args.tol, 1e-10))
    payload = {
        "D": d.value,
        "D_error_estimate": d.error_estimate,
        "tau_minus_2": tm2.value,
        "Phi0": linosc.phi0_constant(),
        "config": {"tol": args.tol},
    }
    _emit(payload, args)
    return 0


def cmd_tau(args) -> int:
    e = args.E
    q = limits.tau(e, args.tol)
    payload = {"E": e, "tau": q.value, "error_estimate": q.error_estimate,
               "config": {"tol": args.tol}}
    if e >= 2.0:
        payload["tau_plus"] = limits.tau_plus(e, args.tol).value
        payload["tau_minus_2"] = limits.tau_minus(2.0, args.tol).value
    _emit(payload, args)
    return 0


def cmd_simulate(args) -> int:
    p = Params(args.epsilon)
    policy = CapturePolicy(k_cap=args.capture_k, budget_factor=args.budget)
    res = simulate_damping(PhaseState(args.x0, args.y0), p, policy,
                           keep_samples=args.trajectory_out is not None)
    if args.trajectory_out:
        _write_rows_csv(args.trajectory_out, ["t", "x", "y", "phi", "psi", "u", "E"],
                        [[t, x, y, "", "", res.control_at(t), energy_xy(x, y)]
                         for t, (x, y) in zip(res.trajectory.times, res.trajectory.states)])
    payload = {
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
        "config": {"capture_k": args.capture_k, "budget": args.budget},
    }
    _emit(payload, args)
    return 0


def cmd_sweep(args) -> int:
    tab = sweep_scaling(PhaseState(args.x0, args.y0), args.eps_list,
                        CapturePolicy(k_cap=args.capture_k, budget_factor=args.budget))
    if args.format == "csv":
        _write_rows_csv(args.out, ["epsilon", "T", "N", "epsT", "epsN"],
                        [[r.epsilon, r.damping_time, r.switch_count, r.eps_T, r.eps_N]
                         for r in tab.rows])
        return 0
    payload = {
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
    _emit(payload, args)
    return 0


def cmd_extremals(args) -> int:
    policy = SweepPolicy(grid_points=args.grid, phi_max_scaled=args.phi_max)
    res = max_switchings(Params(args.epsilon), policy)
    payload = {
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
        "config": {"grid": args.grid, "phi_max": args.phi_max},
    }
    _emit(payload, args)
    return 0


def cmd_bifurcations(args) -> int:
    policy = SweepPolicy(grid_points=args.grid)
    tab = bifurcation_table(args.n_max, tol=args.tol, policy=policy)
    if args.format == "csv":
        _write_rows_csv(args.out, ["n", "epsilon_n", "n_times_epsilon_n", "bracket_width"],
                        [[r.n, r.epsilon_n, r.product, r.bracket_width] for r in tab.rows])
        return 0
    payload = {
        "rows": [
            {"n": r.n, "epsilon_n": r.epsilon_n, "n_times_epsilon_n": r.product,
             "bracket_width": r.bracket_width}
            for r in tab.rows
        ],
        "D": acceptance.D_TARGET,
        "config": {"n_max": args.n_max, "tol": args.tol, "grid": args.grid},
    }
    _emit(payload, args)
    return 0


def cmd_euler(args) -> int:
    rows = limits.euler_convergence(args.x0, args.eps_list)
    if args.format == "csv":
        _write_rows_csv(args.out, ["epsilon", "n_iterates", "sup_error", "ratio"],
                        [[r.epsilon, r.n_iterates, r.sup_error, r.ratio_vs_previous]
                         for r in rows])
        return 0
    payload = {
        "x0": args.x0,
        "rows": [
            {"epsilon": r.epsilon, "n_iterates": r.n_iterates, "sup_error": r.sup_error,
             "ratio_vs_previous": r.ratio_vs_previous}
            for r in rows
        ],
        "config": {"eps_list": args.eps_list},
    }
    _emit(payload, args)
    return 0


def cmd_linear(args) -> int:
    if args.support is not None:
        xi1, xi2, horizon = args.support
        payload = {
            "support": linosc.lin_support((xi1, xi2), horizon),
            "xi": [xi1, xi2],
            "T": horizon,
            "Phi0": linosc.phi0_constant(),
        }
        _emit(payload, args)
        return 0
    res = linosc.lin_simulate(linosc.LinState(args.x0, args.y0))
    payload = {
        "x0": args.x0,
        "y0": args.y0,
        "T": res.damping_time,
        "switches": res.switch_count,
        "switch_points": [list(pt) for pt in res.switch_points],
    }
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_all(fast=args.fast, report=print)
    n_fail = sum(0 if r.passed else 1 for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed"
          + (" (fast subset)" if args.fast else ""))
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendamp",
        description="Minimum-time pendulum damping laboratory: quadrature constants, "
        "dry-friction damping, extremal switching counts, bifurcation values, "
        "and the linear-oscillator baseline.",
    )
    parser._command_parsers = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kw):
        sp = sub.add_parser(name, **kw)
        parser._command_parsers[name] = sp
        return sp

    def common(sp, fmt=False):
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--config", help="key=value file overriding option defaults")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = add_command("constants", help="print D, tau_minus(2), Phi0")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = add_command("tau", help="piecewise damping-time limit tau(E)")
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(fn=cmd_tau)

    sp = add_command("simulate", help="closed-loop dry-friction damping run")
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

    sp = add_command("sweep", help="scaling table eps -> (T, N, epsT, epsN)")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--eps-list", dest="eps_list", type=_eps_list,
                    default=[0.2, 0.1, 0.05, 0.02],
                    help="comma-separated, strictly decreasing")
    sp.add_argument("--capture-k", type=float, default=4.0, dest="capture_k")
    sp.add_argument("--budget", type=float, default=64.0)
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_sweep)

    sp = add_command("extremals", help="max switching count over the backward family")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--grid", type=int, default=512, help="phi_T grid points per sign")
    sp.add_argument("--phi-max", type=float, default=4.0, dest="phi_max",
                    help="scan range in the scaled variable eps*phi_T")
    common(sp)
    sp.set_defaults(fn=cmd_extremals)

    sp = add_command("bifurcations", help="table of bifurcation values eps_n")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--tol", type=float, default=1e-3, help="bisection bracket width")
    sp.add_argument("--grid", type=int, default=acceptance.BIFURCATION_GRID,
                    help="phi_T grid points per sign inside the bisection")
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_bifurcations)

    sp = add_command("euler", help="broken-line convergence table")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--eps-list", dest="eps_list", type=_eps_list,
                    default=[0.02, 0.01, 0.005, 0.0025])
    common(sp, fmt=True)
    sp.set_defaults(fn=cmd_euler)

    sp = add_command("linear", help="linear-oscillator baseline")
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--support", nargs=3, type=float, metavar=("XI1", "XI2", "T"),
                    help="evaluate the reachable-set support function instead")
    common(sp)
    sp.set_defaults(fn=cmd_linear)

    sp = add_command("verify", help="run the acceptance battery")
    sp.add_argument("--fast", action="store_true",
                    help="skip the multi-minute criteria (7-10)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    subparser = parser._command_parsers[args.command]
    if args.config:
        _config_defaults(subparser, args.config)
        args = parser.parse_args(argv)
    if getattr(args, "format", None) == "csv" and not args.out:
        subparser.error("csv output needs --out")
    try:
        return args.fn(args)
    except (ValueError, BracketError, DampingNonConvergence,
            limits.QuadratureError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
