"""Command-line front end.

Subcommands: model build, seq check, seq dwell, seq search, cov steady,
chance verify, sim run. Bitstring arguments read left to right as
eta_0 eta_1 ..., with 1 = actuate and 0 = sense.

Exit codes: 0 success (an infeasible search is a valid finding), 2 input
or schema error, 3 synthesis or numerical failure, 4 I/O error.
"""

import argparse
import functools
import os
import shutil
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import __version__
from .chance import verify_chance
from .covariance import steady_augmented_cov, steady_error_cov
from .exceptions import DimensionError, DomainError, SchemaError, SensactError
from .modelio import (
    build_from_config,
    chance_from_config,
    cost_weights_from_config,
    dump_json,
    load_config,
    load_model,
    resolve_config_path,
    save_model,
    sim_config_from_config,
)
from .plant import mode_matrices
from .search import SearchOptions, search_fixed_length, search_up_to
from .sequence import (
    SwitchSequence,
    admissibility,
    dwell_counts,
    dwell_feasible,
    growth_constant,
    irreducible_core,
)
from .sim import run_ensemble

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


#: the four mode matrices, in the order of ModeMatrices.spectral_radii
_MODES = ("coast", "feedback", "observer", "actuate")


def _radii_line(mm) -> str:
    return "  ".join(f"rho({name})={r:.4f}" for name, r in zip(_MODES, mm.spectral_radii))


def cmd_model_build(args) -> int:
    cfg = load_config(resolve_config_path(args.config))
    model, gains = build_from_config(cfg)
    mm = mode_matrices(model, gains)
    c = growth_constant(mm)
    summary = {"spectral_radii": dict(zip(_MODES, mm.spectral_radii)),
               "fro_norms": dict(zip(_MODES, mm.fro_norms)), "growth_constant": c}
    save_model(args.out, model, gains, summary=summary, config_echo=cfg)
    print(_radii_line(mm))
    print(f"growth constant c = {c:.4f}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _load(args):
    model, gains, cfg = load_model(args.model)
    return model, gains, cfg or {}


def _chance_inputs(args, cfg) -> tuple:
    """(box, delta) of a chance check: --bound and --delta, else the model
    config echo's chance section; a missing one is an input error."""
    box, delta = chance_from_config(cfg, args.bound, args.delta)
    for flag, value in (("delta", delta), ("bound", box)):
        if value is None:
            raise SchemaError(f"chance check needs --{flag}: none given "
                              "and none in the model's config echo")
    return box, float(delta)


def cmd_seq_check(args) -> int:
    model, gains, cfg = _load(args)
    mm = mode_matrices(model, gains)
    seq = SwitchSequence.from_string(args.bits)
    core = irreducible_core(seq)
    report = admissibility(seq, mm)
    d = dwell_counts(seq)
    out = {
        "sequence": str(seq),
        "core": str(core),
        "dwell": {"n0": d.n0, "n1": d.n1, "ns": d.ns},
        "qbar": report.qbar,
        "qtilde": report.qtilde,
        "admissible": report.admissible,
    }
    print(f"sequence {seq}  (irreducible core {core})")
    print(f"dwell counts: n0={d.n0} n1={d.n1} ns={d.ns}")
    print(f"qbar={report.qbar:.6g}  qtilde={report.qtilde:.6g}  "
          f"admissible={'yes' if report.admissible else 'no'}")
    if args.dwell:
        c = growth_constant(mm)
        feas = dwell_feasible(seq, mm.spectral_radii, c)
        out["dwell_screen"] = {
            "c": c,
            "lhs_ctrl": feas.lhs_ctrl,
            "lhs_obs": feas.lhs_obs,
            "lhs_obs_typeset": feas.lhs_obs_typeset,
            "passes": feas.passes,
        }
        print(f"dwell screen: c={c:.4f} lhs_ctrl={feas.lhs_ctrl:.4f} "
              f"lhs_obs={feas.lhs_obs:.4f} passes={'yes' if feas.passes else 'no'}")
    if args.chance:
        chance = verify_chance(seq, mm, *_chance_inputs(args, cfg))
        out["chance"] = chance.to_dict()
        print(f"chance: alpha={chance.alpha:.4f} radii "
              f"[{chance.min_radius:.4f}, {chance.max_radius:.4f}] "
              f"exact={'pass' if chance.passes else 'fail'} "
              f"sphere={'pass' if chance.sphere_passes else 'fail'}")
    if args.json:
        _write_text(args.json, dump_json(out))
    return EXIT_OK


def cmd_seq_dwell(args) -> int:
    model, gains, _ = _load(args)
    mm = mode_matrices(model, gains)
    seq = SwitchSequence.from_string(args.bits)
    c = growth_constant(mm, kstar=args.kstar, family=args.family,
                        search_kstar=args.search_kstar)
    feas = dwell_feasible(seq, mm.spectral_radii, c)
    d = dwell_counts(seq)
    print(_radii_line(mm))
    print(f"n0={d.n0} n1={d.n1} ns={d.ns}  c={c:.4f}")
    print(f"lhs_ctrl={feas.lhs_ctrl:.4f}  lhs_obs={feas.lhs_obs:.4f}  "
          f"(typeset variant {feas.lhs_obs_typeset:.4f})")
    print(f"dwell screen {'passes' if feas.passes else 'fails'}")
    return EXIT_OK


def cmd_seq_search(args) -> int:
    model, gains, cfg = _load(args)
    weights = cost_weights_from_config(cfg, model.n)
    options = SearchOptions(all_lengths=args.all_lengths, include_table=args.table)
    if args.n is not None:
        result = search_fixed_length(args.n, model, gains, weights, options)
    else:
        result = search_up_to(args.n_max, model, gains, weights, options)
    out = {
        "feasible": result.feasible,
        "length": result.length,
        "counts": asdict(result.counts),
    }
    if result.feasible:
        out.update({
            "sequence": str(result.sequence),
            "core": str(result.core),
            "cost": result.cost,
            "qbar": result.report.qbar,
            "qtilde": result.report.qtilde,
            "tied": [str(s) for s in result.tied],
        })
        print(f"optimum at length {result.length}: {result.sequence} "
              f"(core {result.core}, cost {result.cost:.9g})")
        print(f"qbar={result.report.qbar:.6g} qtilde={result.report.qtilde:.6g}")
        print(f"tie class ({len(result.tied)}): {' '.join(str(s) for s in result.tied)}")
    else:
        print(f"no admissible sequence up to length {result.length}")
    if args.table and result.table:
        out["table"] = [
            {"word": "".join(map(str, w)), "core": "".join(map(str, c)), "cost": cost}
            for w, c, cost in result.table
        ]
    if args.json:
        _write_text(args.json, dump_json(out))
    return EXIT_OK


def _traces(phases) -> str:
    """The trace of each phase, formatted %.6g, from one stacked trace."""
    return " ".join(f"{t:.6g}" for t in np.trace(phases.phases, axis1=1, axis2=2))


def cmd_cov_steady(args) -> int:
    model, gains, _ = _load(args)
    mm = mode_matrices(model, gains)
    seq = SwitchSequence.from_string(args.bits)
    if args.augmented:
        # one joint solve: the error phases are its error blocks
        joint, state = steady_augmented_cov(seq, mm)
        err = joint.block(slice(mm.n, None))
    else:
        err = steady_error_cov(seq, mm)
    out = {
        "sequence": str(seq),
        "period": err.period,
        "error_phases": {str(k): err[k] for k in range(err.period)},
    }
    print(f"steady error covariance traces: {_traces(err)}")
    if args.augmented:
        out["state_phases"] = {str(k): state[k] for k in range(state.period)}
        out["joint_phases"] = {str(k): joint[k] for k in range(joint.period)}
        print(f"steady state covariance traces: {_traces(state)}")
    if args.json:
        _write_text(args.json, dump_json(out))
    return EXIT_OK


def cmd_chance_verify(args) -> int:
    model, gains, cfg = _load(args)
    seq = SwitchSequence.from_string(args.bits)
    report = verify_chance(seq, mode_matrices(model, gains), *_chance_inputs(args, cfg))
    print(f"alpha = {report.alpha:.4f}")
    for ph in report.phases:
        print(f"phase {ph.phase}: radius {ph.radius:.4f} "
              f"min margin {min(ph.margins):.4f} "
              f"face {'pass' if ph.face_pass else 'fail'} "
              f"sphere {'pass' if ph.sphere_pass else 'fail'}")
    print(f"overall: exact {'pass' if report.passes else 'fail'}, "
          f"sphere {'pass' if report.sphere_passes else 'fail'}")
    if args.json:
        _write_text(args.json, dump_json(report.to_dict()))
    return EXIT_OK


def cmd_sim_run(args) -> int:
    model, gains, cfg = _load(args)
    seq = SwitchSequence.from_string(args.bits)
    overrides = {"steps": args.steps, "runs": args.runs, "seed": args.seed}
    sim_cfg = sim_config_from_config(cfg, model.n, model.m, overrides)
    box, _ = chance_from_config(cfg, args.bound)
    stats = run_ensemble(model, gains, seq, sim_cfg, box=box)
    os.makedirs(args.out, exist_ok=True)
    _write_trajectories(os.path.join(args.out, "trajectories.csv"), stats)
    _write_ensemble(os.path.join(args.out, "ensemble.csv"), stats)
    meta = dict(stats.meta)
    meta.update({"version": __version__, "config_echo": cfg or None,
                 "bound": None if box is None else box.half_width})
    _write_text(os.path.join(args.out, "meta.json"), dump_json(meta))
    print(f"wrote {sim_cfg.runs} runs x {sim_cfg.steps} steps to {args.out}")
    if stats.violation is not None:
        steady = stats.violation[stats.violation.size // 2:]
        print(f"max steady-window violation fraction = {steady.max():.4f}")
    return EXIT_OK


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _template(leads, cells):
    """CSV text with one CRLF-terminated row per lead: the lead, then that
    row of cells (a conversion such as "%r", or "" for a blank cell),
    comma-separated. The text % one value per conversion, in row order,
    is the CSV; a float's %r and %s are both its shortest repr."""
    return "".join(f"{lead},{','.join(row)}\r\n" for lead, row in zip(leads, cells))


# The cost of a forked writer, in CSV rows. Forking a writer and copying
# its chunk back cost about 5 ms, and a row takes about 10 us to format, so
# two writers break even near 1000 rows. _write_trajectories alone on 0011,
# medians of 201 alternating pairs, one writer against two (2-core Xeon
# VM, Python 3.11.7): 964 rows 9.9 / 10.4 ms, 1446 rows 14.3 / 12.6 ms;
# the writer before the row template, at 12 us a row, broke even near 800
# rows (964 rows 11.7 / 11.2 ms, 1446 rows 17.4 / 13.9 ms).
_MIN_ROWS_PER_WORKER = 600


def _write_runs(fh, stats, runs):
    """The CSV rows of the given runs of the ensemble record stats, in
    order, written to text file fh: each run is one % substitution of its
    values, gathered in row order from a [run | x | xhat | u] block, into
    a template of its rows built once per call, in which the step numbers,
    the etas, the commas and the blank cells are literal. A control cell
    is blank where u is non-finite: in the template where it is in every
    run (a sensing step's), else in that run. The final row's eta and u
    cells are blank: no step follows the final state. One run's text is
    held at a time."""
    horizon, n = stats.x.shape[1:]
    m = stats.u.shape[2]
    substituted = np.ones((horizon, 1 + 2 * n + m), dtype=bool)
    substituted[:-1, 1 + 2 * n:] = np.isfinite(stats.u).any(axis=0)
    substituted[-1, 1 + 2 * n:] = False
    cells = np.where(substituted[:, 1:], ["%r"] * (2 * n) + ["%s"] * m, "").tolist()
    leads = [f"%d,{k},{eta}" for k, eta in enumerate(stats.eta.tolist() + [""])]
    template = _template(leads, cells)
    pick = np.flatnonzero(substituted)
    controls = pick % (1 + 2 * n + m) > 2 * n
    block = np.zeros(substituted.shape)
    for run in runs:
        block[:, 0] = run  # an exact float, which %d prints as the integer
        block[:, 1:1 + n] = stats.x[run]
        block[:, 1 + n:1 + 2 * n] = stats.xhat[run]
        block[:-1, 1 + 2 * n:] = stats.u[run]
        values = block.ravel()[pick]
        blank = controls & ~np.isfinite(values)
        if blank.any():
            values = values.astype(object)
            values[blank] = ""
        fh.write(template % tuple(values.tolist()))


def _fork_writer(stats, runs, directory):
    """Fork a child that writes the rows of runs to an anonymous temporary
    file in directory; returns (pid, file). The child leaves only through
    os._exit, with status 0 once its rows are flushed, so it never returns
    into the caller, flushes no inherited buffer and runs no atexit hook.
    It calls no BLAS (element-wise numpy, tolist and %), so forking is safe
    with a BLAS thread pool running in the parent. Interval timers are not
    inherited across fork, so a parent's SIGALRM timer never fires in it."""
    tmp = tempfile.TemporaryFile(dir=directory)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(tmp.fileno(), "w", newline="", encoding="utf-8",
                      closefd=False) as out:
                _write_runs(out, stats, runs)
            status = 0
        finally:
            os._exit(status)
    return pid, tmp


def _write_trajectories(path, stats):
    """Write trajectories.csv from the ensemble record stats: a header
    row, then one row per run and step.

    The runs are cut into contiguous chunks, one per writer: workers, of
    the counts up to the usable CPUs and the run count, minimises the
    rows of the largest chunk plus _MIN_ROWS_PER_WORKER per forked writer,
    the fewest on ties. Forked children format every chunk but the first,
    each into an anonymous temporary file next to path, while this
    process writes the header and the first chunk straight into path; it
    then appends the children's files in run order. Every writer runs the
    same _write_runs, so the bytes do not depend on the worker count, and
    one writer forks nothing. A child that fails raises OSError; on any
    error every child not yet reaped is killed and reaped.
    """
    runs, horizon, n = stats.x.shape
    m = stats.u.shape[2]
    header = (["run", "k", "eta"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xh{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(m)])
    # the CPUs this process may run on; 1 where the platform cannot tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(range(1, min(cpus, runs) + 1),
                  key=lambda w: -(-runs // w) * horizon + (w - 1) * _MIN_ROWS_PER_WORKER)
    bounds = [runs * i // workers for i in range(workers + 1)]
    directory = os.path.dirname(os.path.abspath(path))
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_writer(stats, range(lo, hi), directory))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            _write_runs(fh, stats, range(bounds[0], bounds[1]))
            fh.flush()  # the text layer may still hold chunk 0's last rows
            while children:
                pid, tmp = children[0]
                _, status = os.waitpid(pid, 0)
                children.pop(0)
                with tmp:
                    code = os.waitstatus_to_exitcode(status)
                    if code:
                        raise OSError(f"trajectory writer process {pid} "
                                      f"exited with status {code}")
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh.buffer, 1 << 20)
    finally:
        if children:
            import signal  # on this error path only, so importing the CLI does not load it
            for pid, tmp in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                tmp.close()


def _write_ensemble(path, stats):
    """Write ensemble.csv: a header row, then per step the step number,
    the mean state and the violation fraction, blank without a box."""
    horizon, n = stats.mean.shape
    header = ["k"] + [f"mean_x{i + 1}" for i in range(n)] + ["violation_fraction"]
    values = stats.mean if stats.violation is None else np.column_stack(
        [stats.mean, stats.violation])
    cells = [["%r"] * n + ["%r" if stats.violation is not None else ""]] * horizon
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(_template(range(horizon), cells) % tuple(values.ravel().tolist()))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, and every parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sensact",
        description="Periodic sensing/actuation schedules for linear systems "
                    "that cannot sense and actuate in the same time step.",
    )
    parser.add_argument("--version", action="version", version=f"sensact {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    model = top.add_parser("model", help="model construction").add_subparsers(
        dest="cmd", required=True)
    build = model.add_parser("build", help="build a model file from a config")
    build.add_argument("config", help="config JSON (also searched in $SENSACT_CONFIG_DIR)")
    build.add_argument("-o", "--out", default="model.json", help="output model file")
    build.set_defaults(func=cmd_model_build)

    seq = top.add_parser("seq", help="sequence analysis").add_subparsers(
        dest="cmd", required=True)
    check = seq.add_parser("check", help="admissibility of one sequence")
    check.add_argument("model")
    check.add_argument("bits", help="bitstring, leftmost bit is eta_0 (1 = actuate)")
    check.add_argument("--dwell", action="store_true", help="also run the dwell screen")
    check.add_argument("--chance", action="store_true", help="also verify chance constraints")
    check.add_argument("--bound", type=float, default=None, help="box half-width")
    check.add_argument("--delta", type=float, default=None, help="violation budget")
    check.add_argument("--json", default=None, help="also write a JSON report here")
    check.set_defaults(func=cmd_seq_check)

    dwell = seq.add_parser("dwell", help="dwell-time screen values")
    dwell.add_argument("model")
    dwell.add_argument("bits")
    dwell.add_argument("--kstar", type=int, default=1)
    dwell.add_argument("--family", default="control",
                       choices=["control", "observer", "all"])
    dwell.add_argument("--search-kstar", action="store_true",
                       help="scan kstar <= 20 for the smallest growth constant")
    dwell.set_defaults(func=cmd_seq_dwell)

    search = seq.add_parser("search", help="exhaustive schedule search")
    search.add_argument("model")
    group = search.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="search one fixed length")
    group.add_argument("--n-max", type=int, default=None,
                       help="search lengths 1..N until one is feasible")
    search.add_argument("--all-lengths", action="store_true",
                        help="with --n-max, keep searching all lengths for the global optimum")
    search.add_argument("--table", action="store_true", help="include the per-word cost table")
    search.add_argument("--json", default=None)
    search.set_defaults(func=cmd_seq_search)

    cov = top.add_parser("cov", help="covariance analysis").add_subparsers(
        dest="cmd", required=True)
    steady = cov.add_parser("steady", help="steady periodic covariances")
    steady.add_argument("model")
    steady.add_argument("bits")
    steady.add_argument("--augmented", action="store_true",
                        help="also solve the joint (state, error) system")
    steady.add_argument("--json", default=None)
    steady.set_defaults(func=cmd_cov_steady)

    chance = top.add_parser("chance", help="chance constraints").add_subparsers(
        dest="cmd", required=True)
    verify = chance.add_parser("verify", help="steady-state chance-constraint test")
    verify.add_argument("model")
    verify.add_argument("bits")
    verify.add_argument("--bound", type=float, default=None)
    verify.add_argument("--delta", type=float, default=None)
    verify.add_argument("--json", default=None)
    verify.set_defaults(func=cmd_chance_verify)

    sim = top.add_parser("sim", help="Monte-Carlo simulation").add_subparsers(
        dest="cmd", required=True)
    run = sim.add_parser("run", help="seeded ensemble simulation")
    run.add_argument("model")
    run.add_argument("bits")
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--runs", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--bound", type=float, default=None)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_sim_run)

    return parser


@functools.cache
def _leaf_parsers() -> dict:
    """{(group, command): its parser} of build_parser()'s tree, read from
    each level's subparsers action (argparse has no public accessor)."""
    def commands(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {(group, cmd): leaf for group, sub in commands(build_parser()).items()
            for cmd, leaf in commands(sub).items()}


def _parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed by the command's own parser
    when argv starts with a group and a command. Any other argv, and any
    argv whose command parser leaves an argument over, goes to the full
    parser, so every usage, help and error text is the full parser's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = _leaf_parsers().get(tuple(argv[:2]))
    if leaf is not None:
        args, extras = leaf.parse_known_args(argv[2:])
        if not extras:
            args.group, args.cmd = argv[:2]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SensactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
