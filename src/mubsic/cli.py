"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Numeric console output uses 12 significant digits.  The default verification
tolerance is ``linalg.DEFAULT_TOL`` (1e-10), overridable by the MUBSIC_TOL
environment variable and, per invocation, by --tol; a tolerance must be a
finite nonnegative number.  All subcommands are deterministic: the same argv
(and seed) produces byte-identical output files.  README names the calls on
their paths whose sums BLAS or LAPACK still order by thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# No layer, and so no numpy, loads at import: --help and usage errors cost
# only the interpreter and argparse.  Each handler imports the layers it runs,
# linalg through the helpers below.


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_tol(raw, what: str) -> float:
    """``raw`` as a tolerance: a finite nonnegative number, else ValueError."""
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"{what} is not a number: {raw!r}") from exc
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"{what} must be a finite nonnegative number, got {raw!r}")
    return tol


def _tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return _read_tol(args.tol, "--tol")
    env = os.environ.get("MUBSIC_TOL")
    if env is not None:
        return _read_tol(env, "MUBSIC_TOL")
    from . import linalg

    return linalg.DEFAULT_TOL


def _verdict(prefix: str, dev: float, tol: float) -> int:
    """Print ``<prefix> <dev> (pass|fail at <tol>)``; exit code 0 if dev ≤ tol, else 1."""
    ok = dev <= tol
    print(f"{prefix} {_fmt(dev)} ({'pass' if ok else 'fail'} at {_fmt(tol)})")
    return 0 if ok else 1


def _write_text(path, text: str) -> None:
    from . import linalg

    with linalg.output(path) as fh:
        fh.write(text)


def _write_json(path, obj: dict) -> None:
    """``linalg.write_json`` under the name the benchmark's tracer wraps."""
    from . import linalg

    linalg.write_json(path, obj)


def _read_json(path) -> dict:
    from . import linalg

    return linalg.load_json(path)


# --- handlers ----------------------------------------------------------------


def _cmd_mub_build(args) -> int:
    from . import weyl

    fam = weyl.build_mub(args.d)
    dev = weyl.verify_mub(fam)
    _write_json(args.out, fam.to_json_dict())
    print(f"built {fam.n_bases} bases for d={fam.d}, deviation {_fmt(dev)}")
    return 0


def _cmd_mub_verify(args) -> int:
    from . import weyl

    dev = weyl.verify_mub(weyl.build_mub(args.d))
    return _verdict(f"d={args.d} deviation", dev, _tol(args))


def _cmd_plane_build(args) -> int:
    from . import plane

    if args.kind == "apg":
        geom = plane.build_apg(args.d)
        text = plane.export_apg(geom, args.export)
    else:
        geom = plane.build_dapg(args.d)
        text = plane.export_incidence(geom, args.export)
    _write_text(args.out, text)
    print(f"{args.kind} d={args.d}: {len(geom.points)} points, {len(geom.lines)} lines")
    return 0


def _cmd_plane_verify(args) -> int:
    from . import plane

    if args.kind == "apg":
        report = plane.verify_apg(plane.build_apg(args.d))
    else:
        report = plane.verify_incidence(plane.build_dapg(args.d))
    print(report.summary())
    for v in report.violations:
        print(f"  violation: {v}")
    return 0 if report.ok else 1


def _cmd_frame_from_mub(args) -> int:
    from . import frames, weyl

    pf = frames.point_frame_from_mub(weyl.build_mub(args.d))
    dev = frames.verify_point_table(pf)
    _write_json(args.out, frames.point_frame_layout(pf))
    print(f"point frame d={pf.d} beta={_fmt(pf.beta)}, table deviation {_fmt(dev)}")
    return 0


def _cmd_frame_from_hg(args) -> int:
    from . import frames, weyl

    pf = frames.point_frame_from_hg(weyl.build_hg_basis(weyl.build_weyl_pair(args.d)))
    dev = frames.verify_point_table(pf)
    _write_json(args.out, frames.point_frame_layout(pf))
    print(f"point frame d={pf.d} beta={_fmt(pf.beta)}, table deviation {_fmt(dev)}")
    return 0


def _cmd_frame_bridge(args) -> int:
    from . import frames, plane

    pf = frames.point_frame_from_json_dict(_read_json(args.points))
    lf = frames.line_ops_from_points(pf, plane.build_dapg(pf.d))
    _write_json(args.out, frames.line_frame_layout(lf))
    print(f"line frame d={lf.d} alpha={_fmt(lf.alpha)}")
    return 0


def _cmd_frame_verify(args) -> int:
    from . import frames, plane

    tol = _tol(args)
    pf = frames.point_frame_from_json_dict(_read_json(args.points))
    # Both files are read before anything prints, so a bad one leaves no
    # partial report on stdout.
    lf = None if args.lines is None else frames.line_frame_from_json_dict(_read_json(args.lines))
    if lf is not None and lf.d != pf.d:
        raise ValueError(f"dimension mismatch: point frame d={pf.d}, line frame d={lf.d}")
    worst = frames.verify_point_table(pf)
    print(f"point table deviation {_fmt(worst)} (beta={_fmt(pf.beta)})")
    if lf is not None:
        line_dev = frames.verify_line_table(lf)
        report = frames.verify_point_line_table(pf, lf, plane.build_dapg(pf.d))
        print(f"line table deviation {_fmt(line_dev)} (alpha={_fmt(lf.alpha)})")
        print(
            "point-line products deviation "
            f"{_fmt(report.max_dev_traceless)} (traceless), "
            f"{_fmt(report.max_dev_trace_one)} (trace-one)"
        )
        # A NaN deviation is the worst one; max() alone would drop a later NaN.
        worst = max(worst, line_dev, report.max_dev, key=lambda x: (x != x, x))
    return _verdict("max deviation", worst, tol)


def _cmd_sic_generate(args) -> int:
    from . import siclab

    tol = _tol(args)
    if args.builtin is not None:
        fid = {"qubit": siclab.qubit_fiducial, "qutrit": siclab.qutrit_fiducial}[args.builtin]()
    else:
        fid = siclab.Fiducial.from_json_dict(_read_json(args.fiducial))
    fam = siclab.generate_hw_sic(fid)
    dev = siclab.verify_sic(fam)
    _write_json(args.out, fam.layout())
    return _verdict(f"d={fam.d} family from {fid.source} fiducial: deviation", dev, tol)


def _cmd_sic_verify(args) -> int:
    from . import siclab

    fam = siclab.SicFamily.from_json_dict(_read_json(args.infile))
    dev = siclab.verify_sic(fam)
    return _verdict(f"d={fam.d} deviation", dev, _tol(args))


def _cmd_sic_spectra(args) -> int:
    from . import siclab

    fam = siclab.SicFamily.from_json_dict(_read_json(args.infile))
    table = siclab.spectra_table(siclab.extract_mu_pom(fam))
    _write_text(args.out, siclab.spectra_to_csv(table))
    spread = siclab.assert_column_constant(table).max()
    print(f"d={fam.d} spectra: max within-column spread {_fmt(spread)}")
    return 0


def _cmd_sic_group(args) -> int:
    from . import siclab

    tol = _read_tol(args.tol, "--tol")
    with open(args.infile) as fh:
        table = siclab.spectra_from_csv(fh.read())
    spread = siclab.assert_column_constant(table).max()
    grouping = siclab.group_columns_by_spectrum(table, tol=tol)
    _write_json(args.out, grouping)
    print(f"max within-column spread {_fmt(spread)}")
    print(f"groups: {grouping['groups']}")
    if spread > tol:
        print(f"columns are not constant at tol {_fmt(tol)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sic_solve_prob(args) -> int:
    from . import siclab

    res = siclab.solve_cyclic_probability(args.d, seed=args.seed, restarts=args.restarts)
    for sol, resid in zip(res.solutions, res.residuals):
        vals = ", ".join(_fmt(x) for x in sol)
        print(f"p = ({vals})  residual {_fmt(resid)}")
    if res.family is not None:
        lo, hi = res.family_bounds
        print(
            "family: p0 = (1 - p1 + sqrt(2 p1 - 3 p1^2))/2, "
            f"p1 in [{_fmt(lo)}, {_fmt(hi)}]"
        )
    return 0


def _cmd_sic_search(args) -> int:
    from . import siclab

    cfg = siclab.SearchConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        objective_tol=_read_tol(args.tol, "--tol"),
    )
    result = siclab.search_fiducial(args.d, cfg)
    if args.out is not None:
        siclab.write_fiducial_json(args.out, result.fiducial)
    status = "converged" if result.converged else "budget exhausted"
    print(
        f"d={args.d} objective {_fmt(result.objective)} after "
        f"{result.restarts_used} restarts ({status})"
    )
    return 0 if result.converged else 1


def _cmd_quasiprob(args) -> int:
    from . import frames, linalg, plane

    rho = linalg.read_operator_json(args.rho)
    pf = frames.point_frame_from_json_dict(_read_json(args.points))
    q = frames.quasi_distribution(rho, pf)
    geom = plane.build_dapg(pf.d)
    p = frames.line_probabilities(q, geom)
    obj = {
        "d": pf.d,
        "points": [[m, j, q[(m, j)]] for (m, j) in geom.points],
        "lines": [[a, b, p[(a, b)]] for (a, b) in geom.lines],
    }
    total = sum(p[ln] for ln in geom.lines)
    linalg.require_finite(total)
    _write_json(args.out, obj)
    print(f"wrote {len(q)} point values, {len(p)} line sums (total {_fmt(total)})")
    return 0


# --- parser ---------------------------------------------------------------------


def _reject(message: str):
    raise ValueError(message)


def _parser(**kwargs) -> argparse.ArgumentParser:
    """An argument parser that raises ValueError on bad argv, so that a usage
    error ends like every other bad input: exit 2 and one ``error:`` line."""
    parser = argparse.ArgumentParser(**kwargs)
    parser.error = _reject
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _parser(
        prog="mubsic",
        description="Unbiased operator frames and equal-overlap families in prime dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="sub", required=True, parser_class=_parser
        )

    def add(p, *names_kwargs):
        for name, kwargs in names_kwargs:
            p.add_argument(name, **kwargs)
        return p

    def leaf(parent, name, help, handler, *names_kwargs):
        p = parent.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return add(p, *names_kwargs)

    d_arg = ("--d", {"type": int, "required": True, "help": "prime dimension"})
    tol_arg = ("--tol", {"type": float, "default": None, "help": "tolerance override"})
    out_arg = ("--out", {"default": None, "help": "output path (default stdout)"})
    bare_out = ("--out", {"default": None})
    points_arg = ("--points", {"required": True, "help": "point-frame JSON path"})
    kind_arg = ("--kind", {"choices": ["apg", "dapg"], "default": "dapg"})
    seed_arg = ("--seed", {"type": int, "default": 0})
    family_in = ("--in", {"dest": "infile", "required": True, "help": "family JSON path"})

    mub = group("mub", "mutually unbiased bases")
    leaf(mub, "build", "construct the d+1 bases", _cmd_mub_build, d_arg, out_arg)
    leaf(mub, "verify", "check the overlap pattern", _cmd_mub_verify, d_arg, tol_arg)

    pl = group("plane", "finite plane geometry")
    leaf(pl, "build", "construct and export a plane", _cmd_plane_build, d_arg, out_arg, kind_arg,
         ("--export", {"choices": ["json", "dot"], "default": "json"}))
    leaf(pl, "verify", "check the incidence axioms", _cmd_plane_verify, d_arg, kind_arg)

    fr = group("frame", "operator frames")
    leaf(fr, "from-mub", "point frame from unbiased bases", _cmd_frame_from_mub, d_arg, out_arg)
    leaf(fr, "from-hg", "point frame from the rotation basis", _cmd_frame_from_hg, d_arg, out_arg)
    leaf(fr, "bridge", "line frame from a point frame", _cmd_frame_bridge, points_arg, bare_out)
    leaf(fr, "verify", "check frame product tables", _cmd_frame_verify, points_arg,
         ("--lines", {"default": None, "help": "line-frame JSON path"}), tol_arg)

    sic = group("sic", "equal-overlap families")
    p = leaf(sic, "generate", "covariant family from a fiducial", _cmd_sic_generate)
    add(p.add_mutually_exclusive_group(required=True),
        ("--fiducial", {"help": "fiducial JSON path"}),
        ("--builtin", {"choices": ["qubit", "qutrit"]}))
    add(p, out_arg, tol_arg)
    leaf(sic, "verify", "check the overlap pattern", _cmd_sic_verify, family_in, tol_arg)
    leaf(sic, "spectra", "measurement-column spectra CSV", _cmd_sic_spectra, family_in, out_arg)
    leaf(sic, "group", "group columns by spectrum", _cmd_sic_group,
         ("--in", {"dest": "infile", "required": True, "help": "spectra CSV path"}),
         ("--tol", {"type": float, "default": 1e-6}), bare_out)
    leaf(sic, "solve-prob", "cyclic probability conditions", _cmd_sic_solve_prob, d_arg, seed_arg,
         ("--restarts", {"type": int, "default": 64}))
    leaf(sic, "search", "numerical fiducial search", _cmd_sic_search, d_arg, out_arg, seed_arg,
         ("--restarts", {"type": int, "default": 24}),
         ("--max-iters", {"type": int, "default": 1000}),
         ("--tol", {"type": float, "default": 1e-14, "help": "objective tolerance"}))

    leaf(sub, "quasiprob", "quasi-probabilities of a state", _cmd_quasiprob,
         ("--rho", {"required": True, "help": "density operator JSON path"}), points_arg, bare_out)
    return parser


# Every run() of a process parses with one tree, built at its first call:
# building it takes about 4 ms.  build_parser() itself still builds afresh,
# and the tree is built again whenever the name build_parser is rebound, as
# the benchmark's tracer does, so that a wrapper sees the tree it returned.
_shared = {}


def _shared_parser() -> argparse.ArgumentParser:
    if _shared.get("build") is not build_parser:
        _shared.update(build=build_parser, parser=build_parser())
    return _shared["parser"]


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = _shared_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
