"""Command-line orchestration: construct, certify, derive, export, tabulate.

Exit codes: 0 success, 1 bad configuration, 2 certification failure,
3 I/O error.  Identical configuration and seed produce byte-identical
output files.  Certified table rows are counted, never copied: formula
values are compared against the counts only after counting finishes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from equiframes.designs import (
    find_parallel_class,
    make_sts,
    store_parallel_class,
    store_sts,
    verify_sts,
)
from equiframes.frames import (
    store_frame_csv,
    store_frame_exact,
    tremain_params,
    verify_etf,
    welch_bound,
)
from equiframes.graphs import (
    CertificationError,
    drackn_params,
    export_graph,
    srg_params_gs,
    srg_params_waldron,
)
from equiframes.hadamard import (
    ButsonMatrix,
    fourier,
    kronecker,
    load_butson,
    normalize,
    paley,
    real_hadamard,
    search_butson,
    store_butson,
    sylvester,
    verify_hadamard,
)
from equiframes.pipelines import (
    build_steiner,
    build_tremain,
    drackn_pipeline,
    gs_pipeline,
    waldron_pipeline,
)


class ConfigError(ValueError):
    pass


BUNDLED_H510 = Path(__file__).parent / "data" / "butson_5_10.txt"


def h510_path() -> Path | None:
    """Published H(5,10) input: env override first, then the bundled file."""
    env = os.environ.get("EQUIFRAMES_H510")
    if env:
        return Path(env)
    return BUNDLED_H510 if BUNDLED_H510.exists() else None


def parse_hadamard_spec(spec: str, seed: int = 0) -> ButsonMatrix:
    """sylvester:K | paley:Q | fourier:N | real:N | search:N:Q | kron(A,B)."""
    spec = spec.strip()
    if spec.startswith("kron(") and spec.endswith(")"):
        body = spec[5:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return kronecker(
                    parse_hadamard_spec(body[:i], seed),
                    parse_hadamard_spec(body[i + 1 :], seed),
                )
        raise ConfigError(f"kron spec needs two arguments: {spec!r}")
    parts = spec.split(":")
    try:
        if parts[0] == "sylvester" and len(parts) == 2:
            return sylvester(int(parts[1]))
        if parts[0] == "paley" and len(parts) == 2:
            return paley(int(parts[1]))
        if parts[0] == "fourier" and len(parts) == 2:
            return fourier(int(parts[1]))
        if parts[0] == "real" and len(parts) == 2:
            return real_hadamard(int(parts[1]))
        if parts[0] == "search" and len(parts) == 3:
            found = search_butson(int(parts[1]), int(parts[2]), seed=seed)
            if found is None:
                raise CertificationError(
                    f"search found no H({parts[2]},{parts[1]}) within budget"
                )
            return found
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown Hadamard spec {spec!r}")


def load_hadamard_file(path: str) -> ButsonMatrix:
    try:
        return load_butson(path)
    except ValueError as exc:
        if "not a Hadamard" in str(exc):
            raise CertificationError(str(exc)) from exc
        raise ConfigError(str(exc)) from exc


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("EQUIFRAMES_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_make_sts(args) -> int:
    s = make_sts(args.V)
    rep = verify_sts(s)
    if not rep.ok:
        raise CertificationError(rep.failure or "triple system failed verification")
    out = _out_dir(args)
    path = out / f"sts_v{args.V}.txt"
    store_sts(path, s)
    report = {"command": "make sts", "artifact": str(path), **rep.to_dict()}
    if args.parallel_class:
        cls = find_parallel_class(s)
        if cls is None:
            raise CertificationError(f"no parallel class exists for V={args.V}")
        cls_path = out / f"sts_v{args.V}_parallel.txt"
        store_parallel_class(cls_path, cls)
        report["parallel_class"] = str(cls_path)
    emit(report, args.json)
    return 0


def cmd_make_hadamard(args) -> int:
    if args.hadamard_file:
        h = load_hadamard_file(args.hadamard_file)
    elif args.spec:
        h = parse_hadamard_spec(args.spec, args.seed)
    else:
        raise ConfigError("give --spec or --hadamard-file")
    rep = verify_hadamard(h)
    if not rep.ok:
        raise CertificationError(f"Hadamard check failed at rows {rep.failure}")
    if args.normalize:
        h = normalize(h)
    path = _out_dir(args) / f"butson_n{h.order}_q{h.root_order}.txt"
    store_butson(path, h)
    emit(
        {"command": "make hadamard", "artifact": str(path), **rep.to_dict()},
        args.json,
    )
    return 0


def _load_slot(path: str | None) -> ButsonMatrix | None:
    return load_hadamard_file(path) if path else None


def cmd_make_etf(args) -> int:
    h1 = _load_slot(args.hadamard_file1)
    if args.kind == "steiner":
        if args.V is None:
            raise ConfigError("steiner frames need --V")
        frame = build_steiner(args.V, h1=h1, row1=args.remove_row1)
        name = f"steiner_v{args.V}"
    else:
        if args.real and args.h is None:
            raise ConfigError("--real qualifies --h")
        h2 = _load_slot(args.hadamard_file2)
        frame = build_tremain(
            v=args.V,
            h=args.h,
            h1=h1,
            h2=h2,
            row1=args.remove_row1,
            row2=args.remove_row2,
            parallel=args.parallel_class,
            real=args.real,
        )
        name = f"tremain_h{args.h}" if args.h is not None else f"tremain_v{args.V}"
    rep = verify_etf(frame, mode=args.mode, tol=args.tol)
    out = _out_dir(args)
    if args.format == "csv":
        path = out / f"{name}.csv"
        store_frame_csv(path, frame)
    else:
        path = out / f"{name}.etf"
        store_frame_exact(path, frame)
    emit(
        {"command": f"make etf {args.kind}", "artifact": str(path),
         **rep.to_dict()},
        args.json,
    )
    if not rep.is_etf:
        raise CertificationError(rep.witness or "frame failed ETF certification")
    return 0


def cmd_derive_srg(args) -> int:
    if args.h is None:
        raise ConfigError("srg derivation needs --h")
    if args.kind == "waldron":
        frame, res = waldron_pipeline(args.h)
        formula = srg_params_waldron(frame.dim, frame.count)
        name = f"srg_waldron_h{args.h}"
    else:
        frame, _, res = gs_pipeline(args.h)
        formula = srg_params_gs(frame.dim, frame.count)
        name = f"srg_gs_h{args.h}"
    if res.params != formula:
        raise CertificationError(
            f"counted {res.params.as_tuple()} != formula {formula.as_tuple()}"
        )
    path = _out_dir(args) / f"{name}.g6"
    export_graph(path, res.graph)
    emit(
        {"command": f"derive srg {args.kind}", "artifact": str(path),
         "M": frame.dim, "N": frame.count, "certified_params": res.params.as_tuple(),
         "formula_params": formula.as_tuple(), "convention": res.convention,
         "certified": True},
        args.json,
    )
    return 0


def cmd_derive_drackn(args) -> int:
    if args.h is None:
        raise ConfigError("drackn derivation needs --h")
    h1 = _load_slot(args.hadamard_file1)
    h2 = _load_slot(args.hadamard_file2)
    if h2 is None and args.p == 5 and args.h == 5 and h510_path():
        h2 = load_hadamard_file(str(h510_path()))
    frame, cov = drackn_pipeline(args.h, args.p, h1=h1, h2=h2)
    n, r, c = cov.params
    c_formula = drackn_params(frame.dim, frame.count, args.p)
    if c != c_formula:
        raise CertificationError(f"counted c={c} != formula c={c_formula}")
    path = _out_dir(args) / f"drackn_h{args.h}_p{args.p}.edges"
    export_graph(path, cov.graph, fmt="edges", fibers=cov.fibers)
    emit(
        {"command": "derive drackn", "artifact": str(path),
         "params": [n, r, c], "n_minus_rc": n - r * c, "certified": True},
        args.json,
    )
    return 0


SRG1_ROWS = (2, 4, 8, 16, 20, 28)
SRG2_ROWS = (2, 8, 20, 32, 44, 56)
DRACKN_ROWS = (2, 4, 8, 16)


def _predicted_seconds(vertices: int) -> float:
    # calibrated against the counting kernel: ~12 s for 2000 vertices
    return 12.0 * (vertices / 2000.0) ** 3 + 1.0


def cmd_tables(args) -> int:
    rows = []
    budget = args.row_budget
    if args.which == "srg1":
        header = ("h", "M", "N", "v", "k", "lambda", "mu", "status")
        for h in SRG1_ROWS:
            m, n = tremain_params(h=h)
            formula = srg_params_waldron(m, n)
            status = "formula-only"
            if _predicted_seconds(n - 1) <= budget:
                _, res = waldron_pipeline(h)
                if res.params != formula:
                    raise CertificationError(
                        f"h={h}: counted {res.params.as_tuple()} != "
                        f"formula {formula.as_tuple()}"
                    )
                status = "certified"
            rows.append((h, m, n, *formula.as_tuple(), status))
    elif args.which == "srg2":
        header = ("h", "M", "N", "v", "k", "lambda", "mu", "status")
        for h in SRG2_ROWS:
            m, n = tremain_params(h=h)
            formula = srg_params_gs(m, n)
            status = "formula-only"
            if _predicted_seconds(n) <= budget:
                _, _, res = gs_pipeline(h)
                if res.params != formula:
                    raise CertificationError(
                        f"h={h}: counted {res.params.as_tuple()} != "
                        f"formula {formula.as_tuple()}"
                    )
                status = "certified"
            rows.append((h, m, n, *formula.as_tuple(), status))
    else:
        header = ("h", "M", "N", "n", "r", "c", "n-rc", "status")
        p = args.p
        table_rows = DRACKN_ROWS if p == 2 else (p,)
        for h in table_rows:
            m, n = tremain_params(h=h)
            c = drackn_params(m, n, p)
            status = "formula-only"
            if _predicted_seconds(n * p) <= budget:
                h2 = None
                if p != 2:
                    src = args.hadamard_file2 or (
                        str(h510_path()) if p == 5 and h == 5 and h510_path() else None
                    )
                    if src is None:
                        rows.append((h, m, n, n, p, c, n - p * c, "no-H(p,2p)-input"))
                        continue
                    h2 = load_hadamard_file(src)
                _, cov = drackn_pipeline(h, p, h2=h2)
                if cov.params != (n, p, c):
                    raise CertificationError(
                        f"h={h}: counted {cov.params} != formula {(n, p, c)}"
                    )
                status = "certified"
            rows.append((h, m, n, n, p, c, n - p * c, status))

    if args.json:
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
    else:
        widths = [
            max(len(str(header[i])), max(len(str(r[i])) for r in rows))
            for i in range(len(header))
        ]
        print("  ".join(str(header[i]).rjust(widths[i]) for i in range(len(header))))
        for r in rows:
            print("  ".join(str(r[i]).rjust(widths[i]) for i in range(len(r))))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, per the exit-code contract
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_globals(parser: argparse.ArgumentParser, leaf: bool) -> None:
    # leaf parsers get SUPPRESS defaults so a value given before the
    # subcommand survives the subparser pass
    def dflt(value):
        return argparse.SUPPRESS if leaf else value

    parser.add_argument("--json", action="store_true",
                        default=dflt(False), help="emit JSON reports")
    parser.add_argument("--out", default=dflt(None),
                        help="output directory (default: $EQUIFRAMES_OUT or .)")
    parser.add_argument("--mode", choices=("exact", "float"), default=dflt("exact"))
    parser.add_argument("--tol", type=float, default=dflt(1e-10))
    parser.add_argument("--seed", type=int, default=dflt(0))


def build_parser() -> _Parser:
    parser = _Parser(prog="equiframes", description=__doc__)
    _add_globals(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct and certify an artifact")
    mk_sub = mk.add_subparsers(dest="what", required=True)

    mk_sts = mk_sub.add_parser("sts")
    mk_sts.add_argument("--V", type=int, required=True)
    mk_sts.add_argument("--parallel-class", action="store_true",
                        help="also find and write a parallel class")
    _add_globals(mk_sts, leaf=True)
    mk_sts.set_defaults(func=cmd_make_sts)

    mk_had = mk_sub.add_parser("hadamard")
    mk_had.add_argument("--spec", default=None,
                        help="sylvester:K | paley:Q | fourier:N | real:N | "
                             "search:N:Q | kron(A,B)")
    mk_had.add_argument("--hadamard-file", default=None)
    mk_had.add_argument("--normalize", action="store_true")
    _add_globals(mk_had, leaf=True)
    mk_had.set_defaults(func=cmd_make_hadamard)

    mk_etf = mk_sub.add_parser("etf")
    mk_etf.add_argument("kind", choices=("steiner", "tremain"))
    mk_etf.add_argument("--V", type=int, default=None)
    mk_etf.add_argument("--h", type=int, default=None)
    mk_etf.add_argument("--real", action="store_true",
                        help="real family parametrized by --h")
    mk_etf.add_argument("--hadamard-file1", default=None)
    mk_etf.add_argument("--hadamard-file2", default=None)
    mk_etf.add_argument("--remove-row1", type=int, default=None)
    mk_etf.add_argument("--remove-row2", type=int, default=None)
    mk_etf.add_argument("--parallel-class", action="store_true")
    mk_etf.add_argument("--format", choices=("exact", "csv"), default="exact")
    _add_globals(mk_etf, leaf=True)
    mk_etf.set_defaults(func=cmd_make_etf)

    dv = sub.add_parser("derive", help="derive and certify a graph")
    dv_sub = dv.add_subparsers(dest="what", required=True)

    dv_srg = dv_sub.add_parser("srg")
    dv_srg.add_argument("kind", choices=("waldron", "gs"))
    dv_srg.add_argument("--h", type=int, default=None)
    _add_globals(dv_srg, leaf=True)
    dv_srg.set_defaults(func=cmd_derive_srg)

    dv_dr = dv_sub.add_parser("drackn")
    dv_dr.add_argument("--h", type=int, default=None)
    dv_dr.add_argument("--p", type=int, required=True)
    dv_dr.add_argument("--hadamard-file1", default=None)
    dv_dr.add_argument("--hadamard-file2", default=None)
    _add_globals(dv_dr, leaf=True)
    dv_dr.set_defaults(func=cmd_derive_drackn)

    tb = sub.add_parser("tables", help="recompute a parameter table")
    tb.add_argument("which", choices=("srg1", "srg2", "drackn"))
    tb.add_argument("--row-budget", type=float, default=60.0,
                    help="per-row certification time budget in seconds")
    tb.add_argument("--p", type=int, default=2)
    tb.add_argument("--hadamard-file2", default=None)
    _add_globals(tb, leaf=True)
    tb.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
