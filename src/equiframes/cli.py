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
)
from equiframes.graphs import (
    CertificationError,
    CoverResult,
    drackn_params,
    export_graph,
    require_prime,
    srg_params_gs,
    srg_params_waldron,
)
from equiframes.hadamard import (
    ButsonMatrix,
    NotHadamardError,
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
    """The bundled published H(5,10) input, None if the file is absent."""
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
    except NotHadamardError as exc:
        raise CertificationError(str(exc)) from exc


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
    if args.hadamard_file is not None:
        h = load_hadamard_file(args.hadamard_file)
    else:
        h = parse_hadamard_spec(args.spec, args.seed)
    rep = verify_hadamard(h)
    if not rep.ok:
        raise CertificationError(f"Hadamard check failed at rows {rep.failure}")
    if args.normalize:
        h = normalize(h)
    path = _out_dir(args) / f"butson_n{h.order}_q{h.root_order}.txt"
    store_butson(path, h)
    emit({"command": "make hadamard", "artifact": str(path), **rep.to_dict()}, args.json)
    return 0


def _load_slot(path: str | None) -> ButsonMatrix | None:
    return load_hadamard_file(path) if path else None


def cmd_make_etf_steiner(args) -> int:
    frame = build_steiner(args.V, h1=_load_slot(args.hadamard_file1), row1=args.remove_row1)
    return _certify_frame(args, frame, f"steiner_v{args.V}")


def cmd_make_etf_tremain(args) -> int:
    if args.real and args.h is None:
        raise ConfigError("--real qualifies --h")
    frame = build_tremain(
        v=args.V,
        h=args.h,
        h1=_load_slot(args.hadamard_file1),
        h2=_load_slot(args.hadamard_file2),
        row1=args.remove_row1,
        row2=args.remove_row2,
        parallel=args.parallel_class,
        real=args.real,
    )
    name = f"tremain_h{args.h}" if args.h is not None else f"tremain_v{args.V}"
    return _certify_frame(args, frame, name)


def _certify_frame(args, frame, name: str) -> int:
    """Verify, write in --format and report; exit 2 after writing a non-ETF."""
    rep = verify_etf(frame)
    store, suffix = (store_frame_csv, "csv") if args.format == "csv" else (store_frame_exact, "etf")
    path = _out_dir(args) / f"{name}.{suffix}"
    store(path, frame)
    emit({"command": f"make etf {args.kind}", "artifact": str(path), **rep.to_dict()},
         args.json)
    if not rep.is_etf:
        raise CertificationError(rep.witness or "frame failed ETF certification")
    return 0


def _second_hadamard_file(h: int, p: int, given: str | None) -> str | Path | None:
    """The given file, else the published H(5,10) when h = p = 5 (None if absent)."""
    if given is None and h == p == 5:
        return h510_path()
    return given


def _srg_formula(kind: str, m: int, n: int):
    return (srg_params_waldron if kind == "waldron" else srg_params_gs)(m, n)


def certify_srg(kind: str, h: int):
    """(frame, result, formula): the pipeline certifies only the formula's parameters."""
    frame, *_, res = waldron_pipeline(h) if kind == "waldron" else gs_pipeline(h)
    return frame, res, _srg_formula(kind, frame.dim, frame.count)


def certify_cover(h: int, p: int, file1: str | None, file2: str | None) -> CoverResult:
    """Build, count and compare with the closed form (N, p, c)."""
    require_prime(p)  # before either Hadamard file is read
    frame, cov = drackn_pipeline(h, p, h1=_load_slot(file1),
                                 h2=_load_slot(_second_hadamard_file(h, p, file2)))
    formula = (frame.count, p, drackn_params(frame.dim, frame.count, p))
    if cov.params != formula:
        raise CertificationError(f"h={h}: counted {cov.params} != formula {formula}")
    return cov


def cmd_derive_srg(args) -> int:
    frame, res, formula = certify_srg(args.kind, args.h)
    path = _out_dir(args) / f"srg_{args.kind}_h{args.h}.g6"
    export_graph(path, res.graph)
    emit(
        {"command": f"derive srg {args.kind}", "artifact": str(path),
         "M": frame.dim, "N": frame.count, "certified_params": res.params.as_tuple(),
         "formula_params": formula.as_tuple(), "convention": "positive-adjacent",
         "counting": res.counting, "certified": True},
        args.json,
    )
    return 0


def cmd_derive_drackn(args) -> int:
    cov = certify_cover(args.h, args.p, args.hadamard_file1, args.hadamard_file2)
    n, r, c = cov.params
    path = _out_dir(args) / f"drackn_h{args.h}_p{args.p}.edges"
    export_graph(path, cov.graph, fmt="edges", fibers=r)
    emit(
        {"command": "derive drackn", "artifact": str(path), "params": [n, r, c],
         "n_minus_rc": n - r * c, "counting": cov.counting, "certified": True},
        args.json,
    )
    return 0


SRG1_ROWS = (2, 4, 8, 16, 20, 28)
SRG2_ROWS = (2, 8, 20, 32, 44, 56)
DRACKN_ROWS = (2, 4, 8, 16)


def _predicted_seconds(vertices: int) -> float:
    # calibrated against the counting kernel: ~12 s for 2000 vertices
    return 12.0 * (vertices / 2000.0) ** 3 + 1.0


def cmd_tables_srg(args) -> int:
    kind, hs = ("waldron", SRG1_ROWS) if args.which == "srg1" else ("gs", SRG2_ROWS)

    def closed(m, n):
        f = _srg_formula(kind, m, n)
        return {"v": f.v, "k": f.k, "lambda": f.lam, "mu": f.mu}, f.v

    def certify(h):
        certify_srg(kind, h)
        return "certified"

    return _print_table(args, hs, closed, certify)


def cmd_tables_drackn(args) -> int:
    p, file2 = args.p, args.hadamard_file2
    if file2 is not None and p == 2:  # only an odd p's row reads it
        raise ConfigError("--hadamard-file2 is read by no row of tables drackn --p 2")
    require_prime(p)
    if p % 3 == 0:  # an odd p has the one row h = p
        raise ConfigError(f"--p {p} asks for the row h = {p}, and no Tremain frame "
                          f"has h = 0 (mod 3)")

    def closed(m, n):
        c = drackn_params(m, n, p)
        return {"n": n, "r": p, "c": c, "n-rc": n - p * c}, n * p

    def certify(h):
        src = _second_hadamard_file(h, p, file2)
        if p != 2 and src is None:
            return "no-H(p,2p)-input"
        certify_cover(h, p, None, src)
        return "certified"

    return _print_table(args, DRACKN_ROWS if p == 2 else (p,), closed, certify)


def _print_table(args, hs, closed, certify) -> int:
    """One row per h: the closed form's cells (M, N) -> (cells, vertices), and
    the certifier's status when the row fits the --row-budget."""
    rows = []
    for h in hs:
        m, n = tremain_params(h=h)
        cells, vertices = closed(m, n)
        status = "formula-only"
        if _predicted_seconds(vertices) <= args.row_budget:
            status = certify(h)
        rows.append({"h": h, "M": m, "N": n, **cells, "status": status})
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    header = {key: key for key in rows[0]}
    widths = {key: max(len(str(r[key])) for r in (header, *rows)) for key in header}
    for r in (header, *rows):
        print("  ".join(str(r[key]).rjust(width) for key, width in widths.items()))
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
    parser.add_argument("--seed", type=int, default=dflt(0))


def build_parser() -> _Parser:
    """Each leaf command declares exactly the options its handler reads; only
    --json, --out and --seed are global, before the command or after a leaf."""
    parser = _Parser(prog="equiframes", description=__doc__)
    _add_globals(parser, leaf=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, leaf=True)

    def branch(parent, name, dest, **kw):
        return parent.add_parser(name, **kw).add_subparsers(dest=dest, required=True)

    def leaf(parent, name, func, parents=()):
        p = parent.add_parser(name, parents=[*parents, common])
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    mk = branch(sub, "make", "what", help="construct and certify an artifact")
    mk_sts = leaf(mk, "sts", cmd_make_sts)
    mk_sts.add_argument("--V", type=int, required=True)
    mk_sts.add_argument("--parallel-class", action="store_true",
                        help="also find and write a parallel class")

    mk_had = leaf(mk, "hadamard", cmd_make_hadamard)
    source = mk_had.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="sylvester:K | paley:Q | fourier:N | real:N | "
                                       "search:N:Q | kron(A,B)")
    source.add_argument("--hadamard-file")
    mk_had.add_argument("--normalize", action="store_true")

    etf = argparse.ArgumentParser(add_help=False)
    etf.add_argument("--hadamard-file1")
    etf.add_argument("--remove-row1", type=int)
    etf.add_argument("--format", choices=("exact", "csv"), default="exact")
    mk_etf = branch(mk, "etf", "kind")
    steiner = leaf(mk_etf, "steiner", cmd_make_etf_steiner, [etf])
    steiner.add_argument("--V", type=int, required=True)
    tremain = leaf(mk_etf, "tremain", cmd_make_etf_tremain, [etf])
    size = tremain.add_mutually_exclusive_group(required=True)
    size.add_argument("--V", type=int)
    size.add_argument("--h", type=int)
    tremain.add_argument("--real", action="store_true", help="real family parametrized by --h")
    tremain.add_argument("--hadamard-file2")
    tremain.add_argument("--remove-row2", type=int)
    tremain.add_argument("--parallel-class", action="store_true")

    dv = branch(sub, "derive", "what", help="derive and certify a graph")
    dv_srg = branch(dv, "srg", "kind")
    for kind in ("waldron", "gs"):
        leaf(dv_srg, kind, cmd_derive_srg).add_argument("--h", type=int, required=True)
    dv_dr = leaf(dv, "drackn", cmd_derive_drackn)
    dv_dr.add_argument("--h", type=int, required=True)
    dv_dr.add_argument("--p", type=int, required=True)
    dv_dr.add_argument("--hadamard-file1")
    dv_dr.add_argument("--hadamard-file2")

    tb = branch(sub, "tables", "which", help="recompute a parameter table")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--row-budget", type=float, default=60.0,
                        help="per-row certification time budget in seconds")
    for which in ("srg1", "srg2"):
        leaf(tb, which, cmd_tables_srg, [budget])
    tb_dr = leaf(tb, "drackn", cmd_tables_drackn, [budget])
    tb_dr.add_argument("--p", type=int, default=2)
    tb_dr.add_argument("--hadamard-file2")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # exit 1: an admitted size the process cannot get
        print(f"out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
