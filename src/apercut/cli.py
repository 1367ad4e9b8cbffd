"""Command-line interface: file-based, reproducible runs.

Subcommands: generate, analyze, growth, cover, bounds, check-window. Every
JSON/CSV output is canonical, embeds the resolved semantic parameters, and is
byte-identical across reruns. Execution knobs (--threads, the element budget)
are deliberately left out of the embedded config so they can never change the
output bytes; the current implementation runs single-threaded regardless of
--threads, which satisfies the determinism contract trivially.

Start-up: each command imports only the modules it runs. `import apercut.cli`
loads `errors`, `heisenberg` and `serialize`. On top of those, `generate`
and `check-window` load `cutproject` and `quadratic`, `bounds` loads only
`bounds`, and `analyze` loads `analysis`, `cutproject` and `quadratic`.
`growth` and `cover` load only `growth`: word balls are bitsets on plain
Python integers, so neither a model-set module nor `quadratic`. No module
imports numpy. No command loads `dataclasses` (the value
types are `errors.Record`s), and `hashlib` loads at the first content
hash: `generate` and `analyze` load it, `cover` and `bounds` with
`--out`, and `growth` never.

`generate` counts its sample against the element budget before it
enumerates an axis, and `analyze` rebuilds the model set of the file's
window and region and refuses a file whose points are not its points
(exit 2).

Exit codes: 0 ok, 2 usage or invalid input, 3 window-regularity rejection,
4 erosion/core failures, 5 provenance mismatch, 6 element budget exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    ApercutError,
    BudgetExceededError,
    ErosionError,
    ProvenanceError,
)
from .heisenberg import GroupKind
from .serialize import (
    analysis_report_payload,
    ball_table_csv_text,
    bounds_report_payload,
    complexity_csv_text,
    cover_report_payload,
    read_model_set,
    write_json,
    write_model_set,
)

if TYPE_CHECKING:
    from .analysis import (
        complexity_table,
        delone_report,
        period_search,
        repetitivity_radii,
    )
    from .cutproject import (
        Box,
        Scheme,
        check_window_regular,
        generate_model_set,
    )

# Names the commands call from modules that not every command needs. They
# are bound as module attributes on first use, by the command (`_bind`) or
# by a lookup from outside (`__getattr__`); a name already bound, say to a
# wrapper, is kept.
_LAZY = {
    "analysis": (
        "complexity_table",
        "delone_report",
        "period_search",
        "repetitivity_radii",
    ),
    "cutproject": (
        "Box",
        "Scheme",
        "check_window_regular",
        "generate_model_set",
    ),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in names}


def _bind(module: str) -> None:
    # what `from .module import ...` runs; unlike importlib.import_module
    # it shows in `python -X importtime`
    mod = __import__(module, globals(), None, _LAZY[module], 1)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGULARITY = 3
EXIT_ANALYSIS = 4
EXIT_PROVENANCE = 5
EXIT_BUDGET = 6

_GROUP_RE = re.compile(r"^(z(\d+)|h(\d+)z)$")


def _parse_rational(text: str) -> Fraction:
    """A rational CLI argument; ValueError for any unusable text, a zero
    denominator included."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _parse_box(text: str) -> Box:
    pairs = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise ValueError(
                f"interval {part!r} is not of the form lo,hi"
            )
        pairs.append((_parse_rational(bits[0]), _parse_rational(bits[1])))
    return Box(tuple(pairs))


def _parse_group(label: str) -> GroupKind:
    m = _GROUP_RE.match(label)
    if not m:
        raise ValueError(
            f"unknown group {label!r}; use z<m> (e.g. z2) or h<n>z (e.g. h1z)"
        )
    if m.group(2) is not None:
        return GroupKind.euclidean(int(m.group(2)))
    return GroupKind.heisenberg(int(m.group(3)))


def _parse_radii(text: str) -> list[Fraction]:
    radii = [_parse_rational(part) for part in text.split(",")]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError(f"radii must be positive, got {text!r}")
    return radii


def _scheme_from_args(args) -> Scheme:
    from .quadratic import RingSpec, RingVariant

    if args.kind == "euclidean":
        if args.m is None:
            raise ValueError("--kind euclidean requires --m")
        kind = GroupKind.euclidean(args.m)
    else:
        if args.n is None:
            raise ValueError("--kind heisenberg requires --n")
        kind = GroupKind.heisenberg(args.n)
    return Scheme(kind, RingSpec(args.d, RingVariant(args.ring)))


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _print_regularity(report) -> None:
    print(f"window boundary clear: {_bool_str(report.boundary_clear)}")
    for witness in report.boundary_witnesses:
        pretty = ", ".join(str(c) for c in witness)
        print(f"  boundary witness: ({pretty})")
    print(f"window regular: {_bool_str(report.window_regular)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    _bind("cutproject")
    scheme = _scheme_from_args(args)
    window = _parse_box(args.window)
    region = _parse_box(args.region)
    report = check_window_regular(scheme, window)
    ms = generate_model_set(scheme, window, region)
    print(f"points: {len(ms)}")
    _print_regularity(report)
    if not report.boundary_clear and not args.allow_irregular:
        print(
            "error: window boundary touches the projected lattice "
            "(rerun with --allow-irregular to keep it)",
            file=sys.stderr,
        )
        return EXIT_REGULARITY
    config = {
        "command": "generate",
        "allow_irregular": bool(args.allow_irregular),
        "window_regular": report.window_regular,
    }
    digest = write_model_set(args.out, ms, config=config)
    print(f"written: {args.out} ({digest})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _bind("analysis")
    ms, payload = read_model_set(args.input)
    radii = _parse_radii(args.K)
    period_bound = _parse_rational(args.period_bound)
    erosion = _parse_rational(args.erosion) if args.erosion else period_bound
    grid_step = _parse_rational(args.grid_step) if args.grid_step else None

    delone = delone_report(ms, grid_step=grid_step,
                           erosion=None if grid_step is None else erosion)
    rows = complexity_table(ms, radii)
    top = max(rows, key=lambda row: row.radius)
    rep = repetitivity_radii(ms, top.radius, top)
    periods = period_search(ms, period_bound, erosion)

    config = {
        "command": "analyze",
        "K": [str(r) for r in radii],
        "erosion": str(erosion),
        "grid_step": None if grid_step is None else str(grid_step),
        "period_bound": str(period_bound),
    }
    report = analysis_report_payload(
        input_hash=payload["content_hash"],
        delone=delone,
        complexity_rows=rows,
        repetitivity=rep,
        periods=periods,
        config=config,
    )
    digest = write_json(args.out, report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(complexity_csv_text(rows, payload["content_hash"]))

    print(f"points: {len(ms)}")
    print(f"separation: {delone.separation.separation:.12g}")
    if delone.covering_radius is not None:
        print(f"covering radius (grid estimate): {delone.covering_radius:.12g}")
    for row in rows:
        print(f"patch classes at K={row.radius}: {row.class_count} "
              f"({row.center_count} centers)")
    print(f"max return radius at K={max(radii)}: "
          f"{rep.max_return_radius:.12g}"
          + (" (some classes seen once)" if rep.any_lower_bound else ""))
    print(f"nontrivial periods found: {len(periods.nontrivial_periods)}")
    print(f"written: {args.out} ({digest})")
    return EXIT_OK


def cmd_growth(args) -> int:
    from . import growth as growth_mod

    kind = _parse_group(args.group)
    fit_kmax = growth_mod.fit_kmax(args.kmin)
    gens = growth_mod.GenSet.standard(kind)
    table = growth_mod.bfs_balls(gens, args.kmax, args.budget)
    config = {"command": "growth", "kmax": args.kmax, "kmin": args.kmin}
    text = ball_table_csv_text(table, config=config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"written: {args.out}")
    else:
        print(text, end="")
    if table.kmax >= fit_kmax:
        fit = growth_mod.fit_growth_exponent(table, k_min=args.kmin)
        print(
            f"fitted exponent: {fit.exponent:.4f} "
            f"(use --dg {kind.growth_degree} for bounds)"
        )
    else:
        print(f"fit skipped: need kmax >= {fit_kmax}")
    return EXIT_OK


def cmd_cover(args) -> int:
    from . import growth as growth_mod

    kind = _parse_group(args.group)
    gens = growth_mod.GenSet.standard(kind)
    report = growth_mod.verify_cover(
        gens, a=args.a, n=args.n, d_used=kind.growth_degree,
        budget=args.budget,
    )
    print(f"covered: {_bool_str(report.covered)}")
    print(f"packing size |S|: {report.packing_size}")
    print(f"(a+1)^d bound: {report.bound} "
          f"(holds: {_bool_str(report.bound_holds)})")
    print(f"packing disjoint: {_bool_str(report.packing_disjoint)}")
    print(f"|S|*|B_n| <= |B_(a+1)n|: {_bool_str(report.volume_check)}")
    if args.out:
        config = {"command": "cover", "group": args.group,
                  "a": args.a, "n": args.n}
        digest = write_json(
            args.out, cover_report_payload(report, kind, config=config)
        )
        print(f"written: {args.out} ({digest})")
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    # 11^d_g has more than d_g digits, so past the limit of integer
    # printing no bound could be printed: refuse it before the power
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.dg > limit:
        raise ValueError(f"--dg must be at most {limit}, the digit limit of "
                         f"integer printing, got {args.dg}")
    tube = bounds_mod.tube_dim_bound(args.dg, args.dimx)
    from_tube = bounds_mod.nuclear_dim_from_tube(args.dimx, tube)
    nuclear = bounds_mod.nuclear_dim_bound(args.dg, args.dimx)
    print(f"tube_dim_bound(d_g={args.dg}, dim_x={args.dimx}) = {tube}")
    print(f"nuclear_dim_from_tube(dim_x={args.dimx}, dim_tube={tube}) "
          f"= {from_tube}")
    print(f"nuclear_dim_bound(d_g={args.dg}, dim_x={args.dimx}) = {nuclear}")
    if args.out:
        config = {"command": "bounds", "dg": args.dg, "dimx": args.dimx}
        digest = write_json(
            args.out,
            bounds_report_payload(args.dg, args.dimx, tube, from_tube,
                                  nuclear, config=config),
        )
        print(f"written: {args.out} ({digest})")
    return EXIT_OK


def cmd_check_window(args) -> int:
    _bind("cutproject")
    scheme = _scheme_from_args(args)
    window = _parse_box(args.window)
    report = check_window_regular(scheme, window)
    _print_regularity(report)
    return EXIT_OK if report.window_regular else EXIT_REGULARITY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["euclidean", "heisenberg"],
                   required=True)
    p.add_argument("--m", type=int, help="rank for --kind euclidean")
    p.add_argument("--n", type=int, help="rank for --kind heisenberg")
    p.add_argument("--d", type=int, required=True,
                   help="square-free field parameter")
    p.add_argument("--ring", choices=["zsqrt", "full"], default="zsqrt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apercut",
        description="Exact cut-and-project model sets in Heisenberg and "
                    "Euclidean groups: generation, aperiodicity analysis, "
                    "word growth, and dimension bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="parallelism cap (outputs are identical at any "
                             "value)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="enumerate a model set into a JSON file")
    _add_scheme_flags(p)
    p.add_argument("--window", required=True,
                   help='internal-space box; write --window=-9/10,11/10 '
                        "(the = keeps leading minus signs out of flag "
                        "parsing)")
    p.add_argument("--region", required=True,
                   help='physical box, semicolon-separated "lo,hi" pairs, '
                        "one per coordinate")
    p.add_argument("--out", required=True)
    p.add_argument("--allow-irregular", action="store_true",
                   help="keep going when the window boundary is touched")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", parents=[common],
                       help="Delone/complexity/repetitivity/period report")
    p.add_argument("--in", dest="input", required=True,
                   help="model-set JSON file from generate")
    p.add_argument("--K", default="1,2,3",
                   help="comma-separated patch radii")
    p.add_argument("--erosion", default=None,
                   help="core erosion depth (default: the period bound)")
    p.add_argument("--grid-step", default=None,
                   help="grid step for the covering-radius estimate "
                        "(omit to skip)")
    p.add_argument("--period-bound", default="2",
                   help="gauge bound for the period search")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None,
                   help="also write the (K, class count) table as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("growth", parents=[common],
                       help="word-ball sizes and growth-exponent fit")
    p.add_argument("--group", required=True, help="z<m> or h<n>z")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--kmin", type=int, default=8,
                   help="first radius used by the log-log fit (>= 0; the "
                        "fit starts at 1 at least)")
    p.add_argument("--budget", type=int, default=None,
                   help="element budget override")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("cover", parents=[common],
                       help="greedy packing/covering experiment")
    p.add_argument("--group", required=True, help="z<m> or h<n>z")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("bounds", parents=[common],
                       help="dimension-bound formulas")
    p.add_argument("--dg", type=int, required=True,
                   help="integer growth degree d(G)")
    p.add_argument("--dimx", type=int, required=True,
                   help="dimension of the space acted on")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check-window", parents=[common],
                       help="window-regularity check without enumeration")
    _add_scheme_flags(p)
    p.add_argument("--window", required=True)
    p.set_defaults(func=cmd_check_window)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ApercutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for error, code in ((BudgetExceededError, EXIT_BUDGET),
                            (ProvenanceError, EXIT_PROVENANCE),
                            (ErosionError, EXIT_ANALYSIS)):
            if isinstance(exc, error):
                return code
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
