"""Command-line front end.

Subcommands:

* ``table``  - print rate summaries for an (orders, dims) grid.
* ``sweep``  - write the same grid as CSV or JSON for plotting.  Both are
  ``cmd_grid``: text and CSV rows are streamed one point at a time, so
  memory does not grow with the grid, an interrupted sweep leaves the rows
  written so far in ``--out``, and every output ends with a newline.
* ``verify`` - compare the brute-force switch output and sampled rate
  against the closed forms, emitting a machine-readable report.
* ``limit``  - print the large-M saturation value with a convergence column.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O
error, 4 size guard, 5 numerical failure (a non-Hermitian matrix, an
eigensolver failure, or an invalid state or spectrum inside the
computation).  All randomness is controlled by ``--seed``; output is
byte-stable for identical flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .capacity import CapacityReport, analytic_output_state, asymptotic_limit, holevo
from .channels import UnitaryBasis, check_completeness, weyl_basis
from .errors import (
    DimensionOutOfRangeError,
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    SizeGuardError,
)
from .switch import (
    ControlAmplitudes,
    OrderSet,
    all_orders,
    apply_switch,
    build_switch_kraus,
    check_size_guard,
    cyclic_orders,
    cyclically_related,
    holevo_oracle,
    order_count,
    random_density_matrix,
)

ANALYTIC_DIM_RANGE = (2, 64)
ORDER_RANGE = (1, 10**6)
# verify fails a case whose block or Kraus completeness residual reaches
# BLOCK_TOL, or whose cyclic-set rate misses the closed form by CHI_TOL.
BLOCK_TOL = 1e-10
CHI_TOL = 1e-6

CSV_HEADER = "m_orders,dim,chi_bits,s_min_bits,s_control_bits"


def _validate_grid(dims: tuple[int, ...], orders: tuple[int, ...]) -> None:
    if not dims:
        raise DomainError("empty dimension list")
    if not orders:
        raise DomainError("empty order list")
    lo, hi = ANALYTIC_DIM_RANGE
    for d in dims:
        if not lo <= d <= hi:
            raise DomainError(f"dimension {d} outside [{lo}, {hi}]")
    lo, hi = ORDER_RANGE
    for m in orders:
        if not lo <= m <= hi:
            raise DomainError(f"order count {m} outside [{lo}, {hi}]")


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma list whose items may be integers or ``a..b`` ranges."""
    values: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            lo_text, hi_text = item.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise DomainError(f"empty range {item!r}")
            if len(values) + hi - lo + 1 > ORDER_RANGE[1]:
                raise DomainError(f"{text!r} expands to more than {ORDER_RANGE[1]} integers")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(item))
    if not values:
        raise DomainError(f"no integers in {text!r}")
    return tuple(values)


def parse_permutations(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse semicolon-separated permutations, e.g. ``0,1,2;1,0,2``."""
    perms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            perms.append(tuple(int(v) for v in chunk.split(",")))
    if not perms:
        raise DomainError(f"no permutations in {text!r}")
    return tuple(perms)


def _grid_points(dims: tuple[int, ...], orders: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Distinct (m, d) points, sorted by dimension and then by order count."""
    sorted_orders = sorted(set(orders))
    for d in sorted(set(dims)):
        for m in sorted_orders:
            yield m, d


def _rows_as_dicts(rows: Iterable[CapacityReport]) -> list[dict]:
    return [
        {
            "m_orders": r.m_orders,
            "dim": r.dim,
            "chi_bits": r.chi,
            "s_min_bits": r.s_min,
            "s_control_bits": r.s_control,
        }
        for r in rows
    ]


def _json_document(rows: list[dict], seed: int) -> str:
    return json.dumps({"rows": rows, "meta": {"seed": seed, "version": __version__}})


def _csv_lines(rows: Iterable[CapacityReport]) -> Iterator[str]:
    yield CSV_HEADER
    for r in rows:
        yield f"{r.m_orders},{r.dim},{r.chi:.12g},{r.s_min:.12g},{r.s_control:.12g}"


def _text_lines(rows: Iterable[CapacityReport]) -> Iterator[str]:
    yield f"{'m_orders':>8} {'dim':>4} {'chi_bits':>9} {'s_min_bits':>12} {'s_control_bits':>15}"
    for r in rows:
        yield f"{r.m_orders:>8} {r.dim:>4} {r.chi:>9.4f} {r.s_min:>12.6f} {r.s_control:>15.6f}"


def cmd_grid(args: argparse.Namespace) -> int:
    dims = parse_int_list(args.dims)
    orders = parse_int_list(args.orders)
    _validate_grid(dims, orders)
    rows = (holevo(m, d) for m, d in _grid_points(dims, orders))
    if args.format == "json":
        lines: Iterable[str] = [_json_document(_rows_as_dicts(rows), args.seed)]
    elif args.format == "csv":
        lines = _csv_lines(rows)
    else:
        lines = _text_lines(rows)
    if args.out == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(args.out, "w", encoding="utf-8")
    with target as handle:
        # Each text or CSV row is computed, formatted and written before the next.
        handle.writelines(f"{line}\n" for line in lines)
    return 0


def run_verify_case(orders: OrderSet, mode: str, basis: UnitaryBasis, seed: int) -> dict:
    """Compare one switch configuration against the closed-form output.

    Every control block of the brute-force output is checked against the
    closed-form block for three inputs (a basis projector, a seeded random
    mixed state, the maximally mixed state).  Blocks whose pair of orders
    are cyclic shifts of each other must agree within BLOCK_TOL, and so must
    the Kraus completeness residual; other pairs are measured and reported,
    since the closed form is not claimed for them.  The sampled rate is
    enforced against the closed-form rate within CHI_TOL only when all order
    pairs are cyclically related.  Returns the report row.
    """
    started = time.perf_counter()
    m = orders.m_orders
    dim = basis.dim
    amplitudes = ControlAmplitudes.uniform(m)

    rng = np.random.default_rng(seed)
    pure = np.zeros((dim, dim), dtype=complex)
    pure[0, 0] = 1.0
    inputs = [pure, random_density_matrix(dim, rng), np.eye(dim, dtype=complex) / dim]

    related = np.array(
        [
            [i == j or cyclically_related(a, b) for j, b in enumerate(orders.orders)]
            for i, a in enumerate(orders.orders)
        ]
    )
    residual = np.zeros((m, m))
    for rho in inputs:
        produced = apply_switch(orders, basis, amplitudes, rho)
        predicted = analytic_output_state(rho, m, amplitudes)
        delta = np.abs(produced.state - predicted).reshape(m, dim, m, dim).max(axis=(1, 3))
        residual = np.maximum(residual, delta)
    max_block_residual = float(residual[related].max())

    kraus_residual = check_completeness(build_switch_kraus(orders, basis))
    chi_oracle = holevo_oracle(orders, basis, seed=seed)
    chi_analytic = holevo(m, dim).chi

    fully_cyclic = bool(related.all())
    divergent_pairs = [
        {"i": int(i), "j": int(j), "deviation": float(residual[i, j])}
        for i, j in np.argwhere(~related & (residual > BLOCK_TOL))
    ]
    failed = (
        max(max_block_residual, kraus_residual) >= BLOCK_TOL
        or (fully_cyclic and abs(chi_analytic - chi_oracle) >= CHI_TOL)
    )
    if failed:
        status = "fail"
    elif divergent_pairs:
        status = "divergent-block"
    else:
        status = "pass"
    return {
        "n_channels": orders.n_channels,
        "dim": dim,
        "orders_mode": mode,
        "orders": [list(o) for o in orders.orders],
        "max_block_residual": max_block_residual,
        "divergent_pairs": divergent_pairs,
        "kraus_residual": kraus_residual,
        "chi_analytic": chi_analytic,
        "chi_oracle": chi_oracle,
        "status": status,
        "wall_time_s": time.perf_counter() - started,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mode != "explicit" and args.perms is not None:
        raise DomainError(f"--perms needs --mode explicit, not --mode {args.mode}")
    perms = parse_permutations(args.perms) if args.perms else None
    # Repeated --dim and --channels values run once, in first-seen order.
    bases = [weyl_basis(d) for d in dict.fromkeys(parse_int_list(args.dim))]
    if args.mode == "explicit":
        if perms is None or args.channels is not None:
            raise DomainError("explicit mode needs --perms and takes no --channels")
        shapes = [(len(perms[0]), len(perms))]
        build = lambda n: OrderSet(orders=perms)
    else:
        channels = dict.fromkeys(parse_int_list("2" if args.channels is None else args.channels))
        shapes = [(n, order_count(n, args.mode)) for n in channels]
        build = cyclic_orders if args.mode == "cyclic" else all_orders
    # Every case meets the byte budget before any order set is built:
    # cyclic_orders(N) alone holds N^2 integers.
    for (n, m), basis in itertools.product(shapes, bases):
        check_size_guard(n, m, basis.dim)
    order_sets = [build(n) for n, _ in shapes]
    rows = [
        run_verify_case(orders, args.mode, basis, args.seed)
        for orders in order_sets
        for basis in bases
    ]
    print(_json_document(rows, args.seed))
    return 1 if any(r["status"] == "fail" for r in rows) else 0


def cmd_limit(args: argparse.Namespace) -> int:
    dim = args.dim
    if dim < 2:
        raise DomainError(f"target dimension must be >= 2, got {dim}")
    limit = asymptotic_limit(dim)
    print(f"dim: {dim}")
    print(f"asymptotic_chi_bits: {limit:.12g}")
    for m in (100, 10_000, 1_000_000):
        print(f"m={m:<8d} chi_bits={holevo(m, dim).chi:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchcap",
        description="Communication rates of depolarizing channels in a quantum switch.",
    )
    parser.add_argument("--version", action="version", version=f"switchcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print the rate grid")
    table.add_argument("--dims", default="2,3", help="target dimensions, e.g. 2,3 or 2..6")
    table.add_argument("--orders", default="2..6", help="order counts, e.g. 2..6")
    table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    table.add_argument("--seed", type=int, default=42)
    table.set_defaults(func=cmd_grid, out="-")

    sweep = sub.add_parser("sweep", help="write the rate grid to a file")
    sweep.add_argument("--dims", required=True, help="target dimensions, e.g. 2..6")
    sweep.add_argument("--orders", required=True, help="order counts, e.g. 2,3,6")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default="-", help="output path, or - for stdout")
    sweep.add_argument("--seed", type=int, default=42)
    sweep.set_defaults(func=cmd_grid)

    verify = sub.add_parser("verify", help="brute-force versus closed-form check")
    verify.add_argument(
        "--channels", default=None, help="channel counts for cyclic and all modes (default 2)"
    )
    verify.add_argument("--dim", default="2", help="target dimensions, e.g. 2,3")
    verify.add_argument("--mode", choices=("cyclic", "all", "explicit"), default="cyclic")
    verify.add_argument("--perms", default=None, help="explicit orders, e.g. 0,1,2;1,0,2")
    verify.add_argument("--seed", type=int, default=42)
    verify.set_defaults(func=cmd_verify)

    limit = sub.add_parser("limit", help="large-M saturation value")
    limit.add_argument("--dim", type=int, required=True)
    limit.set_defaults(func=cmd_limit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"switchcap: size guard: {exc}", file=sys.stderr)
        return 4
    except (NotHermitianError, NoConvergenceError, InvalidSpectrumError, InvalidStateError) as exc:
        print(f"switchcap: numerical failure: {exc}", file=sys.stderr)
        return 5
    except (DomainError, DimensionOutOfRangeError, ValueError) as exc:
        print(f"switchcap: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"switchcap: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
