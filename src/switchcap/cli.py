"""Command-line front end.

Subcommands:

* ``table``  - print rate summaries for an (orders, dims) grid.
* ``sweep``  - write the same grid as CSV or JSON for plotting.  Both are
  ``cmd_grid``: every format is computed and written at most
  ``_GRID_CHUNK`` orders of one dimension at a time, each chunk one flat
  list of fields in the row template's column order, filled column by
  column (``_grid_chunks``).  So memory does not grow with the grid, an
  interrupted sweep leaves the whole chunks written so far in ``--out``,
  and every output ends with a newline.
* ``verify`` - compare the brute-force switch output and sampled rate
  against the closed forms, emitting a machine-readable report.
* ``limit``  - print the large-M saturation value with a convergence column.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O
error, 4 size guard, 5 numerical failure (a non-Hermitian matrix, an
eigensolver failure, or an invalid state or spectrum inside the
computation), 130 interrupted (one ``switchcap: interrupted`` line on
stderr; the whole chunks written so far stay in ``--out``).  All
randomness is controlled by ``--seed``, a nonnegative integer in every
subcommand that takes it, which seeds the stdlib Mersenne Twister
(``random.Random``) behind ``switch.NormalSource``.  Output is byte-stable
for identical flags and seed, except each ``verify`` row's
``wall_time_s``.

NumPy is imported only inside the functions that build arrays, here and in
the modules they call: ``verify`` loads it, and ``table`` and ``sweep`` do
only for a grid large enough to repay its import (``_NUMPY_GRID_POINTS``),
so ``limit`` and every smaller grid run without it.  numpy's import is
about half of a small closed-form request's whole-process time.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from . import __version__
from .capacity import (
    _check_point,
    _holevo_block,
    analytic_output_state,
    asymptotic_limit,
    holevo,
)
from .channels import UnitaryBasis, check_completeness, weyl_basis
from .errors import (
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    SizeGuardError,
    _integer,
)
from .switch import (
    ControlAmplitudes,
    NormalSource,
    OrderSet,
    SwitchMap,
    _switch_map,
    all_orders,
    apply_switch,
    build_switch_kraus,
    check_size_guard,
    cyclic_orders,
    cyclic_pairs,
    holevo_oracle,
    order_count,
    random_density_matrix,
)

if TYPE_CHECKING:
    import numpy as np

ORDER_RANGE = (1, 10**6)
# verify fails a case whose block or Kraus completeness residual reaches
# BLOCK_TOL, or whose cyclic-set rate misses the closed form by CHI_TOL.
BLOCK_TOL = 1e-10
CHI_TOL = 1e-6

COLUMNS = ("m_orders", "dim", "chi_bits", "s_min_bits", "s_control_bits")
CSV_HEADER = ",".join(COLUMNS)
# Each grid format is a head, one % row template over (m, d, chi, s_min,
# s_control), the text between two rows, and a tail whose %(meta)s takes the
# JSON meta object.  %s of a finite float, builtin or NumPy, is the shortest
# repr that json.dumps writes; every closed-form rate is finite.
JSON_ROW = "{%s}" % ", ".join(f'"{name}": %{spec}' for name, spec in zip(COLUMNS, "ddsss"))
FORMATS = {
    "text": ("%8s %4s %9s %12s %15s\n" % COLUMNS, "%8d %4d %9.4f %12.6f %15.6f\n", "", ""),
    "csv": (CSV_HEADER + "\n", "%d,%d,%.12g,%.12g,%.12g\n", "", ""),
    "json": ('{"rows": [', JSON_ROW, ", ", '], "meta": %(meta)s}\n'),
}
# The grid is computed, formatted and written at most this many orders of
# one dimension at a time.
_GRID_CHUNK = 1024
# A grid of at least this many distinct points takes its rates from
# capacity._holevo_block, which imports numpy; a smaller grid makes one holevo
# call per point and never loads numpy.  The value is above the whole-process
# break-even on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4.6): numpy's
# import, 124-171 ms there, against about 1 us saved per point.  Median
# `switchcap sweep --dims 2..16` CSV times from fresh processes, block route
# against per-point over 10 alternating pairs: 309/262 ms at 100 005 points,
# 434/472 ms at 200 010, 555/663 ms at 300 000: break-even near 155 000.
_NUMPY_GRID_POINTS = 200_000


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


def _grid_lines(fmt: str, chunks: Iterable[Sequence], seed: int) -> Iterator[str]:
    """Stream one grid document, one string per chunk as it is computed.

    Each chunk is one flat sequence of its rows' fields in the row
    template's column order (m, d, chi, s_min, s_control).
    """
    head, row, between, tail = FORMATS[fmt]
    yield head
    later = between + row
    skip = len(between)  # no separator before the first row
    for fields in chunks:
        yield (later * (len(fields) // 5))[skip:] % tuple(fields)
        skip = 0
    if tail:
        yield tail % {"meta": json.dumps(_meta(seed))}


def _meta(seed: int) -> dict:
    return {"seed": seed, "version": __version__}


def _grid_chunks(dims: list[int], orders: list[int]) -> Iterator[list]:
    """At most _GRID_CHUNK orders of one d at a time, as ``_grid_lines`` takes them.

    Each chunk's fields are filled column by column.  A grid of at least
    _NUMPY_GRID_POINTS points takes its rate columns from _holevo_block,
    which imports numpy; a smaller one makes one holevo call per point,
    read from this module's globals at each chunk, so a wrapper bound to
    cli.holevo sees every call.  Both give the same floats.
    """
    large = len(dims) * len(orders) >= _NUMPY_GRID_POINTS
    for d, i in itertools.product(dims, range(0, len(orders), _GRID_CHUNK)):
        block = orders[i : i + _GRID_CHUNK]
        n = len(block)
        if large:
            smin, scontrol, chi = (column.tolist() for column in _holevo_block(block, d))
        else:
            _, _, smin, scontrol, chi = zip(*map(holevo, block, itertools.repeat(d, n)))
        fields = [None] * (5 * n)
        for j, column in enumerate((block, [d] * n, chi, smin, scontrol)):
            fields[j::5] = column
        yield fields


def cmd_grid(args: argparse.Namespace) -> int:
    # random.Random seeds from |seed|, so -s would silently repeat s; the
    # grid draws nothing, but its meta object carries the same seed.
    _integer("--seed", args.seed, 0)
    # Distinct points, sorted by dimension and then by order count, so each
    # axis is checked at its two ends; capacity owns the dimension bound.
    dims = sorted(set(parse_int_list(args.dims)))
    orders = sorted(set(parse_int_list(args.orders)))
    for d in (dims[0], dims[-1]):
        _check_point(1, d)
    for m in (orders[0], orders[-1]):
        _integer("order count", m, *ORDER_RANGE)
    lines = _grid_lines(args.format, _grid_chunks(dims, orders), args.seed)
    out = args.out
    target = contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8")
    with target as handle:
        # Each chunk of rows is computed, formatted and written before the next.
        handle.writelines(lines)
    return 0


def _block_residual(
    orders: OrderSet,
    basis: UnitaryBasis,
    amplitudes: ControlAmplitudes,
    rho: np.ndarray,
    *,
    switch_map: SwitchMap,
) -> np.ndarray:
    """(M, M) largest entry deviation of each output block from the closed form."""
    import numpy as np
    m, dim = orders.m_orders, basis.dim
    produced = apply_switch(orders, basis, amplitudes, rho, switch_map=switch_map)
    predicted = analytic_output_state(rho, m)
    # The magnitudes are written block by block, so each block's maximum is
    # a reduction over the contiguous last axis of an (M, M, d^2) view.
    gap = np.empty((m, m, dim, dim))
    np.abs((produced.state - predicted).reshape(m, dim, m, dim).transpose(0, 2, 1, 3), out=gap)
    return gap.reshape(m, m, dim * dim).max(axis=2)


def run_verify_case(orders: OrderSet, mode: str, basis: UnitaryBasis, seed: int) -> dict:
    """Compare one switch configuration against the closed-form output.

    Every control block of the brute-force output is checked against the
    closed-form block for three inputs (a basis projector, a seeded random
    mixed state, the maximally mixed state).  Blocks of the pairs in which
    one order is a cyclic shift of the other (``cyclic_pairs``) must agree
    within BLOCK_TOL, and so must the Kraus completeness residual, taken on
    the first order's Kraus family alone, one slab of d^(2N) products: every
    order's control block of the completeness sum is the same operator sum
    with its tuples relabeled, for any basis.  A basis whose channel is not
    trace preserving never reaches that check: its first output state fails
    ``SwitchOutput``'s trace check (InvalidStateError, exit 5 in ``main``).  Other pairs,
    for which the closed form is not claimed, only make the status
    ``divergent-block`` if they miss it.  The block checks and the oracle
    share one switch map, built after the inputs are drawn and dropped
    before the Kraus family is built.
    The sampled rate is enforced against the closed-form rate within CHI_TOL
    only when all order pairs are cyclically related.  Returns the report row.
    """
    import numpy as np
    started = time.perf_counter()
    m = orders.m_orders
    dim = basis.dim
    amplitudes = ControlAmplitudes.uniform(m)

    rng = NormalSource(seed)
    pure = np.zeros((dim, dim), dtype=complex)
    pure[0, 0] = 1.0
    inputs = [pure, random_density_matrix(dim, rng), np.eye(dim, dtype=complex) / dim]

    switch_map = _switch_map(orders, basis)
    # Each input's output states are released before the next stage.
    residual = np.zeros((m, m))
    for rho in inputs:
        block = _block_residual(orders, basis, amplitudes, rho, switch_map=switch_map)
        residual = np.maximum(residual, block)
    related = cyclic_pairs(orders)
    max_block_residual = float(residual[related].max())

    chi_oracle = holevo_oracle(orders, basis, seed=seed, switch_map=switch_map)
    del switch_map
    # Order l's block of sum_t K_t^dagger K_t is the first order's sum with its
    # tuples relabeled (t -> t o sigma_l is a bijection), so one order's family covers all.
    first = OrderSet(orders=orders.orders[:1])
    kraus_residual = check_completeness(build_switch_kraus(first, basis))
    chi_analytic = holevo(m, dim).chi

    failed = (
        max(max_block_residual, kraus_residual) >= BLOCK_TOL
        or (related.all() and abs(chi_analytic - chi_oracle) >= CHI_TOL)
    )
    if failed:
        status = "fail"
    else:
        status = "divergent-block" if (residual[~related] > BLOCK_TOL).any() else "pass"
    return {
        "n_channels": orders.n_channels,
        "dim": dim,
        "orders_mode": mode,
        "orders": [list(o) for o in orders.orders],
        "max_block_residual": max_block_residual,
        "kraus_residual": kraus_residual,
        "chi_analytic": chi_analytic,
        "chi_oracle": chi_oracle,
        "status": status,
        "wall_time_s": time.perf_counter() - started,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    # random.Random seeds from |seed|, so -s would silently repeat s.
    _integer("--seed", args.seed, 0)
    if args.mode != "explicit" and args.perms is not None:
        raise DomainError(f"--perms needs --mode explicit, not --mode {args.mode}")
    perms = parse_permutations(args.perms) if args.perms else None
    # Repeated --dim and --channels values run once, in first-seen order.
    bases = [weyl_basis(d) for d in dict.fromkeys(parse_int_list(args.dim))]
    if args.mode == "explicit":
        if perms is None or args.channels is not None:
            raise DomainError("explicit mode needs --perms and takes no --channels")
        # Validating the parsed tuples builds nothing new, so a ragged,
        # duplicated or non-permutation set is an argument error first.
        given = OrderSet(orders=perms)
        shapes = [(given.n_channels, given.m_orders)]
        build = lambda n: given
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
    print(json.dumps({"rows": rows, "meta": _meta(args.seed)}))
    return 1 if any(r["status"] == "fail" for r in rows) else 0


def cmd_limit(args: argparse.Namespace) -> int:
    dim = args.dim
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
        code = args.func(args)
        # Buffered output meets a closed reader here, not at interpreter exit.
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        print("switchcap: interrupted", file=sys.stderr)
        return 130
    except SizeGuardError as exc:
        print(f"switchcap: size guard: {exc}", file=sys.stderr)
        return 4
    except (NotHermitianError, NoConvergenceError, InvalidSpectrumError, InvalidStateError) as exc:
        print(f"switchcap: numerical failure: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"switchcap: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # Unread rows stay buffered; the flush at exit would turn 3 into 120.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"switchcap: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
