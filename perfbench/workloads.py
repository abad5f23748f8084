"""The benchmark's workloads and the correctness gate applied to each request.

Each workload is one switchcap CLI request, repeated in a closed loop by one
client.  The three named workloads load different layers:

* ``verify-allorders`` (N=4, d=2, all 24 orders): 48x48 joint states, 256
  Kraus tuples, 65 oracle states.  Most of its time is in the eigensolver of
  ``linalg``, so an eigensolver change shows here.
* ``verify-widekraus`` (N=4, d=3, 4 cyclic orders): 12x12 states, 6561 Kraus
  tuples.  Most of its time is in the block contraction of ``switch``; it
  loads ``switch`` in the opposite shape (few orders, many tuples), and every
  pair of orders is cyclic, so chi is checked against the closed form.
* ``grid-sweep`` (dims 2..16 x orders 1..20000 to CSV): 300 000 closed-form
  points.  It touches only ``capacity`` and the ``cli`` formatting and write,
  so it bypasses every simulator change.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from oracle import oracle_chi, order_set

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

KRAUS_RESIDUAL_TOL = 1e-12
BLOCK_RESIDUAL_TOL = 1e-10
CHI_CLOSED_FORM_TOL = 1e-6
CHI_REFERENCE_TOL = 1e-9
SWEEP_RELATIVE_TOL = 1e-11
# ``verify --samples`` default, which the requests leave unset.
ORACLE_SAMPLES = 64


@dataclass(frozen=True)
class VerifyWorkload:
    """``switchcap verify`` for one (N, d, order mode) case."""

    name: str
    channels: int
    dim: int
    mode: str
    statuses: tuple[str, ...]
    # Every pair of orders is cyclic, so chi has a closed form to match.
    closed_form: bool

    seeded = True
    points_per_request = 1

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [
            "verify",
            "--channels", str(self.channels),
            "--dim", str(self.dim),
            "--mode", self.mode,
            "--seed", str(seed),
        ]

    def gate(self, seed: int, outdir: Path) -> "VerifyGate":
        return VerifyGate(self, seed)


@dataclass(frozen=True)
class SweepWorkload:
    """``switchcap sweep`` over a dims x orders grid, written as CSV."""

    name: str
    dims: tuple[int, int]
    orders: tuple[int, int]

    seeded = False

    @property
    def points_per_request(self) -> int:
        return (self.dims[1] - self.dims[0] + 1) * (self.orders[1] - self.orders[0] + 1)

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [
            "sweep",
            "--dims", f"{self.dims[0]}..{self.dims[1]}",
            "--orders", f"{self.orders[0]}..{self.orders[1]}",
            "--format", "csv",
            "--out", str(outdir / "grid.csv"),
            "--seed", str(seed),
        ]

    def gate(self, seed: int, outdir: Path) -> "SweepGate":
        return SweepGate(self, outdir / "grid.csv")


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("verify-allorders", 4, 2, "all", ("pass", "divergent-block"), False),
        VerifyWorkload("verify-widekraus", 4, 3, "cyclic", ("pass",), True),
        SweepWorkload("grid-sweep", dims=(2, 16), orders=(1, 20000)),
    )
}


def _number(row: dict, key: str) -> float:
    value = row.get(key)
    return float(value) if isinstance(value, (int, float)) else math.nan


class VerifyGate:
    """Checks one verify report against an independent recomputation of chi."""

    def __init__(self, workload: VerifyWorkload, seed: int) -> None:
        from switchcap.capacity import holevo

        self.workload = workload
        orders = order_set(workload.channels, workload.mode)
        self.chi_reference = oracle_chi(orders, workload.dim, ORACLE_SAMPLES, seed)
        key = f"{workload.channels},{workload.dim},{workload.mode}"
        self.chi_recorded = REFERENCES["verify_chi_oracle"].get(key, {}).get(str(seed))
        self.chi_closed_form = (
            holevo(len(orders), workload.dim).chi if workload.closed_form else None
        )

    def check(self, record: dict) -> list[str]:
        """Problems found in one request's record; empty when it passed."""
        if record["rc"] != 0:
            return [f"exit code {record['rc']}"]
        try:
            rows = json.loads(record["stdout"])["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]
        if len(rows) != 1:
            return [f"expected one report row, got {len(rows)}"]
        row = rows[0]
        problems = []
        if row.get("status") not in self.workload.statuses:
            problems.append(f"status {row.get('status')!r}")
        for key, tol in (
            ("kraus_residual", KRAUS_RESIDUAL_TOL),
            ("max_block_residual", BLOCK_RESIDUAL_TOL),
        ):
            if not _number(row, key) < tol:
                problems.append(f"{key} {row.get(key)!r}")
        chi = _number(row, "chi_oracle")
        expected = [(self.chi_reference, CHI_REFERENCE_TOL, "independent oracle")]
        if self.chi_recorded is not None:
            expected.append((self.chi_recorded, CHI_REFERENCE_TOL, "recorded reference"))
        if self.chi_closed_form is not None:
            expected.append((self.chi_closed_form, CHI_CLOSED_FORM_TOL, "closed form"))
        for value, tol, label in expected:
            if not abs(chi - value) < tol:
                problems.append(f"chi_oracle {chi!r} vs {label} {value!r}")
        return problems


class SweepGate:
    """Checks one sweep CSV: shape, order, recorded rows, repeatability."""

    def __init__(self, workload: SweepWorkload, path: Path) -> None:
        self.workload = workload
        self.path = path
        self.digest: str | None = None

    def check(self, record: dict) -> list[str]:
        """Problems found in one request's output; empty when it passed.

        The output file is removed afterwards, so a later request that
        writes nothing cannot be judged on stale bytes.
        """
        if record["rc"] != 0:
            return [f"exit code {record['rc']}"]
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            return [f"unreadable output: {exc!r}"]
        self.path.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            if digest != self.digest:
                return ["output differs from the first request of this run"]
            return []
        problems = self._check_csv(data.decode("utf-8", errors="replace"))
        if not problems:
            self.digest = digest
        return problems

    def _check_csv(self, text: str) -> list[str]:
        lines = text.split("\n")
        if lines[-1] != "":
            return ["output does not end with a newline"]
        if lines[0] != REFERENCES["sweep_header"]:
            return [f"header {lines[0]!r}"]
        rows = lines[1:-1]
        d0, d1 = self.workload.dims
        m0, m1 = self.workload.orders
        if len(rows) != self.workload.points_per_request:
            return [f"{len(rows)} rows, expected {self.workload.points_per_request}"]
        # Rows sorted by (dim, m_orders): row k holds exactly this point.
        keys = (f"{m},{d}," for d in range(d0, d1 + 1) for m in range(m0, m1 + 1))
        for k, (row, key) in enumerate(zip(rows, keys)):
            if not row.startswith(key):
                return [f"row {k} is {row!r}, expected point {key[:-1]}"]
        problems = []
        spot_checked = 0
        for key, expected in REFERENCES["sweep_rows"].items():
            m, d = (int(v) for v in key.split(","))
            if not (d0 <= d <= d1 and m0 <= m <= m1):
                continue
            spot_checked += 1
            row = rows[(d - d0) * (m1 - m0 + 1) + (m - m0)]
            try:
                values = [float(v) for v in row.split(",")[2:]]
            except ValueError:
                values = []
            if len(values) != len(expected):
                problems.append(f"row {key} is {row!r}")
                continue
            for got, want in zip(values, expected):
                if not abs(got - want) <= SWEEP_RELATIVE_TOL * abs(want):
                    problems.append(f"row {key}: {got!r} vs recorded {want!r}")
        if not spot_checked:
            problems.append("no recorded row lies inside the grid")
        return problems
