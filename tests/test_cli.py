"""Tests for the command-line interface."""

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import switchcap
import switchcap.cli as cli_module
import switchcap.switch as switch_module
from switchcap.capacity import holevo
from switchcap.channels import UnitaryBasis, weyl_basis
from switchcap.cli import (
    BLOCK_TOL,
    CSV_HEADER,
    ORDER_RANGE,
    _GRID_CHUNK,
    _NUMPY_GRID_POINTS,
    _grid_lines,
    main,
    parse_int_list,
    parse_permutations,
    run_verify_case,
)
from switchcap.errors import (
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    SizeGuardError,
)
from switchcap.switch import (
    OrderSet,
    all_orders,
    check_size_guard,
    cyclic_orders,
    cyclic_pairs,
    cyclically_related,
)


def mixed_reports():
    """Mixed grid points: a single order, tiny and huge M, the smallest and largest d.

    Built in the test that asks, not at import, so a fault in ``holevo``
    fails those tests instead of the collection of the module.
    """
    return [holevo(m, d) for d in (2, 3, 16, 64) for m in (1, 2, 3, 7, 1000, 10**6)]

# Two orders of 520 channels, forward and reversed, as --perms takes them.
WIDE_PAIR = ";".join(",".join(map(str, order)) for order in (range(520), range(519, -1, -1)))


def random_order_subsets():
    """120 seeded subsets of the permutations of 3 to 6 channels, each in a shuffled order."""
    rng = random.Random(2020)
    subsets = []
    for _ in range(120):
        perms = list(itertools.permutations(range(rng.randint(3, 6))))
        size = rng.randint(1, min(len(perms), 40))
        subsets.append(OrderSet(orders=tuple(rng.sample(perms, size))))
    return subsets


def template_fields(reports):
    """One grid chunk: the reports' fields, flat in template column order."""
    return [x for r in reports for x in (r.m_orders, r.dim, r.chi, r.s_min, r.s_control)]


def csv_reference(reports):
    """The CSV document, one format(x, ".12g") per float field."""
    rows = [
        ",".join(
            [str(r.m_orders), str(r.dim)]
            + [format(x, ".12g") for x in (r.chi, r.s_min, r.s_control)]
        )
        + "\n"
        for r in reports
    ]
    return "".join([CSV_HEADER + "\n", *rows])


def json_reference(reports, seed):
    """The JSON document as json.dumps writes it, with one trailing newline."""
    rows = [
        {
            "m_orders": r.m_orders,
            "dim": r.dim,
            "chi_bits": r.chi,
            "s_min_bits": r.s_min,
            "s_control_bits": r.s_control,
        }
        for r in reports
    ]
    meta = {"seed": seed, "version": switchcap.__version__}
    return json.dumps({"rows": rows, "meta": meta}) + "\n"


def text_reference(reports):
    """The text table in f-string columns."""
    head = f"{'m_orders':>8} {'dim':>4} {'chi_bits':>9} {'s_min_bits':>12} {'s_control_bits':>15}\n"
    rows = [
        f"{r.m_orders:>8} {r.dim:>4} {r.chi:>9.4f} {r.s_min:>12.6f} {r.s_control:>15.6f}\n"
        for r in reports
    ]
    return "".join([head, *rows])


PRINTED_RATES = [
    "0.0488",
    "0.0817",
    "0.1058",
    "0.1245",
    "0.1395",
    "0.0183",
    "0.0326",
    "0.0441",
    "0.0537",
    "0.0619",
]


class TestParsing:
    def test_comma_list(self):
        assert parse_int_list("2,3,5") == (2, 3, 5)

    def test_range(self):
        assert parse_int_list("2..6") == (2, 3, 4, 5, 6)

    def test_mixed(self):
        assert parse_int_list("1,4..6") == (1, 4, 5, 6)

    def test_empty_rejected(self):
        with pytest.raises((DomainError, ValueError)):
            parse_int_list(" , ")

    def test_huge_range_rejected_before_expanding(self):
        started = time.perf_counter()
        with pytest.raises(DomainError):
            parse_int_list("1..1000000000000")
        assert time.perf_counter() - started < 1.0

    def test_range_bound_counts_earlier_items(self):
        assert len(parse_int_list(f"1..{ORDER_RANGE[1]}")) == ORDER_RANGE[1]
        with pytest.raises(DomainError):
            parse_int_list(f"0,1..{ORDER_RANGE[1]}")

    def test_permutations(self):
        assert parse_permutations("0,1,2;1,0,2") == ((0, 1, 2), (1, 0, 2))

    def test_no_permutations_rejected(self, capsys):
        with pytest.raises(DomainError, match="no permutations"):
            parse_permutations(";")
        assert main(["verify", "--mode", "explicit", "--perms", ";"]) == 2
        assert capsys.readouterr().err.startswith("switchcap: invalid arguments: ")


class TestTable:
    def test_reference_rates_as_printed(self, capsys):
        assert main(["table", "--dims", "2,3", "--orders", "2..6"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 11  # header + 10 rows
        for value in PRINTED_RATES:
            assert value in out

    def test_single_order_rate_is_zero(self, capsys):
        assert main(["table", "--dims", "2", "--orders", "1"]) == 0
        assert "0.0000" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["table", "--dims", "3", "--orders", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["seed"] == 42
        assert doc["meta"]["version"]
        (row,) = doc["rows"]
        assert row["m_orders"] == 5 and row["dim"] == 3
        assert row["chi_bits"] == pytest.approx(0.0537, abs=1e-4)

    def test_csv_format(self, capsys):
        assert main(["table", "--dims", "2", "--orders", "2,3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_invalid_dimension_range(self, capsys):
        assert main(["table", "--dims", "1", "--orders", "2"]) == 2
        assert main(["table", "--dims", "65", "--orders", "2"]) == 2
        assert "dimension 65 outside [2, 64]" in capsys.readouterr().err
        assert main(["table", "--dims", "2", "--orders", "0"]) == 2

    def test_dimension_bound_is_capacitys(self, capsys, monkeypatch):
        # the grid reads the one bound every closed form enforces, and
        # refuses before the header is written
        monkeypatch.setattr("switchcap.capacity.DIM_RANGE", (2, 8))
        assert main(["table", "--dims", "9", "--orders", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "switchcap: invalid arguments: dimension 9 outside [2, 8]\n"

    @pytest.mark.parametrize(
        ("dims", "orders", "message"),
        [
            ("5,1,70,0", "2", "dimension 0 outside [2, 64]"),
            ("70,5,80", "2", "dimension 80 outside [2, 64]"),
            ("2", "3,0,2000000,-4", "order count -4 outside [1, 1000000]"),
            ("2", "3,2000000,1000001", "order count 2000000 outside [1, 1000000]"),
        ],
        ids=["dims-below-and-above", "dims-above", "orders-below-and-above", "orders-above"],
    )
    def test_out_of_range_axis_names_its_extreme(self, capsys, dims, orders, message):
        # each sorted axis is checked at its ends, the lower end first
        assert main(["table", "--dims", dims, "--orders", orders]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"switchcap: invalid arguments: {message}\n"

    def test_unknown_flag(self):
        assert main(["table", "--bogus"]) == 2


class TestSweep:
    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (
                ["sweep", "--dims", "2..16", "--orders", "1..2000"],
                "b913f3d5abdcab3cbd52fe08dea69a52f3ebb5c225a213caf5c256c7a2a0c8dc",
            ),
            (
                ["table", "--dims", "2..16", "--orders", "1..2000"],
                "7ca2805dbc1f957e9c6f488a77c5bf9230b712ac074349f5c369c62829072d85",
            ),
            (
                ["sweep", "--dims", "2..16", "--orders", "1..2000", "--format", "json"],
                "3691cb7a9f691f97789faf19ee2b988c4dddc0528be74e845312913eda61dcb1",
            ),
            (
                ["sweep", "--dims", "2..64", "--orders", "1..300,999999"],
                "35a1378f2de1f81c3be5ff167b9993a8db4c65eb9861e4a2184eb32afb6121b7",
            ),
            (
                ["sweep", "--dims", "2..64", "--orders", "1..300,999999", "--format", "json"],
                "31a77616fd1cc88092d02b794897895848f76d8f6d9a95edb590aadd4e526ff0",
            ),
            (
                ["sweep", "--dims", "2..16", "--orders", "1..20000"],
                "d3f6a4c5b1c02318683d4c1e8b4608adf086fca79da7864969b5da24eb523dd1",
            ),
        ],
        ids=["csv", "text", "json", "wide-csv", "wide-json", "benchmark-csv"],
    )
    def test_document_digests(self, capsys, argv, digest):
        # the grid documents byte for byte; this test is the one owner of
        # these digests.  The 2..16 x 1..2000 grids cross dozens of the
        # writer's _GRID_CHUNK-row chunks; the wide grids reach every dimension
        # and the far end of the order range, where cancellation moves the
        # last digits most.  The 300 000-point benchmark grid (15 414 123
        # bytes, pinned from the per-point route) is above _NUMPY_GRID_POINTS,
        # so it is computed by capacity._holevo_block
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_csv_file_output(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["sweep", "--dims", "2..6", "--orders", "2,3,6", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 16  # header + 5 dims x 3 orders
        keys = []
        for line in lines[1:]:
            m, d, chi, smin, scontrol = line.split(",")
            keys.append((int(d), int(m)))
            assert float(chi) == pytest.approx(holevo(int(m), int(d)).chi, rel=1e-11)
        assert keys == sorted(keys)

    def test_byte_stable(self, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv")]
        for path in paths:
            assert main(["sweep", "--dims", "2,3", "--orders", "2..9", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_duplicates_and_input_order_do_not_matter(self, tmp_path):
        messy, clean = tmp_path / "messy.csv", tmp_path / "clean.csv"
        assert main(["sweep", "--dims", "3,2,3", "--orders", "6,2,6,3", "--out", str(messy)]) == 0
        assert main(["sweep", "--dims", "2,3", "--orders", "2,3,6", "--out", str(clean)]) == 0
        assert messy.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "table"])
    def test_one_holevo_call_per_distinct_point(self, capsys, monkeypatch, command):
        # the benchmark's tracer counts cli.holevo calls and spans, one per point
        argv = [command, "--dims", "3,2,3", "--orders", "5,1..3,5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        calls = []

        def recorded(m, d):
            calls.append((m, d))
            return holevo(m, d)

        monkeypatch.setattr("switchcap.cli.holevo", recorded)
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert calls == [(m, d) for d in (2, 3) for m in (1, 2, 3, 5)]

    @staticmethod
    def _table_matches_sweep(tmp_path, capsys, fmt):
        grid = ["--dims", "2..4", "--orders", "1,5..7", "--format", fmt]
        out = tmp_path / f"grid.{fmt}"
        assert main(["sweep", *grid, "--out", str(out)]) == 0
        assert main(["table", *grid]) == 0
        # both end with one newline, after the last row or the JSON document
        assert capsys.readouterr().out == out.read_text()

    def test_table_csv_matches_sweep_csv(self, tmp_path, capsys):
        self._table_matches_sweep(tmp_path, capsys, "csv")

    def test_table_json_matches_sweep_json(self, tmp_path, capsys):
        self._table_matches_sweep(tmp_path, capsys, "json")

    def test_csv_rows_match_format_per_field(self):
        reports = mixed_reports()
        lines = list(_grid_lines("csv", [template_fields(reports)], 42))
        assert "".join(lines).encode() == csv_reference(reports).encode()
        # a single order transmits nothing, written as a bare 0
        assert lines[1].startswith("1,2,0,")

    def test_json_rows_match_json_dumps(self):
        reports = mixed_reports()
        streamed = "".join(_grid_lines("json", [template_fields(reports)], 7))
        assert streamed.encode() == json_reference(reports, 7).encode()
        # NumPy floats, as a vectorized grid would yield, write the same bytes
        as_numpy = [type(r)(r.m_orders, r.dim, *map(np.float64, r[2:])) for r in reports]
        assert "".join(_grid_lines("json", [template_fields(as_numpy)], 7)) == streamed

    def test_text_rows_match_fstring_columns(self):
        reports = mixed_reports()
        streamed = "".join(_grid_lines("text", [template_fields(reports)], 42))
        assert streamed.encode() == text_reference(reports).encode()

    @pytest.mark.parametrize(
        ("dims", "orders"),
        [
            ("2", "1"),
            ("2", f"1..{_GRID_CHUNK - 1}"),
            ("2", f"1..{_GRID_CHUNK}"),
            ("2", f"1..{_GRID_CHUNK + 1}"),
            ("2,3", f"1..{_GRID_CHUNK + 2}"),
            ("2..64", "1..3"),
        ],
        ids=["1", "chunk-less-one", "chunk", "chunk-and-one", "two-dims", "many-dims"],
    )
    def test_chunk_boundaries(self, tmp_path, capsys, monkeypatch, dims, orders):
        # one row, a chunk less one row, a whole chunk, a chunk and one row,
        # two dimensions across three chunk boundaries, and 63 dimensions of
        # three rows each, on each route; both routes chunk each dimension
        dim_list, order_list = parse_int_list(dims), parse_int_list(orders)
        reports = [holevo(m, d) for d in dim_list for m in order_list]
        grid = ["--dims", dims, "--orders", orders, "--seed", "11"]
        references = {
            "csv": csv_reference(reports),
            "json": json_reference(reports, 11),
            "text": text_reference(reports),
        }
        chunks = len(dim_list) * -(-len(order_list) // _GRID_CHUNK)
        routes = {"holevo": 10**9, "block": 1}
        for (route, threshold), (fmt, reference) in itertools.product(
            routes.items(), references.items()
        ):
            with monkeypatch.context() as patch:
                calls = self._counted_routes(patch, threshold)
                pieces = self._recorded_pieces(patch)
                commands = [["table", *grid, "--format", fmt]]
                if fmt != "text":
                    out = tmp_path / f"grid.{fmt}"
                    commands.append(["sweep", *grid, "--format", fmt, "--out", str(out)])
                for argv in commands:
                    pieces.clear()
                    assert main(argv) == 0
                    written = capsys.readouterr().out if argv[0] == "table" else out.read_text()
                    assert written.encode() == reference.encode()
                    # the head, one string per chunk, and the JSON tail
                    assert len(pieces) == 1 + chunks + (fmt == "json")
            assert [name for name, count in calls.items() if count] == [route]

    @staticmethod
    def _recorded_pieces(monkeypatch):
        # every string cmd_grid writes, in order
        pieces = []
        grid_lines = cli_module._grid_lines

        def recorded(*args):
            for piece in grid_lines(*args):
                pieces.append(piece)
                yield piece

        monkeypatch.setattr("switchcap.cli._grid_lines", recorded)
        return pieces

    @pytest.mark.parametrize(
        ("command", "fmt"),
        [
            ("table", "text"),
            ("table", "csv"),
            ("table", "json"),
            ("sweep", "csv"),
            ("sweep", "json"),
        ],
    )
    def test_every_document_ends_with_one_newline(self, capsys, command, fmt):
        assert main([command, "--dims", "2,3", "--orders", "1,4", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert len(out.splitlines()) == (1 if fmt == "json" else 5)

    def test_invalid_grid_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        for grid in (("2", "0..3"), ("2", "1000001"), ("1", "2")):
            assert main(["sweep", "--dims", grid[0], "--orders", grid[1], "--out", str(out)]) == 2
            assert not out.exists()

    @staticmethod
    def _counted_routes(monkeypatch, threshold):
        # calls to each route's function while cli._NUMPY_GRID_POINTS is threshold
        monkeypatch.setattr("switchcap.cli._NUMPY_GRID_POINTS", threshold)
        calls = {"holevo": 0, "block": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr("switchcap.cli.holevo", counted("holevo", cli_module.holevo))
        block = cli_module._holevo_block
        monkeypatch.setattr("switchcap.cli._holevo_block", counted("block", block))
        return calls

    @pytest.mark.parametrize(
        ("threshold", "expected"),
        [(18, {"holevo": 0, "block": 2}), (19, {"holevo": 18, "block": 0})],
    )
    def test_route_follows_distinct_points(self, capsys, monkeypatch, threshold, expected):
        # 54 points as given, 18 distinct: a grid of at least the threshold
        # makes one block call per dimension, a smaller one a call per point
        argv = ["table", "--dims", "2,3,2", "--orders", "1..9,1..9"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        calls = self._counted_routes(monkeypatch, threshold)
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert calls == expected

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_block_route_writes_the_per_point_bytes(self, capsys, monkeypatch, fmt):
        # two whole chunks and one row of orders, the far end of the order
        # range and the largest dimension, on each route
        orders = f"1..{2 * _GRID_CHUNK + 1},999999"
        argv = ["table", "--dims", "2,3,64", "--orders", orders, "--format", fmt]
        documents = []
        for threshold, route in ((1, "block"), (10**9, "holevo")):
            with monkeypatch.context() as patch:
                calls = self._counted_routes(patch, threshold)
                assert main(argv) == 0
            documents.append(capsys.readouterr().out)
            assert [name for name, count in calls.items() if count] == [route]
        assert documents[0] == documents[1]

    @pytest.mark.parametrize(
        ("argv", "seed"),
        [
            (["table", "--format", "json", "--seed", "-1"], -1),
            (["sweep", "--dims", "2", "--orders", "2", "--seed", "-5", "--out", "never.csv"], -5),
        ],
        ids=["table", "sweep"],
    )
    def test_negative_seed_is_argument_error_before_any_row(
        self, tmp_path, capsys, monkeypatch, argv, seed
    ):
        # the message verify gives, and no row or --out file is written
        def never(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr("switchcap.cli.holevo", never)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"switchcap: invalid arguments: --seed must be at least 0, got {seed}\n"
        )

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        self._memory_does_not_grow(tmp_path, monkeypatch, "sweep", "csv")

    def test_table_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        self._memory_does_not_grow(tmp_path, monkeypatch, "table", "csv")

    @pytest.mark.parametrize(
        ("command", "fmt"), [("table", "text"), ("table", "json"), ("sweep", "json")]
    )
    def test_text_and_json_memory_does_not_grow(self, tmp_path, monkeypatch, command, fmt):
        self._memory_does_not_grow(tmp_path, monkeypatch, command, fmt)

    def test_numpy_route_memory_does_not_grow(self, tmp_path, monkeypatch):
        # the smallest 15-dimension grid the block route takes; numpy is
        # already loaded here, so its import is not counted
        orders = -(-_NUMPY_GRID_POINTS // 15)
        self._memory_does_not_grow(tmp_path, monkeypatch, "sweep", "csv", orders)

    @staticmethod
    def _memory_does_not_grow(tmp_path, monkeypatch, command, fmt, orders=2000):
        # 15 x orders points, 30 000 by default; rows are written as they are
        # computed, not held.  stdout goes to a file, so captured output is
        # not counted as held.
        monkeypatch.chdir(tmp_path)
        argv = [command, "--format", fmt, "--dims", "2..16", "--orders", f"1..{orders}"]
        if command == "sweep":
            argv += ["--out", "grid.out"]
        with open("stdout.txt", "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
            patch.setattr("sys.stdout", stdout)
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20
        text = (tmp_path / ("grid.out" if command == "sweep" else "stdout.txt")).read_text()
        if fmt == "json":
            assert len(json.loads(text)["rows"]) == 15 * orders
        else:
            assert text.count("\n") == 1 + 15 * orders

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        ("argv", "taken"),
        [
            # 4 MB of JSON: the reader stops after 10 bytes and breaks the
            # pipe mid-grid, with rows still waiting in stdout's buffer.
            (["sweep", "--dims", "2..16", "--orders", "1..2000", "--format", "json"], 10),
            # a table small enough to sit in the buffer until main flushes it
            (["table"], 0),
            # the largest per-point grid, 199 995 points just below the numpy
            # threshold: the reader takes the CSV header line and closes
            (["sweep", "--dims", "2..16", "--orders", "1..13333"], len(CSV_HEADER) + 1),
        ],
        ids=["json-sweep", "small-table", "csv-sweep-one-line"],
    )
    def test_reader_closing_early_is_an_io_error(self, argv, taken, unbuffered):
        # One stderr line and exit 3, not a second error at exit (status 120).
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        src = str(Path(switchcap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "switchcap.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert len(proc.stdout.read(taken)) == taken
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert (code, err) == (3, "switchcap: i/o error: [Errno 32] Broken pipe\n")

    def test_monotone_approach_to_saturation(self, tmp_path):
        out = tmp_path / "sat.csv"
        code = main(
            ["sweep", "--dims", "2", "--orders", "2,10,100,1000,10000", "--out", str(out)]
        )
        assert code == 0
        chis = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert chis == sorted(chis)
        assert 0.304 < chis[-1] < 0.3113

    def test_json_to_stdout(self, capsys):
        assert main(["sweep", "--dims", "2", "--orders", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["chi_bits"] == pytest.approx(0.0488, abs=1e-4)

    def test_empty_dims_is_argument_error(self, capsys):
        # parse_int_list refuses an empty list, for dims and orders alike
        assert main(["sweep", "--dims", ",", "--orders", "2"]) == 2
        assert "no integers in ','" in capsys.readouterr().err
        assert main(["table", "--dims", "2", "--orders", " , "]) == 2
        assert "no integers in ' , '" in capsys.readouterr().err

    def test_unwritable_path(self, capsys):
        code = main(
            ["sweep", "--dims", "2", "--orders", "2", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 3


class TestVerify:
    def test_cyclic_two_channels(self, capsys):
        assert main(["verify", "--channels", "2", "--dim", "2", "--mode", "cyclic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (row,) = doc["rows"]
        assert "passed" not in row
        assert row["status"] == "pass"
        assert row["max_block_residual"] < 1e-12
        assert row["kraus_residual"] < 1e-12
        assert row["chi_analytic"] == pytest.approx(0.0488, abs=1e-4)
        assert abs(row["chi_analytic"] - row["chi_oracle"]) < 1e-6
        assert "divergent_pairs" not in row

    def test_multiple_cases_fan_out(self, capsys):
        code = main(
            ["verify", "--channels", "2,3", "--dim", "2,3", "--mode", "cyclic"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 4
        assert all(r["status"] == "pass" for r in doc["rows"])

    def test_all_orders_three_channels_is_informational(self, capsys):
        assert main(["verify", "--channels", "3", "--dim", "2", "--mode", "all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (row,) = doc["rows"]
        assert row["status"] == "divergent-block"
        # cyclically related pairs still reproduce the closed form
        assert row["max_block_residual"] < 1e-12
        assert row["kraus_residual"] < 1e-12
        # the other pairs are measured but not listed
        assert "divergent_pairs" not in row

    @pytest.mark.parametrize(
        "argv",
        [
            ["--channels", "4"],
            ["--channels", "3", "--mode", "all"],
            ["--mode", "explicit", "--perms", "0,1,2;1,2,0"],
            ["--mode", "explicit", "--perms", "0,1,2;1,0,2"],
        ],
        ids=["cyclic-4", "all-3", "explicit-related", "explicit-unrelated"],
    )
    def test_divergent_status_iff_some_pair_is_unrelated(self, capsys, argv):
        # under the Weyl basis every unrelated pair misses the closed form
        assert main(["verify", *argv]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        orders = [tuple(o) for o in row["orders"]]
        unrelated = any(not cyclically_related(a, b) for a in orders for b in orders)
        assert row["status"] == ("divergent-block" if unrelated else "pass")

    @pytest.mark.parametrize(
        "orders",
        [
            *(all_orders(n) for n in range(2, 6)),
            *(cyclic_orders(n) for n in range(2, 10)),
            *random_order_subsets(),
            OrderSet(orders=tuple(itertools.permutations(range(6)))[::2]),
            OrderSet(orders=((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 2, 3), (3, 1, 0, 2), (0, 2, 1, 3))),
            # the identity, its one-step rotation and its reversal, past the
            # int64 range of _relative_orders' base-N keys
            *(OrderSet(orders=(tuple(range(n)), (*range(1, n), 0), tuple(range(n))[::-1]))
              for n in (16, 20)),
        ],
        ids=[
            *(f"all-{n}" for n in range(2, 6)),
            *(f"cyclic-{n}" for n in range(2, 10)),
            *(f"random-{k}" for k in range(120)),
            "every-second-6",
            "mixed",
            "wide-16",
            "wide-20",
        ],
    )
    def test_cyclic_mask_matches_pairwise_relation(self, orders):
        pairs = orders.orders
        pairwise = [[cyclically_related(a, b) for b in pairs] for a in pairs]
        assert cyclic_pairs(orders).tolist() == pairwise

    def test_explicit_subset_of_a_cyclic_class(self, capsys):
        # two cyclically related orders of three channels behave like M=2
        code = main(
            ["verify", "--mode", "explicit", "--perms", "0,1,2;1,2,0", "--dim", "2"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "pass"
        assert row["chi_analytic"] == pytest.approx(holevo(2, 2).chi, abs=1e-12)
        assert abs(row["chi_analytic"] - row["chi_oracle"]) < 1e-6

    def test_explicit_non_cyclic_pair(self, capsys):
        code = main(
            ["verify", "--mode", "explicit", "--perms", "0,1,2;1,0,2", "--dim", "2"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "divergent-block"
        assert "divergent_pairs" not in row

    @pytest.mark.parametrize(
        "argv", [["--channels", "2,3", "--dim", "2,3"], ["--channels", "4", "--mode", "all"]]
    )
    def test_output_is_deterministic_apart_from_wall_time(self, capsys, argv):
        docs = []
        for _ in range(2):
            assert main(["verify", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            for row in doc["rows"]:
                del row["wall_time_s"]
            docs.append(json.dumps(doc))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("argv", [["--tol", "1e-8"], ["--chi-tol", "1e-3"], ["--samples", "8"]])
    def test_verify_tuning_flags_are_gone(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr("switchcap.cli.run_verify_case", never)
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr().out == ""

    def test_incomplete_kraus_set_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("switchcap.cli.check_completeness", lambda kraus: 1e-9)
        assert main(["verify", "--channels", "2"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["kraus_residual"] == 1e-9
        assert row["status"] == "fail"

    @pytest.mark.parametrize(
        "argv, cases",
        [
            (["--channels", "2,2", "--dim", "2,2"], [(2, 2)]),
            (["--channels", "3,2,3", "--dim", "3,2"], [(3, 3), (3, 2), (2, 3), (2, 2)]),
        ],
    )
    def test_repeated_cases_run_once(self, capsys, argv, cases):
        assert main(["verify", *argv]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["n_channels"], r["dim"]) for r in rows] == cases

    def test_negative_seed_is_argument_error_before_any_case(self, capsys, monkeypatch):
        # random.Random(-1) would draw the states of seed 1
        def never(*args, **kwargs):
            raise AssertionError("a case started")

        monkeypatch.setattr("switchcap.cli.check_size_guard", never)
        monkeypatch.setattr("switchcap.cli.run_verify_case", never)
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "switchcap: invalid arguments: --seed must be at least 0, got -1\n"

    def test_request_does_not_import_numpy_random(self):
        # the seeded draws come from the stdlib generator, loaded at start-up
        script = (
            "import contextlib, io, sys\n"
            "import switchcap\n"
            "loaded = ['numpy.random' in sys.modules]\n"
            "import switchcap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = switchcap.cli.main(['verify', '--channels', '2'])\n"
            "loaded.append('numpy.random' in sys.modules)\n"
            "print(code, loaded)\n"
        )
        env = dict(os.environ)
        src = str(Path(switchcap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.stdout == "0 [False, False]\n", done.stderr

    def test_explicit_mode_requires_perms(self, capsys):
        assert main(["verify", "--mode", "explicit", "--dim", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "cyclic", "--perms", "x"],
            ["--mode", "explicit", "--perms", "0,0"],
            ["--channels", "1"],
            ["--mode", "explicit", "--perms", "0,1", "--channels", "9"],
            ["--mode", "cyclic", "--perms", "0,1,2;1,0,2"],
            # invalid sets of 16 channels: the set is checked before the byte guard
            ["--mode", "explicit", "--perms", ",".join(map(str, range(16))) + ";1,0"],
            ["--mode", "explicit", "--perms", ";".join([",".join(map(str, range(16)))] * 2)],
            ["--mode", "explicit", "--perms", ",".join(map(str, range(15))) + ",99"],
        ],
    )
    def test_bad_order_set_is_argument_error(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr().out == ""

    def test_size_guard_exit_code(self, capsys, monkeypatch):
        self._size_guard(capsys, monkeypatch, ["--channels", "5", "--dim", "3", "--mode", "all"])

    def test_memory_stays_within_the_guard(self, capsys):
        # 120 orders of qubits: the oracle's 65 output states are taken one at
        # a time, and each stage's arrays are released before the next.  A
        # first request loads the modules numpy imports lazily.
        assert main(["verify"]) == 0
        tracemalloc.start()
        try:
            assert main(["verify", "--channels", "5", "--mode", "all"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * check_size_guard(5, 120, 2)

    def test_memory_of_two_cases_is_the_larger_guard(self, capsys):
        # each case drops its switch map before it builds its Kraus family,
        # and returns nothing that holds either, so no case's arrays outlive it
        assert main(["verify"]) == 0
        tracemalloc.start()
        try:
            assert main(["verify", "--channels", "4,5", "--mode", "all"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * max(check_size_guard(4, 24, 2), check_size_guard(5, 120, 2))

    @pytest.mark.parametrize(
        ("argv", "cases"),
        [
            ([], 1),
            (["--dim", "2,3"], 2),
            (["--channels", "3", "--mode", "all"], 1),
            (["--channels", "2,3", "--dim", "2,3"], 4),
        ],
    )
    def test_one_switch_map_per_case(self, capsys, monkeypatch, argv, cases):
        # the three block checks and the oracle of a case share one build
        contract, calls = switch_module._contract, []

        def counted(*args):
            calls.append(args)
            return contract(*args)

        monkeypatch.setattr("switchcap.switch._contract", counted)
        assert main(["verify", *argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == cases
        assert len(calls) == cases

    def test_case_releases_its_switch_map(self, monkeypatch):
        # nothing holds a case's map once its row is returned
        build, refs = switch_module._switch_map, []

        def recorded(orders, basis):
            switch_map = build(orders, basis)
            refs.append(weakref.ref(switch_map[0]))
            return switch_map

        monkeypatch.setattr("switchcap.cli._switch_map", recorded)
        assert run_verify_case(cyclic_orders(3), "cyclic", weyl_basis(2), 42)["status"] == "pass"
        gc.collect()
        assert len(refs) == 1
        assert refs[0]() is None

    def test_changed_basis_gets_its_own_map(self):
        # After a Weyl case on the same order set object, a changed basis
        # gets its own map.  One operator scaled by 1.001 gives outputs of
        # trace 1.001, which the state check refuses; a Weyl map left from
        # the case before would have given trace 1.  A unitary but
        # non-orthogonal operator keeps the Kraus sum complete, so only its
        # own map's blocks can make it fail.
        orders, weyl = cyclic_orders(2), weyl_basis(2)
        assert run_verify_case(orders, "cyclic", weyl, 42)["status"] == "pass"
        scaled = weyl.ops.copy()
        scaled[1] *= 1.001
        with pytest.raises(InvalidStateError, match="trace"):
            run_verify_case(orders, "cyclic", UnitaryBasis(dim=2, ops=scaled), 42)

        assert run_verify_case(orders, "cyclic", weyl, 42)["status"] == "pass"
        twisted = weyl.ops.copy()
        twisted[1] = twisted[1] @ np.diag([1.0, np.exp(1e-3j)])
        row = run_verify_case(orders, "cyclic", UnitaryBasis(dim=2, ops=twisted), 42)
        assert row["status"] == "fail"
        assert row["max_block_residual"] > BLOCK_TOL
        assert row["kraus_residual"] < 1e-12

    def test_completeness_builds_the_first_orders_family(self, monkeypatch):
        # every order's block of the completeness sum is the first order's
        # with its tuples relabeled, so a case builds one order's slab, not M
        build, calls = switch_module.build_switch_kraus, []

        def recorded(orders, basis):
            calls.append((orders, basis))
            return build(orders, basis)

        monkeypatch.setattr("switchcap.cli.build_switch_kraus", recorded)
        orders, basis = OrderSet(orders=((1, 2, 0), (0, 2, 1), (2, 1, 0))), weyl_basis(3)
        assert run_verify_case(orders, "explicit", basis, 42)["kraus_residual"] < 1e-12
        assert len(calls) == 1
        assert calls[0][0] == OrderSet(orders=orders.orders[:1])
        assert calls[0][1] is basis

    def test_wide_case_holds_two_family_slabs(self):
        # N=2, d=10: one order's slab is 16 d^(2N) d^2 = 16 MB, and the
        # first order's family holds it beside its product chain, where all
        # M = 2 orders' family held three slabs
        run_verify_case(cyclic_orders(2), "cyclic", weyl_basis(2), 42)
        orders, basis = cyclic_orders(2), weyl_basis(10)
        tracemalloc.start()
        try:
            run_verify_case(orders, "cyclic", basis, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * 10**4 * 10**2

    def test_four_channel_qutrits_over_all_orders(self, capsys):
        # the 24 orders at d = 3 fit the byte budget
        assert main(["verify", "--channels", "4", "--dim", "3", "--mode", "all"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["max_block_residual"] < 1e-10
        assert row["kraus_residual"] < 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ["--channels", "2,6", "--mode", "all"],
            ["--channels", "2", "--dim", "16"],
            ["--channels", "80"],
            ["--channels", "100000"],  # cyclic_orders would hold 10^10 integers
            # 4^520 bytes is past the largest float: the estimate must not overflow
            ["--mode", "explicit", "--perms", WIDE_PAIR],
            # 2N log10(d) would overflow a float: N is compared as an integer first
            ["--channels", str(10**400)],
        ],
    )
    def test_size_guard_before_building(self, capsys, monkeypatch, argv):
        self._size_guard(capsys, monkeypatch, argv)

    def test_case_past_the_relative_keys_meets_the_map_guard_first(self, monkeypatch):
        # _relative_orders keys each relative permutation by its base-N
        # digits, which pass an int64 at N = 16; _switch_map's byte guard
        # refuses that case before it runs
        def never(*args, **kwargs):
            raise AssertionError("the relative permutations were built")

        monkeypatch.setattr("switchcap.switch._relative_orders", never)
        with pytest.raises(SizeGuardError, match="N=16"):
            run_verify_case(cyclic_orders(16), "cyclic", weyl_basis(2), 42)

    @staticmethod
    def _size_guard(capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("an order set or a switch map was built")

        for name in ("cyclic_orders", "all_orders", "cyclic_pairs"):
            monkeypatch.setattr(f"switchcap.cli.{name}", never)
        monkeypatch.setattr("switchcap.switch._switch_map", never)
        monkeypatch.setattr("switchcap.cli._switch_map", never)
        started = time.perf_counter()
        assert main(["verify", *argv]) == 4
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("switchcap: size guard: ")

    @pytest.mark.parametrize(
        "error", [NoConvergenceError, NotHermitianError, InvalidSpectrumError, InvalidStateError]
    )
    def test_numerical_failure_exit_code(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr("switchcap.linalg.hermitian_spectrum", fail)
        monkeypatch.setattr("switchcap.switch.hermitian_spectrum", fail)
        assert main(["verify", "--channels", "2", "--dim", "2"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "switchcap: numerical failure: injected\n"


class TestLimit:
    def test_qubit_saturation(self, capsys):
        assert main(["limit", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.311278124459" in out
        chis = [float(line.split("chi_bits=")[1]) for line in out.splitlines() if "chi_bits=" in line]
        assert len(chis) == 3
        assert chis == sorted(chis)
        assert abs(chis[-1] - 0.311278124459) < 1e-4

    def test_limit_decreases_with_dimension(self, capsys):
        main(["limit", "--dim", "2"])
        two = capsys.readouterr().out
        main(["limit", "--dim", "3"])
        three = capsys.readouterr().out
        limit_of = lambda text: float(text.splitlines()[1].split(":")[1])
        assert limit_of(three) < limit_of(two)

    def test_rejects_dimension_below_two(self, capsys):
        assert main(["limit", "--dim", "1"]) == 2

    def test_dimension_range_matches_the_grid(self, capsys):
        # --dim 10000000 printed a negative rate before it was range-checked
        assert main(["limit", "--dim", "64"]) == 0
        capsys.readouterr()
        assert main(["limit", "--dim", "65"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "switchcap: invalid arguments: dimension 65 outside [2, 64]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--jobs", "2"],
        ["sweep", "--dims", "2", "--orders", "2", "--jobs", "2"],
        ["verify", "--jobs", "2"],
    ],
)
def test_jobs_flag_is_gone(capsys, argv):
    assert main(argv) == 2


ABSURD_INTEGERS = {
    "0": "0",
    "1": "1",
    "-1": "-1",
    "65": "65",
    "10**400": str(10**400),
    "-10**400": str(-(10**400)),
    "2..1": "2..1",
    "1..10**400": f"1..{10**400}",
    "a": "a",
    "empty": "",
    "2.5": "2.5",
    "1e3": "1e3",
}
INTEGER_FLAGS = [
    ["table", "--dims"],
    ["table", "--orders"],
    ["table", "--seed"],
    ["sweep", "--dims=2", "--orders"],
    ["sweep", "--orders=2", "--dims"],
    ["sweep", "--dims=2", "--orders=2", "--seed"],
    ["verify", "--channels"],
    ["verify", "--mode=all", "--channels"],
    ["verify", "--dim"],
    ["verify", "--seed"],
    ["verify", "--mode=explicit", "--perms"],
    ["limit", "--dim"],
]


@pytest.mark.parametrize("value", ABSURD_INTEGERS.values(), ids=ABSURD_INTEGERS.keys())
@pytest.mark.parametrize("flag", INTEGER_FLAGS, ids="".join)
def test_absurd_integer_is_an_exit_code(capsys, flag, value):
    *argv, name = flag
    assert main([*argv, f"{name}={value}"]) in range(6)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["table", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (
            ["sweep", "--dims", "2", "--orders", "2", "--seed", "-1"],
            "--seed must be at least 0, got -1",
        ),
        (["verify", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["verify", "--channels", "1"], "channel count must be at least 2, got 1"),
        (["table", "--orders", "0"], "order count 0 outside [1, 1000000]"),
    ],
    ids=["table-seed", "sweep-seed", "verify-seed", "verify-channels", "table-orders"],
)
def test_integer_bound_refusal_text(capsys, argv, message):
    # every integer bound is checked by errors._integer, in one of its two forms
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"switchcap: invalid arguments: {message}\n"


def test_interrupt_is_one_stderr_line_and_exit_130(capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("switchcap.cli.holevo", interrupt)
    assert main(["table"]) == 130
    assert capsys.readouterr().err == "switchcap: interrupted\n"
    monkeypatch.setattr("switchcap.cli.holevo_oracle", interrupt)
    assert main(["verify"]) == 130
    assert capsys.readouterr() == ("", "switchcap: interrupted\n")


def test_version_flag(capsys):
    assert main(["--version"]) == 0


# Values each flag of the real subcommands may take in the argv property
# test, valid ones first and then bad ones.  Every verify case that passes
# the argument checks is N <= 3 and d <= 3, or is refused by the size guard.
BAD_VALUES = ["0..3", "4..2", "a", "", "65", "-1", "2.5"]
ARGV_VALUES = {
    "--dims": (["2", "2,3", "2..16", "3,2,3", "64"], ["1", *BAD_VALUES]),
    "--orders": (["1", "2..6", "1..300", "6,2,6", "1000000"], ["1000001", *BAD_VALUES]),
    "--format": (["text", "csv", "json"], ["xml"]),
    "--seed": (["0", "42", "7919", str(10**400)], ["-7", *BAD_VALUES]),
    "--channels": (["2", "3", "2,3", "3,2,2"], ["1", *BAD_VALUES]),
    "--dim": (["2", "3", "2,3", "16"], ["1", *BAD_VALUES]),
    "--mode": (["cyclic", "all", "explicit"], ["bogus"]),
    "--perms": (
        ["0,1;1,0", "0,1,2;1,2,0", "1,2,0;0,2,1;2,1,0", "0,1;;1,0"],
        ["0,1;1,0,2", "0,1;0,1", "0,0;1,1", "0,2;2,0", *BAD_VALUES],
    ),
    "--out": (["-", "grid.out"], ["missing/grid.out", "."]),
    "limit --dim": (["2", "3", "64"], BAD_VALUES),
}
# Each subcommand's flags, with the chance that a draw gives the flag.
# --perms needs --mode explicit and --channels must then be absent, so
# both are drawn less often.
SUBCOMMAND_FLAGS = {
    "table": {"--dims": 0.8, "--orders": 0.8, "--format": 0.8, "--seed": 0.8},
    "sweep": {"--dims": 0.9, "--orders": 0.9, "--format": 0.8, "--out": 0.8, "--seed": 0.8},
    "verify": {"--channels": 0.5, "--dim": 0.8, "--mode": 0.8, "--perms": 0.3, "--seed": 0.8},
    "limit": {"--dim": 0.9},
}


def random_argv(rng):
    """One argv: a subcommand and some of its flags, one value in six bad."""
    if rng.random() < 0.02:
        return rng.choice([[], ["--version"], ["bogus"], ["table", "--jobs", "2"]])
    command = rng.choice(sorted(SUBCOMMAND_FLAGS))
    flags = [f for f, rate in SUBCOMMAND_FLAGS[command].items() if rng.random() < rate]
    rng.shuffle(flags)
    argv = [command]
    for flag in flags:
        valid, bad = ARGV_VALUES["limit --dim" if command == "limit" else flag]
        value = rng.choice(bad if rng.random() < 1 / 6 else valid)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


def test_random_argv_is_an_exit_code(tmp_path, capsys, monkeypatch):
    # main returns 0..5 and never raises, whatever argv the real flags make;
    # --out paths are relative to tmp_path
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20201)
    codes = set()
    for _ in range(1500):
        argv = random_argv(rng)
        code = main(argv)
        err = capsys.readouterr().err
        assert type(code) is int and 0 <= code <= 5, argv
        assert "Traceback" not in err, argv
        codes.add(code)
    # the draw reaches success, argument errors, i/o errors and the size guard
    assert {0, 2, 3, 4} <= codes


def test_closed_forms_load_no_numpy(tmp_path):
    # in a fresh interpreter, importing the CLI and running table, sweep and
    # limit never loads numpy, not even for the largest 10-dimension sweep
    # below _NUMPY_GRID_POINTS; the last run loads it: verify with its first
    # array, or a sweep of _NUMPY_GRID_POINTS points, the smallest grid the
    # block route takes
    below = f"1..{(_NUMPY_GRID_POINTS - 1) // 10}"  # times 10 dimensions
    script = (
        "import contextlib, io, os, sys\n"
        "import switchcap.cli\n"
        "out, last = sys.argv[1], sys.argv[2:]\n"
        "runs = [['table'], ['table', '--format', 'json'],\n"
        "        ['sweep', '--dims', '2,3', '--orders', '1..5', '--format', 'csv', '--out', out + '.csv'],\n"
        "        ['sweep', '--dims', '2,3', '--orders', '1..5', '--format', 'json', '--out', out + '.json'],\n"
        f"        ['sweep', '--dims', '2..11', '--orders', '{below}', '--out', os.devnull],\n"
        "        ['limit', '--dim', '2']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [switchcap.cli.main(argv) for argv in runs]\n"
        "    loaded = ['numpy' in sys.modules]\n"
        "    codes.append(switchcap.cli.main(last))\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    env = dict(os.environ)
    src = str(Path(switchcap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    large = f"1..{-(-_NUMPY_GRID_POINTS // 10)}"  # times 10 dimensions
    for last in (
        ["verify", "--channels", "2"],
        ["sweep", "--dims", "2..11", "--orders", large, "--out", str(tmp_path / "large.csv")],
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "grid"), *last],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.stdout == "[0, 0, 0, 0, 0, 0, 0] [False, True]\n", done.stderr
    assert (tmp_path / "grid.csv").read_text().startswith(CSV_HEADER + "\n")
    assert (tmp_path / "grid.json").read_text().startswith('{"rows": [')


def test_start_up_loads_no_dataclasses(tmp_path):
    # in a fresh interpreter, the modules each step adds to sys.modules,
    # against a snapshot taken before it, so modules that site hooks load
    # at interpreter start-up are not counted
    script = (
        "import contextlib, io, json, sys\n"
        "out = sys.argv[1]\n"
        "added, seen = [], set(sys.modules)\n"
        "def step():\n"
        "    global seen\n"
        "    added.append(sorted(set(sys.modules) - seen))\n"
        "    seen = set(sys.modules)\n"
        "import switchcap.cli\n"
        "step()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [switchcap.cli.main(['table']),\n"
        "             switchcap.cli.main(['sweep', '--dims', '2,3', '--orders', '1..5', '--out', out]),\n"
        "             switchcap.cli.main(['limit', '--dim', '2'])]\n"
        "    step()\n"
        "    codes.append(switchcap.cli.main(['verify', '--channels', '2']))\n"
        "    step()\n"
        "print(json.dumps([codes, added]))\n"
    )
    env = dict(os.environ)
    src = str(Path(switchcap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "grid.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    codes, (on_import, closed_forms, verify) = json.loads(done.stdout)
    assert codes == [0, 0, 0, 0]
    assert "switchcap.cli" in on_import
    for added in (on_import, closed_forms):
        assert "dataclasses" not in added and "inspect" not in added
    assert "numpy" in verify
    assert "dataclasses" not in verify
