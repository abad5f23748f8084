"""Tests for the command-line interface."""

import json
import time
import tracemalloc

import pytest

from switchcap.capacity import holevo
from switchcap.cli import CSV_HEADER, ORDER_RANGE, main, parse_int_list, parse_permutations
from switchcap.errors import (
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
)
from switchcap.switch import MAX_ORACLE_SAMPLES, all_orders, cyclically_related

# Two orders of 520 channels, forward and reversed, as --perms takes them.
WIDE_PAIR = ";".join(",".join(map(str, order)) for order in (range(520), range(519, -1, -1)))

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
        assert main(["table", "--dims", "2", "--orders", "0"]) == 2

    def test_unknown_flag(self):
        assert main(["table", "--bogus"]) == 2


class TestSweep:
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

    def test_invalid_grid_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["sweep", "--dims", "2", "--orders", "0..3", "--out", str(out)]) == 2
        assert not out.exists()

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        self._memory_does_not_grow(tmp_path, monkeypatch, ["sweep", "--out", "grid.csv"])

    def test_table_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        self._memory_does_not_grow(tmp_path, monkeypatch, ["table", "--format", "csv"])

    @staticmethod
    def _memory_does_not_grow(tmp_path, monkeypatch, argv):
        # 30 000 points; rows are written as they are computed, not held.
        # stdout goes to a file, so captured output is not counted as held.
        monkeypatch.chdir(tmp_path)
        with open("stdout.txt", "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
            patch.setattr("sys.stdout", stdout)
            tracemalloc.start()
            try:
                code = main([*argv, "--dims", "2..16", "--orders", "1..2000"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20
        out = tmp_path / ("grid.csv" if argv[0] == "sweep" else "stdout.txt")
        assert out.read_text().count("\n") == 1 + 15 * 2000

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
        assert main(["sweep", "--dims", ",", "--orders", "2"]) == 2

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
        assert row["divergent_pairs"] == []

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
        # the other pairs genuinely differ from it
        assert len(row["divergent_pairs"]) > 0
        assert all(p["deviation"] > 1e-3 for p in row["divergent_pairs"])

    @pytest.mark.parametrize("n_channels", [3, 4])
    def test_divergent_pairs_are_the_unrelated_pairs_in_order(self, capsys, n_channels):
        args = ["verify", "--channels", str(n_channels), "--dim", "2", "--mode", "all"]
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        orders = all_orders(n_channels).orders
        unrelated = [
            (i, j)
            for i, a in enumerate(orders)
            for j, b in enumerate(orders)
            if i != j and not cyclically_related(a, b)
        ]
        assert [(p["i"], p["j"]) for p in row["divergent_pairs"]] == unrelated

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
        assert {(p["i"], p["j"]) for p in row["divergent_pairs"]} == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("flag", ["--tol", "--chi-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-6"])
    def test_bad_tolerance_is_argument_error(self, capsys, monkeypatch, flag, value):
        def never(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr("switchcap.cli.run_verify_case", never)
        assert main(["verify", "--channels", "3", "--mode", "all", f"{flag}={value}"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("samples", [0, MAX_ORACLE_SAMPLES + 1, 10**15])
    def test_samples_out_of_range_rejected_before_allocating(self, capsys, monkeypatch, samples):
        def never(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr("switchcap.switch.haar_random_state", never)
        started = time.perf_counter()
        assert main(["verify", "--channels", "2", "--samples", str(samples)]) == 2
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("argv", [["--tol", "1e-8"], ["--chi-tol", "1e-3"], ["--samples", "8"]])
    def test_verify_tuning_flags_are_gone(self, capsys, argv):
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
        ],
    )
    def test_bad_order_set_is_argument_error(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr().out == ""

    def test_size_guard_exit_code(self, capsys, monkeypatch):
        self._size_guard(capsys, monkeypatch, ["--channels", "4", "--dim", "3", "--mode", "all"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--channels", "2,6", "--mode", "all"],
            ["--channels", "2", "--dim", "16"],
            ["--channels", "80"],
            ["--channels", "100000"],  # cyclic_orders would hold 10^10 integers
            # 4^520 bytes is past the largest float: the estimate must not overflow
            ["--mode", "explicit", "--perms", WIDE_PAIR],
        ],
    )
    def test_size_guard_before_building(self, capsys, monkeypatch, argv):
        self._size_guard(capsys, monkeypatch, argv)

    @staticmethod
    def _size_guard(capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("an order set or a switch map was built")

        for name in ("cyclic_orders", "all_orders", "cyclically_related"):
            monkeypatch.setattr(f"switchcap.cli.{name}", never)
        monkeypatch.setattr("switchcap.switch._switch_map", never)
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


def test_version_flag(capsys):
    assert main(["--version"]) == 0
