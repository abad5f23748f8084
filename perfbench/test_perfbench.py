"""Self-tests of the benchmark, on tiny instances of each workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json

import pytest

import run
import spans
from oracle import oracle_chi, order_set
from workloads import REFERENCES, WORKLOADS, SweepWorkload, VerifyWorkload

TINY = {
    "cyclic": VerifyWorkload("tiny-cyclic", 2, 2, "cyclic", ("pass",), True),
    "all": VerifyWorkload("tiny-all", 2, 2, "all", ("pass", "divergent-block"), False),
    "sweep": SweepWorkload("tiny-sweep", dims=(2, 3), orders=(1, 10)),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_file_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == spans.METRICS


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_reported_with_its_unit(name, trace):
    result, lines = run.run_workload(TINY[name], seed=42, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0, lines
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def traced_record(workload):
    records, _ = run.measure(workload, seed=42, seconds=0, trace=True)
    (record,) = [r for r in records if r["mode"] == "traced"]
    assert not record["problems"]
    return record


@pytest.mark.parametrize("name", ["cyclic", "all"])
def test_every_import_site_records_calls_on_verify(name):
    record = traced_record(TINY[name])
    silent = [site for site, calls in record["sites"].items() if calls == 0]
    assert not silent, f"wrapped sites never called: {silent}"
    layers = record["layers"]
    assert layers["switch.entry_calls"] == 5
    assert layers["switch.oracle_states"] == 65
    assert layers["switch.kraus_tuples"] == 5 * 2 ** (2 * 2)
    assert layers["channels.check_completeness.operators"] == 2 ** (2 * 2)
    assert layers["capacity.holevo.calls"] == 1


def test_sweep_reaches_only_cli_and_capacity():
    record = traced_record(TINY["sweep"])
    called = {site for site, calls in record["sites"].items() if calls}
    assert called == {("switchcap.cli", "main"), ("switchcap.cli", "holevo")}
    assert record["layers"]["capacity.holevo.calls"] == 20
    assert record["layers"]["trace.spans"] == 21


def plain_request(workload, outdir):
    record = run.run_request(
        workload.argv(42, outdir), "plain", run.child_env(), outdir, timeout=60
    )
    assert record["rc"] == 0
    return record


def with_report(record, **changes):
    document = json.loads(record["stdout"])
    document["rows"][0].update(changes)
    return dict(record, stdout=json.dumps(document))


def test_verify_gate_counts_corrupted_reports(tmp_path):
    workload = TINY["cyclic"]
    gate = workload.gate(42, tmp_path)
    record = plain_request(workload, tmp_path)
    assert gate.check(record) == []
    chi = json.loads(record["stdout"])["rows"][0]["chi_oracle"]
    assert gate.check(with_report(record, chi_oracle=chi + 1e-8))
    assert gate.check(with_report(record, status="fail"))
    assert gate.check(with_report(record, kraus_residual=1e-11))
    assert gate.check(dict(record, rc=1))
    assert gate.check(dict(record, stdout=record["stdout"][:-5]))


def test_sweep_gate_counts_truncated_or_changed_csv(tmp_path):
    workload = TINY["sweep"]
    gate = workload.gate(42, tmp_path)
    csv = tmp_path / "grid.csv"
    record = plain_request(workload, tmp_path)
    good = csv.read_bytes()
    assert gate.check(record) == []
    assert not csv.exists()

    fresh = workload.gate(42, tmp_path)
    csv.write_bytes(good.rsplit(b"\n", 2)[0] + b"\n")
    assert fresh.check(record)
    csv.write_bytes(good.replace(b"\n2,2,0.0487949406954,", b"\n2,2,0.0487949407954,"))
    assert fresh.check(record)
    assert fresh.check(record), "a missing output file must fail"

    csv.write_bytes(good.replace(b"\n", b"\r\n"))
    assert gate.check(record) == ["output differs from the first request of this run"]


@pytest.mark.parametrize("key", sorted(REFERENCES["verify_chi_oracle"]))
def test_independent_oracle_reproduces_recorded_chi(key):
    n, d, mode = key.split(",")
    for seed, chi in REFERENCES["verify_chi_oracle"][key].items():
        got = oracle_chi(order_set(int(n), mode), int(d), 64, int(seed))
        assert abs(got - chi) < 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_but_at_least_p90():
    times = [float(t) for t in range(1, 201)]
    value, label = run.tail_latency(times)
    assert value == 190.0 and sum(t > value for t in times) == 10
    assert label.startswith("p95.0 of 200")
    value, label = run.tail_latency([float(t) for t in range(1, 31)])
    assert value == pytest.approx(27.1) and label.startswith("p90 of 30")
    assert run.tail_latency([1.0, 3.0, 2.0])[0] == pytest.approx(2.8)
    assert run.tail_latency([4.0])[0] == 4.0


def test_times_are_scaled_by_the_reference_loop(tmp_path):
    record = plain_request(TINY["cyclic"], tmp_path)
    assert record["loop_rate"] > 0 and record["calibration_spent_s"] > 0
    assert record["scale"] == run.CALIBRATION_REF_S * record["loop_rate"]
    assert run.scaled(record, "request_s") == record["request_s"] * record["scale"]
