"""Smoke and shape tests for the experiment harnesses (reduced sizes)."""

import io

import pytest

from repro.config import NIC_10G, NIC_100G
from repro.experiments import (
    ExperimentResult,
    consistency_latency_experiment,
    failure_rate_experiment,
    hash_table_experiment,
    hll_cpu_experiment,
    hll_kernel_experiment,
    latency_experiment,
    linked_list_experiment,
    message_rate_experiment,
    run_experiments,
    shuffle_detailed_run,
    shuffle_experiment,
    table3_experiment,
    throughput_experiment,
    virtex7_experiment,
)
from repro.experiments import runner
from repro.experiments.runner import main


# ---------------------------------------------------------------------------
# ExperimentResult plumbing
# ---------------------------------------------------------------------------

def test_result_table_formatting():
    result = ExperimentResult(experiment_id="x", title="demo",
                              columns=["a", "b"], notes="n")
    result.add_row(a=1, b=2.34567)
    result.add_row(a=10, b=0.5)
    table = result.format_table()
    assert "demo" in table
    assert "2.35" in table
    assert "note: n" in table
    assert [row["a"] for row in result.rows] == [1, 10]


# ---------------------------------------------------------------------------
# Individual experiments (tiny parameterizations)
# ---------------------------------------------------------------------------

def test_latency_experiment_smoke():
    result = latency_experiment(NIC_10G, payloads=[64, 256], iterations=6)
    assert len(result.rows) == 2
    row = result.rows[0]
    assert row["write_p01_us"] <= row["write_med_us"] <= row["write_p99_us"]
    assert row["write_med_us"] < row["read_med_us"]


def test_latency_100g_below_10g():
    ten = latency_experiment(NIC_10G, payloads=[256], iterations=6)
    hundred = latency_experiment(NIC_100G, payloads=[256], iterations=6)
    assert hundred.rows[0]["write_med_us"] < ten.rows[0]["write_med_us"]


def test_throughput_experiment_smoke():
    result = throughput_experiment(NIC_10G, payloads=[64, 4096])
    assert result.rows[1]["write_gbps"] > result.rows[0]["write_gbps"]
    assert result.rows[1]["write_gbps"] <= result.rows[1]["ideal_gbps"]


def test_message_rate_experiment_smoke():
    result = message_rate_experiment(NIC_100G, payloads=[64, 4096])
    assert result.rows[0]["write_mops"] > result.rows[1]["write_mops"]


def test_linked_list_experiment_smoke():
    result = linked_list_experiment(lengths=[4, 8], iterations=4)
    assert [r["list_length"] for r in result.rows] == [4, 8]
    for row in result.rows:
        assert row["strom_us"] < row["rdma_read_us"] < row["tcp_rpc_us"] \
            or row["strom_us"] < row["rdma_read_us"]


def test_hash_table_experiment_smoke():
    result = hash_table_experiment(value_sizes=[64], iterations=4)
    row = result.rows[0]
    assert row["read_rtts"] == 2 and row["strom_rtts"] == 1
    assert row["strom_us"] < row["rdma_read_us"] < row["tcp_rpc_us"]


def test_consistency_experiment_smoke():
    result = consistency_latency_experiment(object_sizes=[64, 2048],
                                            iterations=4)
    big = result.rows[-1]
    assert big["read_us"] < big["strom_us"]
    assert big["sw_overhead_pct"] > big["strom_overhead_pct"] - 5


def test_failure_rate_experiment_smoke():
    result = failure_rate_experiment(failure_rates=[0.0, 0.5],
                                     object_sizes=[512], iterations=10)
    calm, stormy = result.rows
    assert stormy["read_sw_us"] > calm["read_sw_us"]
    assert stormy["strom_us"] < stormy["read_sw_us"]


def test_shuffle_experiment_smoke():
    result = shuffle_experiment(input_mib=[128])
    row = result.rows[0]
    assert row["write_s"] <= row["strom_s"] < row["sw_write_s"]


def test_shuffle_detailed_smoke():
    out = shuffle_detailed_run(num_tuples=2048, partition_bits=2)
    assert out["strom_tuples"] == 2048
    assert out["write_s"] > 0


def test_hll_experiments_smoke():
    cpu = hll_cpu_experiment(threads=[1, 8], sample_tuples=20_000)
    assert cpu.rows[1]["throughput_gbps"] > cpu.rows[0]["throughput_gbps"]
    kernel = hll_kernel_experiment(payloads=[1024, 4096])
    assert all(r["overhead_pct"] < 0.5 for r in kernel.rows)


def test_resource_experiments_smoke():
    t3 = table3_experiment()
    assert len(t3.rows) == 2
    v7 = virtex7_experiment()
    assert v7.rows[0]["queue_pairs"] == 500


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_runner_selection_and_output():
    stream = io.StringIO()
    results = run_experiments(["table3", "sec6.1"], stream=stream)
    assert [r.experiment_id for r in results] == ["table3", "sec6.1"]
    assert "VCU118" in stream.getvalue()


def test_runner_unknown_experiment():
    with pytest.raises(SystemExit):
        run_experiments(["figZZ"], stream=io.StringIO())


# ---------------------------------------------------------------------------
# Command line: bad input ends in a one-line error, not a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "json-list"])
def test_report_unreadable_input_is_one_line_error(tmp_path, content):
    path = tmp_path / "metrics.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["report", str(path)])
    message = str(exit_info.value.code)
    assert message.startswith("error: report ") and "\n" not in message


def test_unknown_experiment_id_is_one_line_error():
    with pytest.raises(SystemExit) as exit_info:
        main(["figZZ"])
    message = str(exit_info.value.code)
    assert message.startswith("unknown experiments: ['figZZ']")
    assert "\n" not in message


def test_keyboard_interrupt_mid_sweep_is_one_line(monkeypatch, capsys):
    """Ctrl-C during an experiment ends the run with one line naming
    it and exit status 130, not a KeyboardInterrupt traceback."""
    registry = runner._registry

    def interrupted(*args, **kwargs):
        entries = registry(*args, **kwargs)

        def interrupt():
            raise KeyboardInterrupt
        entries["sec6.1"] = interrupt
        return entries
    monkeypatch.setattr(runner, "_registry", interrupted)
    with pytest.raises(SystemExit) as exit_info:
        main(["table3", "sec6.1", "fig5a"])
    assert exit_info.value.code == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted during sec6.1\n"
    assert "VCU118" in captured.out  # table3 ran and printed first


@pytest.mark.parametrize("flag", ["--json", "--markdown", "--trace-out",
                                  "--metrics-out"])
def test_unwritable_output_path_fails_before_running(flag, monkeypatch,
                                                     capsys, tmp_path):
    """A bad output path ends in one line and exit status 2 before any
    experiment runs, and no file is created."""
    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran")
    monkeypatch.setattr(runner, "run_experiments", no_run)
    good = tmp_path / "out.json"
    bad = str(tmp_path / "missing" / "x.json")
    with pytest.raises(SystemExit) as exit_info:
        main(["table3", "--json", str(good), flag, bad])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {bad}: ")
    assert err.count("\n") == 1
    assert not good.exists() and not (tmp_path / "missing").exists()


def test_output_path_that_is_a_directory_fails(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["table3", "--markdown", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_conformance_rejects_non_positive_runs(runs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["conformance", "--runs", runs])
    assert exit_info.value.code == 2
    assert "--runs must be at least 1" in capsys.readouterr().err
