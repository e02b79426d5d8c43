import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mrflearn import CliqueTensor, MarkovRandomField, io
from mrflearn.cli import main

from conftest import ising_tensor


def test_end_to_end_flow(tmp_path):
    runner = CliRunner()
    model_path = str(tmp_path / "model.json")
    samples_path = str(tmp_path / "samples.txt")
    erased_path = str(tmp_path / "erased.txt")
    result_path = str(tmp_path / "learn.json")

    res = runner.invoke(main, [
        "generate-model", "--n", "5", "--r", "2", "-D", "2", "-K", "2",
        "--alpha", "0.4", "--beta", "1.0", "--seed", "3", "--out", model_path,
    ])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, [
        "sample", "--model", model_path, "--m", "30000", "--seed", "1",
        "--out", samples_path,
    ])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, [
        "erase", "--samples", samples_path, "--reveal-prob", "0.95",
        "--seed", "2", "--out", erased_path,
    ])
    assert res.exit_code == 0, res.output
    assert 0.93 < json.loads(res.output)["observed_fraction"] < 0.97

    res = runner.invoke(main, [
        "learn", "--samples", samples_path, "--model", model_path,
        "--tau", "0.012", "-L", "4", "--alpha", "0.4", "--out", result_path,
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(Path(result_path).read_text())
    assert payload["summary"]["exact_match"] is True
    assert payload["effective"]["tau"] == 0.012

    res = runner.invoke(main, [
        "learn", "--samples", erased_path, "--model", model_path,
        "--mode", "erased", "--tau", "0.012", "-L", "4", "--alpha", "0.4",
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["summary"]["exact_match"] is True

    # --m restricts to a prefix of the sample file
    res = runner.invoke(main, [
        "learn", "--samples", samples_path, "--model", model_path,
        "--tau", "0.012", "-L", "4", "--alpha", "0.4", "--m", "1000",
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["accounting"]["samples"] == 1000


def test_learn_queried_mode(tmp_path):
    runner = CliRunner()
    model_path = str(tmp_path / "model.json")
    runner.invoke(main, [
        "generate-model", "--n", "4", "-D", "2", "--alpha", "0.4",
        "--seed", "5", "--out", model_path,
    ])
    res = runner.invoke(main, [
        "learn", "--model", model_path, "--mode", "queried",
        "--tau", "0.05", "-L", "3", "--alpha", "0.4",
        "--m-batch", "8000", "--seed", "2",
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["accounting"]["max_query_size"] <= 3 + 2


def test_learn_queried_mode_at_budget_zero(tmp_path):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, [
        "learn", "--model", model_path, "--mode", "queried",
        "--tau", "0.05", "-L", "0", "--m-batch", "100",
    ])
    assert res.exit_code == 0, res.output
    accounting = json.loads(res.output)["accounting"]
    assert 0 < accounting["samples_consumed"] <= accounting["query_budget"]


def test_verify_bounds_command():
    runner = CliRunner()
    res = runner.invoke(main, [
        "verify-bounds", "--models", "3", "--n", "4", "--alpha", "0.3",
        "--max-cond-size", "2", "--seed", "1",
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["all_ok"] is True


def test_play_game_command(tmp_path):
    runner = CliRunner()
    model_path = str(tmp_path / "model.json")
    runner.invoke(main, [
        "generate-model", "--n", "4", "-D", "2", "--alpha", "0.3",
        "--seed", "7", "--out", model_path,
    ])
    res = runner.invoke(main, [
        "play-game", "--model", model_path, "--rounds", "30000",
        "--alpha", "0.3", "--seed", "1",
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["all_ok"] is True
    assert all(rec["pass"] for rec in payload["records"])


def test_learn_output_is_byte_reproducible(tmp_path):
    runner = CliRunner()
    model_path = str(tmp_path / "model.json")
    samples_path = str(tmp_path / "samples.txt")
    runner.invoke(main, [
        "generate-model", "--n", "4", "-D", "2", "--alpha", "0.4",
        "--seed", "1", "--out", model_path,
    ])
    runner.invoke(main, [
        "sample", "--model", model_path, "--m", "5000", "--seed", "6",
        "--out", samples_path,
    ])
    args = ["learn", "--samples", samples_path, "--model", model_path,
            "--tau", "0.012", "-L", "3", "--alpha", "0.4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_run_experiment_command():
    runner = CliRunner()
    res = runner.invoke(main, [
        "run-experiment", "--n", "4", "-D", "2", "--alpha", "0.4",
        "--trials", "2", "--m", "10000", "--tau", "0.05", "-L", "3",
        "--seed", "2",
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["aggregate"]["mean_recall"] >= 0.5


def _header_only_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("n=3 arities=2,2,2 seed=0\n")
    return str(path)


def test_erase_rejects_a_sample_file_with_no_rows(tmp_path):
    empty = _header_only_file(tmp_path)
    res = CliRunner().invoke(main, [
        "erase", "--samples", empty, "--reveal-prob", "0.5",
        "--out", str(tmp_path / "erased.txt"),
    ])
    assert res.exit_code == 2
    assert empty in res.output and "no rows" in res.output
    assert not (tmp_path / "erased.txt").exists()


def test_learn_rejects_a_sample_file_with_no_rows(tmp_path):
    empty = _header_only_file(tmp_path)
    res = CliRunner().invoke(main, [
        "learn", "--samples", empty, "--tau", "0.05", "-L", "3",
    ])
    assert res.exit_code == 2
    assert empty in res.output and "no rows" in res.output


def _save_weak_pair_with_isolated_node(tmp_path):
    """Nodes 0 - 1 with a +-0.01 coupling, far below alpha = 0.5, and an
    isolated node 2."""
    model = MarkovRandomField(
        3, (2, 2, 2), {(0, 1): CliqueTensor((0, 1), ising_tensor(0.01))}, r=2
    )
    path = str(tmp_path / "weak.json")
    io.save_model(model, path)
    return path


def test_play_game_holds_only_qualifying_nodes_to_the_floor(tmp_path):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, [
        "play-game", "--model", model_path, "--rounds", "20000", "--alpha", "0.5",
    ])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["all_ok"] is True
    assert [rec["u"] for rec in payload["records"]] == [0, 1]
    assert all(rec["theoretical_bound"] == 0.0 for rec in payload["records"])


def test_play_game_rejects_an_isolated_node(tmp_path):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, ["play-game", "--model", model_path, "--node", "2"])
    assert res.exit_code == 2
    assert "--node 2 is isolated" in res.output


def test_play_game_rejects_an_out_of_range_node(tmp_path):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, ["play-game", "--model", model_path, "--node", "3"])
    assert res.exit_code == 2
    assert "--node 3 is outside 0..2" in res.output


def test_play_game_rejects_a_model_with_no_game(tmp_path):
    model_path = str(tmp_path / "unary.json")
    io.save_model(MarkovRandomField(2, (2, 2), {
        (0,): CliqueTensor((0,), np.array([0.3, -0.3])),
    }, r=2), model_path)
    res = CliRunner().invoke(main, ["play-game", "--model", model_path, "--rounds", "10"])
    assert res.exit_code == 2, res.output
    assert model_path in res.output and "no game to play" in res.output


def test_learn_full_mode_rejects_a_sample_file_with_erasures(tmp_path):
    erased = tmp_path / "erased.txt"
    erased.write_text("n=2 arities=2,2 seed=0\n1 2\n? 1\n2 2\n")
    res = CliRunner().invoke(main, [
        "learn", "--samples", str(erased), "--tau", "0.05", "-L", "3",
    ])
    assert res.exit_code == 2
    assert str(erased) in res.output and "--mode erased" in res.output


def test_learn_without_a_model_reports_no_theoretical_thresholds(tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("n=2 arities=2,2 seed=0\n1 2\n2 1\n2 2\n")
    res = CliRunner().invoke(main, [
        "learn", "--samples", str(samples), "--tau", "0.05", "-L", "3",
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["theoretical_m"] == {
        "error": "theoretical thresholds undefined: no --model"
    }


@pytest.mark.parametrize("command", [
    ["generate-model", "--n", "1", "--out", "never.json"],
    ["verify-bounds", "--r", "1"],
    ["run-experiment", "--n", "1", "--tau", "0.05", "-L", "3"],
    ["generate-model", "--n", "4", "--alpha", "0", "--out", "never.json"],
    ["verify-bounds", "--alpha", "0"],
    ["run-experiment", "--n", "4", "--alpha", "0", "--tau", "0.05", "-L", "3"],
])
def test_an_unplaceable_spec_is_a_usage_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(main, command)
    assert res.exit_code == 2, res.output
    if "--alpha" in command:
        assert "alpha=0.0 must be positive" in res.output
    else:
        assert "need n >= 2 and r >= 2 to place any interaction" in res.output
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("command", [
    ["generate-model", "--n", "4", "-K", "1", "--out", "never.json"],
    ["verify-bounds", "--n", "4", "-K", "1"],
    ["run-experiment", "--n", "4", "-K", "1", "--tau", "0.05", "-L", "3"],
])
def test_a_max_arity_below_two_is_a_usage_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(main, command)
    assert res.exit_code == 2, res.output
    assert "max_arity=1: every node needs at least 2 states" in res.output
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("beta", ["inf", "1e308"])
@pytest.mark.parametrize("command", [
    ["generate-model", "--n", "4", "--out", "never.json"],
    ["verify-bounds", "--models", "1"],
    ["run-experiment", "--n", "4", "--tau", "0.05", "-L", "3"],
])
def test_an_overflowing_beta_is_a_usage_error(tmp_path, monkeypatch, command, beta):
    # rng.uniform(-beta, beta) needs a finite 2 beta; 1e308 doubles past float64
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(main, command + ["--beta", beta])
    assert res.exit_code == 2, res.output
    assert "and 2 beta must be finite" in res.output
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
def test_play_game_rejects_a_meaningless_alpha(tmp_path, alpha):
    # alpha = -1 would hold every node to the alpha = 1 floor, 0 or nan to
    # a floor of 0, and inf would let no node qualify: all pass vacuously
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, ["play-game", "--model", model_path, "--alpha", alpha])
    assert res.exit_code == 2, res.output
    assert "must be positive and finite" in res.output


@pytest.mark.parametrize("rounds", ["0", "1"])
def test_play_game_rejects_fewer_than_two_rounds(tmp_path, rounds):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    res = CliRunner().invoke(main, ["play-game", "--model", model_path, "--rounds", rounds])
    assert res.exit_code == 2
    assert "--rounds" in res.output


def test_a_malformed_sample_file_is_a_usage_error(tmp_path):
    bad = tmp_path / "short.txt"
    bad.write_text("n=2 arities=2,2\n1\n")
    for command in (
        ["erase", "--samples", str(bad), "--reveal-prob", "0.5", "--out", str(tmp_path / "e.txt")],
        ["learn", "--samples", str(bad), "--tau", "0.05", "-L", "3"],
    ):
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 2, res.output
        assert str(bad) in res.output and "row 1 has 1 cells, expected 2" in res.output
    assert not (tmp_path / "e.txt").exists()


@pytest.mark.parametrize("command, option", [
    (["sample", "--m", "0"], "--m"),
    (["sample", "--m", "5", "--sampler", "gibbs", "--burn-in", "0"], "--burn-in"),
    (["sample", "--m", "5", "--sampler", "gibbs", "--thinning", "0"], "--thinning"),
    (["erase", "--reveal-prob", "1.5"], "--reveal-prob"),
    (["learn", "--mode", "queried", "--tau", "0.05", "-L", "3", "--m-batch", "0"], "--m-batch"),
    (["run-experiment", "--n", "4", "--tau", "0.05", "-L", "3", "--trials", "0"], "--trials"),
    (["run-experiment", "--n", "4", "--tau", "0.05", "-L", "3", "--m", "0"], "--m"),
    (["run-experiment", "--n", "4", "--tau", "0.05", "-L", "3", "--mode", "erased",
      "--reveal-prob", "1.5"], "--reveal-prob"),
    (["verify-bounds", "--models", "0"], "--models"),
    (["verify-bounds", "--max-cond-size", "-1"], "--max-cond-size"),
    (["learn", "--tau", "nan", "-L", "3"], "tau"),
    (["learn", "--mode", "queried", "--tau", "0.05", "-L", "-1"], "budget"),
    (["run-experiment", "--n", "4", "--tau", "-1", "-L", "3"], "tau"),
    (["run-experiment", "--n", "4", "--tau", "0.05", "-L", "inf"], "budget"),
    (["learn", "--tau", "0.05", "-L", "3", "--coverage-floor", "-7"], "coverage_floor"),
    (["run-experiment", "--n", "4", "--r", "0", "--tau", "0.05", "-L", "3"], "r"),
], ids=["sample-m", "burn-in", "thinning", "erase-reveal-prob", "m-batch", "trials",
        "experiment-m", "experiment-reveal-prob", "verify-models", "max-cond-size",
        "learn-tau", "learn-budget", "experiment-tau", "experiment-budget",
        "learn-coverage-floor", "experiment-r"])
def test_out_of_range_counts_and_probabilities_are_usage_errors(tmp_path, command, option):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    samples = tmp_path / "samples.txt"
    samples.write_text("n=3 arities=2,2,2 seed=0\n1 2 1\n2 2 1\n")
    files = {
        "sample": ["--model", model_path, "--out", str(tmp_path / "out.txt")],
        "erase": ["--samples", str(samples), "--out", str(tmp_path / "out.txt")],
        "learn": ["--model", model_path],
        "run-experiment": [],
        "verify-bounds": [],
    }[command[0]]
    res = CliRunner().invoke(main, command + files)
    assert res.exit_code == 2, res.output
    assert f"'{option}'" in res.output
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", [
    "generate-model", "sample", "erase", "learn", "verify-bounds", "play-game", "run-experiment",
])
def test_a_negative_seed_is_a_usage_error(tmp_path, command):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    samples = tmp_path / "samples.txt"
    samples.write_text("n=3 arities=2,2,2 seed=0\n1 2 1\n2 2 1\n")
    out = ["--out", str(tmp_path / "out.txt")]
    args = {
        "generate-model": ["--n", "4"] + out,
        "sample": ["--model", model_path, "--m", "5"] + out,
        "erase": ["--samples", str(samples), "--reveal-prob", "0.5"] + out,
        "learn": ["--samples", str(samples), "--tau", "0.05", "-L", "3"] + out,
        "verify-bounds": ["--models", "1"] + out,
        "play-game": ["--model", model_path, "--rounds", "10"] + out,
        "run-experiment": ["--n", "4", "--tau", "0.05", "-L", "3", "--trials", "1"] + out,
    }[command]
    res = CliRunner().invoke(main, [command, "--seed", "-1"] + args)
    assert res.exit_code == 2, res.output
    assert "'--seed'" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out.txt").exists()


def _save_model_past_the_enumeration_cap(tmp_path):
    """26 binary nodes: 2^26 configurations, over the 2^24 cap."""
    path = str(tmp_path / "big.json")
    io.save_model(MarkovRandomField(26, (2,) * 26, {}, r=2), path)
    return path


@pytest.mark.parametrize("command", [
    ["sample", "--m", "5", "--out", "out.txt"],
    ["play-game", "--rounds", "10"],
    ["learn", "--mode", "queried", "--tau", "0.05", "-L", "3"],
    ["run-experiment", "--n", "26", "--tau", "0.05", "-L", "3"],
    ["verify-bounds", "--models", "1", "--n", "26"],
], ids=["sample", "play-game", "learn-queried", "run-experiment", "verify-bounds"])
def test_a_model_past_the_enumeration_cap_is_a_usage_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    if command[0] not in ("run-experiment", "verify-bounds"):
        command = command + ["--model", _save_model_past_the_enumeration_cap(tmp_path)]
    res = CliRunner().invoke(main, command)
    assert res.exit_code == 2, res.output
    assert "67108864 configurations exceed the exact-inference cap" in res.output
    assert not (tmp_path / "out.txt").exists()


def test_learn_rejects_a_model_whose_arities_differ_from_the_samples(tmp_path):
    model_path = _save_weak_pair_with_isolated_node(tmp_path)
    samples = tmp_path / "samples.txt"
    samples.write_text("n=4 arities=2,3,2,2 seed=0\n1 2 1 1\n2 3 1 2\n")
    res = CliRunner().invoke(main, [
        "learn", "--samples", str(samples), "--model", model_path, "--tau", "0.05", "-L", "3",
    ])
    assert res.exit_code == 2, res.output
    assert "[2, 3, 2, 2]" in res.output and "[2, 2, 2]" in res.output


_MALFORMED_MODELS = {
    "short-values": {"n": 2, "arities": [2, 2], "r": 2, "tensors": [
        {"vertices": [0, 1], "shape": [2, 2], "values": [0.1, -0.1, 0.2]}]},
    "no-tensors": {"n": 2, "arities": [2, 2], "r": 2},
    "not-json": "{this is not json",
    "unsorted-vertices": {"n": 2, "arities": [2, 2], "r": 2, "tensors": [
        {"vertices": [1, 0], "shape": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}]},
    "fractional-n": {"n": 3.7, "arities": [2, 2, 2], "r": 2, "tensors": [
        {"vertices": [0, 1], "shape": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}]},
    "fractional-arity": {"n": 2, "arities": [2.5, 2], "r": 2, "tensors": [
        {"vertices": [0, 1], "shape": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}]},
    "fractional-r": {"n": 2, "arities": [2, 2], "r": 2.5, "tensors": [
        {"vertices": [0, 1], "shape": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}]},
    "fractional-vertex": {"n": 2, "arities": [2, 2], "r": 2, "tensors": [
        {"vertices": [0.9, 1], "shape": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}]},
    "fractional-shape": {"n": 2, "arities": [2, 2], "r": 2, "tensors": [
        {"vertices": [0, 1], "shape": [2, 2.5], "values": [0.1, -0.1, -0.1, 0.1]}]},
}


@pytest.mark.parametrize("flaw, message", [
    ("short-values", "cannot reshape"),
    ("no-tensors", "missing key 'tensors'"),
    ("not-json", "Expecting property name"),
    ("unsorted-vertices", "vertices must be strictly increasing"),
    ("fractional-n", "n must be an integer, got 3.7"),
    ("fractional-arity", "arities must be an integer, got 2.5"),
    ("fractional-r", "r must be an integer, got 2.5"),
    ("fractional-vertex", "vertices must be an integer, got 0.9"),
    ("fractional-shape", "shape must be an integer, got 2.5"),
])
@pytest.mark.parametrize("command", ["sample", "play-game", "learn"])
def test_a_malformed_model_file_is_a_usage_error(tmp_path, command, flaw, message):
    bad = tmp_path / "bad.json"
    payload = _MALFORMED_MODELS[flaw]
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    samples = tmp_path / "samples.txt"
    samples.write_text("n=2 arities=2,2 seed=0\n1 2\n2 1\n")
    args = {
        "sample": ["--m", "5", "--out", str(tmp_path / "out.txt")],
        "play-game": ["--rounds", "10"],
        "learn": ["--samples", str(samples), "--tau", "0.05", "-L", "3"],
    }[command]
    res = CliRunner().invoke(main, [command, "--model", str(bad)] + args)
    assert res.exit_code == 2, res.output
    assert f"model file {bad}: " in res.output and message in res.output
    assert not (tmp_path / "out.txt").exists()


def test_learn_reports_an_underflowing_theoretical_tau(tmp_path):
    model_path = str(tmp_path / "steep.json")
    samples_path = str(tmp_path / "samples.txt")
    runner = CliRunner()
    res = runner.invoke(main, [
        "generate-model", "--n", "6", "-D", "3", "--alpha", "1", "--beta", "60",
        "--seed", "0", "--out", model_path,
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["sample", "--model", model_path, "--m", "500", "--out", samples_path])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [
        "learn", "--samples", samples_path, "--model", model_path, "--tau", "0.01", "-L", "3",
    ])
    assert res.exit_code == 0, res.output
    assert "float underflow" in json.loads(res.output)["theoretical_m"]["error"]
