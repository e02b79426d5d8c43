import json

from click.testing import CliRunner

from mrflearn.cli import main


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
    payload = json.loads(open(result_path).read())
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
