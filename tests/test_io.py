import numpy as np
import pytest

from mrflearn import ERASED, GeneratorSpec, SampleSet, erase, exact_joint, generate_model, sample_exact
from mrflearn.io import (
    joint_from_json_dict,
    joint_to_json_dict,
    load_model,
    load_samples,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
    save_samples,
)


def test_model_roundtrip_in_memory():
    model = generate_model(GeneratorSpec(n=6, r=3, max_degree=3, max_arity=3, seed=4))
    back = model_from_json_dict(model_to_json_dict(model))
    assert back.n == model.n and back.arities == model.arities and back.r == model.r
    assert set(back.potentials) == set(model.potentials)
    for key in model.potentials:
        np.testing.assert_array_equal(
            back.potentials[key].values, model.potentials[key].values
        )


def test_model_roundtrip_through_file(tmp_path):
    model = generate_model(GeneratorSpec(n=5, seed=9))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    for key in model.potentials:
        # JSON floats round-trip exactly at full precision
        np.testing.assert_array_equal(
            back.potentials[key].values, model.potentials[key].values
        )


def test_samples_text_format(tmp_path):
    samples = SampleSet(np.array([[0, 1, ERASED], [2, 0, 1]]), (3, 2, 2), seed=77)
    path = tmp_path / "samples.txt"
    save_samples(samples, path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n=3 arities=3,2,2 seed=77"
    assert lines[1] == "1 2 ?"  # states are 1-based on disk
    assert lines[2] == "3 1 2"
    back = load_samples(path)
    np.testing.assert_array_equal(back.data, samples.data)
    assert back.seed == 77


def test_samples_roundtrip_with_erasures(tmp_path):
    model = generate_model(GeneratorSpec(n=4, seed=2))
    samples = erase(sample_exact(exact_joint(model), 50, seed=3), 0.7, seed=4)
    path = tmp_path / "erased.txt"
    save_samples(samples, path)
    np.testing.assert_array_equal(load_samples(path).data, samples.data)


def test_samples_reject_malformed_header():
    with pytest.raises(ValueError):
        load_header = "n=2 arities=2,2,2 seed=0\n1 1\n"
        from mrflearn.io import samples_from_text

        samples_from_text(load_header)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=2 arities=2,2 seed=0\n1 2\n2 0\n", r"row 2, column 2: '0' is not '\?' or a state in 1\.\.2"),
        ("n=2 arities=2,3\n3 1\n", r"row 1, column 1: '3' is not '\?' or a state in 1\.\.2"),
        ("n=2 arities=2,2\n1 x\n", r"row 1, column 2: 'x'"),
        ("arities=2,2 seed=0\n1 1\n", "header has no n= field"),
        ("n=2 arities=2,2 seed\n1 1\n", "header field 'seed' is not key=value"),
        ("n=2 arities=2,two\n1 1\n", "header fields must be integers"),
        ("n=2 arities=2,2\n1 1\n1\n", "row 2 has 1 cells, expected 2"),
    ],
    ids=["zero-state", "state-above-arity", "non-integer", "no-n", "no-equals", "bad-int", "short-row"],
)
def test_samples_reject_malformed_files(text, message):
    from mrflearn.io import samples_from_text

    with pytest.raises(ValueError, match=message):
        samples_from_text(text)


def test_samples_header_only_is_an_empty_sample_set():
    from mrflearn.io import samples_from_text, samples_to_text

    empty = SampleSet(np.zeros((0, 3), dtype=np.int64), (2, 3, 2), seed=5)
    text = samples_to_text(empty)
    assert text == "n=3 arities=2,3,2 seed=5\n"
    back = samples_from_text(text)
    assert back.data.shape == (0, 3)
    assert back.arities == empty.arities and back.seed == 5


def test_joint_table_roundtrip():
    model = generate_model(GeneratorSpec(n=4, seed=6))
    joint = exact_joint(model)
    back = joint_from_json_dict(joint_to_json_dict(joint), model)
    np.testing.assert_array_equal(back.probs, joint.probs)
    assert back.log_partition == joint.log_partition
