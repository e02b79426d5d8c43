import json

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


def test_model_fields_written_as_integral_floats_load_as_integers():
    model = generate_model(GeneratorSpec(n=5, r=3, max_arity=3, seed=2))
    payload = model_to_json_dict(model)
    as_floats = dict(payload, n=float(payload["n"]), r=float(payload["r"]),
                     arities=[float(k) for k in payload["arities"]],
                     tensors=[dict(t, vertices=[float(v) for v in t["vertices"]],
                                   shape=[float(k) for k in t["shape"]])
                              for t in payload["tensors"]])
    # json.dumps spells 3.0 and 3 differently, so this also checks the types
    assert json.dumps(model_to_json_dict(model_from_json_dict(as_floats))) == json.dumps(payload)


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


def _reference_text(samples):
    """The sample format written out cell by cell."""
    lines = ["n={} arities={} seed={}".format(
        samples.n, ",".join(str(k) for k in samples.arities), samples.seed
    )]
    for row in samples.data:
        lines.append(" ".join("?" if c == ERASED else str(int(c) + 1) for c in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [0, 1, 200])
@pytest.mark.parametrize("erased_share", [0.0, 0.4])
def test_samples_text_matches_a_cell_by_cell_reference(m, erased_share):
    from mrflearn.io import samples_from_text, samples_to_text

    arities = tuple(range(2, 13))  # states 10..12 take two characters
    rng = np.random.default_rng(m)
    data = np.stack([rng.integers(k, size=m) for k in arities], axis=1)
    data = np.where(rng.random(data.shape) < erased_share, ERASED, data)
    samples = SampleSet(data, arities, seed=2**63 + m)
    text = samples_to_text(samples)
    assert text == _reference_text(samples)
    back = samples_from_text(text)
    np.testing.assert_array_equal(back.data, samples.data)
    assert back.arities == arities and back.seed == samples.seed


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
        ("n=2 arities=2,2\n01 1\n", r"row 1, column 1: '01' is not '\?' or a state in 1\.\.2"),
        ("n=2 arities=2,2\n1 +1\n", r"row 1, column 2: '\+1'"),
        ("n=2 arities=12,2\n1_0 1\n", r"row 1, column 1: '1_0' is not '\?' or a state in 1\.\.12"),
        ("n=2 arities=2,2\n2 \uff11\n", "row 1, column 2: '\uff11'"),
        ("n=2 arities=-2,2\n1 1\n", r"header arities=-2,2 must each lie in 1\.\.65536"),
        ("n=2 arities=2,0\n1 1\n", r"header arities=2,0 must each lie in 1\.\.65536"),
        ("n=1 arities=65537\n1\n", r"header arities=65537 must each lie in 1\.\.65536"),
    ],
    ids=[
        "zero-state", "state-above-arity", "non-integer", "no-n", "no-equals", "bad-int",
        "short-row", "leading-zero", "plus-sign", "underscore", "fullwidth-digit",
        "negative-arity", "zero-arity", "arity-above-cap",
    ],
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


def _random_samples(rng, arities, m, erased_share):
    data = np.stack([rng.integers(k, size=m) for k in arities], axis=1)
    data = np.where(rng.random(data.shape) < erased_share, ERASED, data)
    return SampleSet(data, arities, seed=int(rng.integers(2**63)))


def _read_outcome(read, text):
    try:
        samples = read(text)
    except ValueError as err:
        return str(err)
    return samples.data.tolist(), samples.arities, samples.seed


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("m", [0, 1, 300])
@pytest.mark.parametrize("erased_share", [0.0, 0.3])
def test_fixed_width_text_matches_the_token_table(k, m, erased_share):
    from mrflearn.io import (
        _samples_from_fixed_width,
        _samples_from_table,
        _table_rows,
        samples_to_text,
    )

    rng = np.random.default_rng([k, m, int(10 * erased_share)])
    for n in (1, 2, 7):
        arities = (*(int(a) for a in rng.integers(1, k + 1, size=n - 1)), k)
        samples = _random_samples(rng, arities, m, erased_share)
        text = samples_to_text(samples)
        header, _, rows = text.partition("\n")
        assert rows == _table_rows(samples) and len(rows) == m * 2 * n
        want = (samples.data.tolist(), arities, samples.seed)
        assert _read_outcome(_samples_from_fixed_width, text) == want
        assert _read_outcome(_samples_from_table, text) == want


#: single characters the mutations insert or write: cells, separators, every
#: str.splitlines break in ASCII, and bytes outside the format
_MUTATION_CHARS = "0123456789? \n\r\t\x0b\x0cx+-"


@pytest.mark.parametrize("seed", range(60))
def test_fixed_width_reader_agrees_with_the_token_table_on_mutated_files(seed):
    from mrflearn.io import _samples_from_table, samples_from_text, samples_to_text

    rng = np.random.default_rng(seed)
    k, n, m = int(rng.integers(1, 10)), int(rng.integers(1, 6)), int(rng.integers(0, 8))
    arities = (*(int(a) for a in rng.integers(1, k + 1, size=n - 1)), k)
    text = samples_to_text(_random_samples(rng, arities, m, 0.2))
    for _ in range(20):
        pos = int(rng.integers(len(text)))
        char = _MUTATION_CHARS[rng.integers(len(_MUTATION_CHARS))]
        kind = rng.integers(3)
        if kind == 0:  # insert
            mutated = text[:pos] + char + text[pos:]
        elif kind == 1:  # delete
            mutated = text[:pos] + text[pos + 1:]
        else:  # replace
            mutated = text[:pos] + char + text[pos + 1:]
        assert _read_outcome(samples_from_text, mutated) == _read_outcome(
            _samples_from_table, mutated
        ), repr(mutated)


@pytest.mark.parametrize("arities, table_reads", [((2, 9, 3), 0), ((2, 10, 3), 1)])
def test_only_wide_arities_take_the_token_table_reader(monkeypatch, arities, table_reads):
    from mrflearn import io as mlio

    samples = _random_samples(np.random.default_rng(7), arities, 50, 0.2)
    text = mlio.samples_to_text(samples)
    assert text == _reference_text(samples)
    reads = []
    table = mlio._samples_from_table
    monkeypatch.setattr(mlio, "_samples_from_table", lambda t: reads.append(t) or table(t))
    back = mlio.samples_from_text(text)
    assert len(reads) == table_reads
    np.testing.assert_array_equal(back.data, samples.data)
    assert back.arities == arities and back.seed == samples.seed


def test_joint_table_roundtrip():
    model = generate_model(GeneratorSpec(n=4, seed=6))
    joint = exact_joint(model)
    back = joint_from_json_dict(joint_to_json_dict(joint), model)
    np.testing.assert_array_equal(back.probs, joint.probs)
    assert back.log_partition == joint.log_partition
