"""File formats: model JSON, sample text, joint-table JSON.

Model files carry tensors as row-major flat value lists (JSON floats
round-trip at full precision).  Sample files are line oriented: a header
``n=<n> arities=<csv> seed=<u64>`` then one row per sample with 1-based
states and ``?`` for erased cells.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .inference import JointTable
from .model import CliqueTensor, MarkovRandomField
from .sampling import ERASED, SampleSet


def model_to_json_dict(model: MarkovRandomField) -> dict:
    return {
        "n": model.n,
        "arities": list(model.arities),
        "r": model.r,
        "tensors": [
            {
                "vertices": list(verts),
                "shape": list(tensor.values.shape),
                "values": tensor.values.ravel().tolist(),
            }
            for verts, tensor in sorted(model.potentials.items())
        ],
    }


def model_from_json_dict(payload: dict) -> MarkovRandomField:
    potentials = {}
    for entry in payload["tensors"]:
        verts = tuple(int(v) for v in entry["vertices"])
        values = np.array(entry["values"], dtype=float).reshape(entry["shape"])
        potentials[verts] = CliqueTensor(verts, values)
    return MarkovRandomField(
        n=int(payload["n"]),
        arities=tuple(int(k) for k in payload["arities"]),
        potentials=potentials,
        r=int(payload["r"]),
    )


def save_model(model: MarkovRandomField, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json_dict(model), indent=2))


def load_model(path: str | Path) -> MarkovRandomField:
    return model_from_json_dict(json.loads(Path(path).read_text()))


def samples_to_text(samples: SampleSet) -> str:
    header = "n={} arities={} seed={}".format(
        samples.n, ",".join(str(k) for k in samples.arities), samples.seed
    )
    lines = [header]
    for row in samples.data:
        lines.append(
            " ".join("?" if cell == ERASED else str(int(cell) + 1) for cell in row)
        )
    return "\n".join(lines) + "\n"


#: a cell that is neither '?' nor a state of its column
_INVALID = ERASED - 1


class _StateTokens(dict):
    """Cell text -> 0-based state for one column of arity k: '?' is ERASED,
    an integer in 1..k is that state less one, and anything else is
    _INVALID.  Valid tokens are remembered the first time they are seen."""

    def __init__(self, k: int):
        super().__init__({"?": ERASED})
        self.k = k

    def __missing__(self, token: str) -> int:
        try:
            state = int(token) - 1
        except ValueError:
            return _INVALID
        if not 0 <= state < self.k:
            return _INVALID
        self[token] = state
        return state


def _header(line: str) -> tuple[int, tuple[int, ...], int]:
    fields = {}
    for part in line.split():
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"header field {part!r} is not key=value")
        fields[key] = value
    for key in ("n", "arities"):
        if key not in fields:
            raise ValueError(f"header has no {key}= field")
    try:
        n = int(fields["n"])
        arities = tuple(int(k) for k in fields["arities"].split(","))
        seed = int(fields.get("seed", "0"))
    except ValueError:
        raise ValueError(f"header fields must be integers: {line!r}") from None
    if len(arities) != n:
        raise ValueError("header arity count does not match n")
    return n, arities, seed


def samples_from_text(text: str) -> SampleSet:
    """Parse a sample file; a header with no rows is an empty sample set.

    Errors name the offending header field, or the row and column (both
    counted from 1) of a malformed cell.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty sample file")
    n, arities, seed = _header(lines[0])
    tokens = [_StateTokens(k) for k in arities]
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split()
        if len(cells) != n:
            raise ValueError(f"row {i} has {len(cells)} cells, expected {n}")
        rows.append([states[c] for states, c in zip(tokens, cells)])
    data = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    bad = np.argwhere(data == _INVALID)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        cell = lines[i + 1].split()[j]
        raise ValueError(
            f"row {i + 1}, column {j + 1}: {cell!r} is not '?' "
            f"or a state in 1..{arities[j]}"
        )
    return SampleSet(data, arities, seed=seed)


def save_samples(samples: SampleSet, path: str | Path) -> None:
    Path(path).write_text(samples_to_text(samples))


def load_samples(path: str | Path) -> SampleSet:
    return samples_from_text(Path(path).read_text())


def joint_to_json_dict(joint: JointTable) -> dict:
    """Serialize a joint table for regression comparisons; probabilities
    are flattened in the mixed-radix (node 0 most significant) order."""
    return {
        "arities": list(joint.arities),
        "log_partition": joint.log_partition,
        "probs": joint.probs.ravel().tolist(),
    }


def joint_from_json_dict(payload: dict, model: MarkovRandomField) -> JointTable:
    arities = tuple(int(k) for k in payload["arities"])
    if arities != model.arities:
        raise ValueError("joint table arities do not match the model")
    probs = np.array(payload["probs"], dtype=float).reshape(arities)
    probs.flags.writeable = False
    return JointTable(
        model=model, probs=probs, log_partition=float(payload["log_partition"])
    )
