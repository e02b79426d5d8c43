"""File formats: model JSON, sample text, joint-table JSON.

Model files carry tensors as row-major flat value lists (JSON floats
round-trip at full precision).  Sample files are line oriented: a header
``n=<n> arities=<csv> seed=<u64>`` then one row per sample with 1-based
states in plain decimal and ``?`` for erased cells.  No other spelling
of a state (``01``, ``+1``, ``1_0``, non-ASCII digits) is read.
"""

from __future__ import annotations

import itertools
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


#: the largest arity a sample file may declare: the token table holds one
#: string per state, so a header cannot make a reader allocate without bound
MAX_ARITY = 1 << 16


def _state_tokens(arities: tuple[int, ...]) -> list[str]:
    """The cell spellings of a file with these arities, indexed by
    state - ERASED: '?' for an erased cell, then the states 1..max arity
    in plain decimal.  The writer emits only these and the reader reads
    only these."""
    return ["?"] + [str(s) for s in range(1, max(arities, default=0) + 1)]


def samples_to_text(samples: SampleSet) -> str:
    header = "n={} arities={} seed={}".format(
        samples.n, ",".join(str(k) for k in samples.arities), samples.seed
    )
    tokens = np.array(_state_tokens(samples.arities), dtype=object)
    rows = map(" ".join, tokens[samples.data - ERASED].tolist())
    return "\n".join([header, *rows]) + "\n"


#: the state of a cell whose token is not in the token table
_INVALID = ERASED - 1


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
    if not all(1 <= k <= MAX_ARITY for k in arities):
        raise ValueError(
            f"header arities={fields['arities']} must each lie in 1..{MAX_ARITY}"
        )
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
    rows = [line.split() for line in lines[1:]]
    for i, cells in enumerate(rows, start=1):
        if len(cells) != n:
            raise ValueError(f"row {i} has {len(cells)} cells, expected {n}")
    states = {token: s for s, token in enumerate(_state_tokens(arities), start=ERASED)}
    cells = itertools.chain.from_iterable(rows)
    data = np.fromiter(
        map(states.get, cells, itertools.repeat(_INVALID)), np.int64, len(rows) * n
    ).reshape(len(rows), n)
    bad = np.argwhere((data == _INVALID) | (data >= np.array(arities)))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise ValueError(
            f"row {i + 1}, column {j + 1}: {rows[i][j]!r} is not '?' "
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
