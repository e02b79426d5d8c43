"""File formats: model JSON, sample text, joint-table JSON.

Model files carry tensors as row-major flat value lists (JSON floats
round-trip at full precision).  Sample files are line oriented: a header
``n=<n> arities=<csv> seed=<u64>`` then one row per sample with 1-based
states in plain decimal and ``?`` for erased cells.  No other spelling
of a state (``01``, ``+1``, ``1_0``, non-ASCII digits) is read.  The
token table (``_state_tokens``) is the one definition of these cell
spellings.

When every arity is at most 9 each spelling is one byte, so the file is
fixed width: every row is exactly 2n bytes, ``c c ... c`` and a newline.
That layout is written from one byte buffer and read without tokenising,
through a byte view of the token table; any other input (wide arities,
blank lines, other whitespace, bad cells) is read line by line through
the token table, which raises every error.
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


def _integer(value, field: str) -> int:
    """A model file's integer field: 3.0 reads as 3, while a fraction such
    as 3.7 is a ValueError naming the field, not a silent truncation."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def model_from_json_dict(payload: dict) -> MarkovRandomField:
    potentials = {}
    for entry in payload["tensors"]:
        verts = tuple(_integer(v, "vertices") for v in entry["vertices"])
        shape = [_integer(k, "shape") for k in entry["shape"]]
        values = np.array(entry["values"], dtype=float).reshape(shape)
        potentials[verts] = CliqueTensor(verts, values)
    return MarkovRandomField(
        n=_integer(payload["n"], "n"),
        arities=tuple(_integer(k, "arities") for k in payload["arities"]),
        potentials=potentials,
        r=_integer(payload["r"], "r"),
    )


def save_model(model: MarkovRandomField, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json_dict(model), indent=2))


def load_model(path: str | Path) -> MarkovRandomField:
    """Read a model file; one that is not a model (not JSON, a missing
    key, a tensor that does not fill its shape) raises ValueError."""
    try:
        return model_from_json_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:  # e.g. a list where an object belongs
        raise ValueError(str(exc)) from exc


#: the largest arity a sample file may declare: the token table holds one
#: string per state, so a header cannot make a reader allocate without bound
MAX_ARITY = 1 << 16


def _state_tokens(arities: tuple[int, ...]) -> list[str]:
    """The cell spellings of a file with these arities, indexed by
    state - ERASED: '?' for an erased cell, then the states 1..max arity
    in plain decimal.  The writer emits only these and the reader reads
    only these."""
    return ["?"] + [str(s) for s in range(1, max(arities, default=0) + 1)]


def _fixed_width_alphabet(arities: tuple[int, ...]) -> bytes | None:
    """The token table as one byte per cell spelling (indexed by state -
    ERASED), or None when the file is not fixed width: some spelling is
    wider than one byte (an arity above 9), or there are no columns."""
    tokens = _state_tokens(arities)
    if not arities or any(len(token) != 1 for token in tokens):
        return None
    return "".join(tokens).encode("ascii")


def _table_rows(samples: SampleSet) -> str:
    """The rows of a sample file, each cell spelled through the token table."""
    tokens = np.array(_state_tokens(samples.arities), dtype=object)
    return "".join(f"{row}\n" for row in map(" ".join, tokens[samples.data - ERASED].tolist()))


def _fixed_width_rows(samples: SampleSet, alphabet: bytes) -> str:
    """The rows of a sample file as one (m, 2n) byte buffer: a cell byte in
    each even column, a space in each odd one and a newline last."""
    rows = np.full((samples.m, 2 * samples.n), ord(" "), dtype=np.uint8)
    rows[:, 0::2] = np.frombuffer(alphabet, dtype=np.uint8)[samples.data - ERASED]
    rows[:, -1] = ord("\n")
    return rows.tobytes().decode("ascii")


def samples_to_text(samples: SampleSet) -> str:
    header = "n={} arities={} seed={}".format(
        samples.n, ",".join(str(k) for k in samples.arities), samples.seed
    )
    alphabet = _fixed_width_alphabet(samples.arities)
    rows = _table_rows(samples) if alphabet is None else _fixed_width_rows(samples, alphabet)
    return f"{header}\n{rows}"


#: the state of a cell whose token is not in the token table
_INVALID = ERASED - 1


def _bad_cells(data: np.ndarray, arities: tuple[int, ...]) -> np.ndarray:
    """Cells whose token is not in the token table or names a state at or
    above its column's arity."""
    return (data == _INVALID) | (data >= np.array(arities))


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


def _samples_from_fixed_width(text: str) -> SampleSet | None:
    """Read a file in the fixed-width layout without tokenising it, or
    return None when the text is not exactly that layout (or holds a cell
    outside the token table) so that the token-table reader decides."""
    header, newline, body = text.partition("\n")
    if not newline or header.splitlines() != [header] or not header.strip():
        return None
    # the token-table reader takes this same line as the header, so a bad
    # header raises the same error on either path
    n, arities, seed = _header(header)
    alphabet = _fixed_width_alphabet(arities)
    if alphabet is None or not body.isascii() or len(body) % (2 * n):
        return None
    rows = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(-1, 2 * n)
    separators = np.full(n, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    if not (rows[:, 1::2] == separators).all():
        return None
    states = np.full(256, _INVALID, dtype=np.int64)
    states[np.frombuffer(alphabet, dtype=np.uint8)] = np.arange(ERASED, ERASED + len(alphabet))
    data = states[rows[:, 0::2]]
    if _bad_cells(data, arities).any():
        return None
    data.flags.writeable = False
    return SampleSet(data, arities, seed=seed)


def _samples_from_table(text: str) -> SampleSet:
    """Read a sample file line by line through the token table: any
    arity and any whitespace between cells; every error is raised here."""
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
    bad = np.argwhere(_bad_cells(data, arities))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise ValueError(
            f"row {i + 1}, column {j + 1}: {rows[i][j]!r} is not '?' "
            f"or a state in 1..{arities[j]}"
        )
    return SampleSet(data, arities, seed=seed)


def samples_from_text(text: str) -> SampleSet:
    """Parse a sample file; a header with no rows is an empty sample set.

    Errors name the offending header field, or the row and column (both
    counted from 1) of a malformed cell.
    """
    samples = _samples_from_fixed_width(text)
    return samples if samples is not None else _samples_from_table(text)


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
