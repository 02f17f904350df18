"""CSV ingestion, atomic writes, and report serialization.

The data schema is `id, p, x1[, x2, ...]` with a header row. The file is
read once, in batches of whole lines: numpy parses them while they are
regular, and the row loop, which words the errors of the header and of
single rows, takes the first batch refused and the rest. Both end in one
set of whole-file checks (p in [0, 1], unique ids, finite covariates),
whose errors name the offending ids. All writes stream into a temp file
that is then renamed, so an interrupted run never leaves a truncated
artifact.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import itertools
import json
import operator
import os
import re
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .engine import RunResult


class IngestError(ValueError):
    """Malformed or out-of-contract input data."""


@dataclass(frozen=True)
class Dataset:
    ids: tuple[str, ...]
    p: np.ndarray
    x: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.ids)


def ingest_csv(path) -> Dataset:
    """Parse and validate a `id, p, x1[, x2, ...]` file, reading it once, in batches of whole lines.

    numpy parses the batches while they are regular, and the row loop the
    first it refuses and the rest, so the peak memory is about the dataset
    plus one batch. Every file gives the row loop's `Dataset` or error.
    """
    header, ids, blocks = None, [], []
    try:
        with open(path, "rb") as fh:
            batches = _batches(path, fh)
            for text in batches:
                names = _parse_regular(text, header, ids, blocks)
                if names is None:
                    return _ingest_rows(path, header, itertools.chain([text], batches), ids, blocks)
                header = names
    except (OSError, csv.Error) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    # the row loop words an empty file, or a header without rows
    return _dataset(path, header, ids, blocks) if ids else _ingest_rows(path, header, [], ids, blocks)


def _expected_header(width: int) -> list[str]:
    return ["id", "p"] + [f"x{i}" for i in range(1, width - 1)]


# '"' starts csv quoting. loadtxt strips \x1c-\x1f around a number as
# whitespace, where float() rejects them.
_ROW_LOOP_ONLY = '"\x1c\x1d\x1e\x1f'

# Bytes read per batch, then on to the end of the line: numpy's per-call
# cost stays small, and so does a batch's share of the peak.
_BATCH_BYTES = 1 << 20

# Rows whose Python floats the row loop holds before it packs them into a block.
_CHUNK_ROWS = 1 << 12

# A line as a file opened with newline="" yields it: up to \r\n, \r or \n.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _batches(path, fh):
    """The binary handle's lines, decoded in batches; a decode error names its byte's position in the file.

    A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is
    dropped; the positions still count it.
    """
    offset = 0
    while data := fh.read(_BATCH_BYTES):
        if not data.endswith(b"\n"):
            data += fh.readline()
        if offset == 0 and data.startswith(codecs.BOM_UTF8):
            offset = len(codecs.BOM_UTF8)
            data = data[offset:]
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # worded as decoding the whole file words it
            at, last = offset + exc.start, offset + exc.end - 1
            what = f"byte 0x{data[exc.start]:02x} in position {at}" if at == last else f"bytes in position {at}-{last}"
            raise IngestError(f"cannot read {path}: 'utf-8' codec can't decode {what}: {exc.reason}") from exc
        offset += len(data)
        del data  # the batch is parsed from its text alone
        if text:  # a file holding only the mark is empty
            yield text


def _parse_regular(text: str, header: list[str] | None, ids: list[str], blocks: list[np.ndarray]) -> list[str] | None:
    """Append a regular batch's ids and p-and-x block and return the header; None for any other batch.

    Regular: no quote, every \\r part of a \\r\\n, every row with the header's
    comma count and no line longer than csv's field limit, and every field
    one numpy parses: it rounds as float() does, and refuses only fields
    float() refuses or `1_0` and non-ASCII digits, which float() accepts.
    """
    if any(c in text for c in _ROW_LOOP_ONLY) or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    if lines[-1] == "":
        lines.pop()
    names = header or [h.strip() for h in lines[0].split(",")]
    rows = lines if header else lines[1:]
    # The comma count is a per-row check: a short row cannot balance a long
    # one, since loadtxt raises on a non-blank row that lacks a used column
    # and skips a blank one, which the row count catches.
    if (
        names != _expected_header(len(names))
        or text.count(",") != (len(names) - 1) * len(lines)
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    if rows:
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=range(1, len(names)), comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return None
        if len(values) != len(rows):
            return None
        blocks.append(values)
        ids.extend(row.partition(",")[0].strip() for row in rows)
    return names


def _ingest_rows(path, header: list[str] | None, texts, ids: list[str], blocks: list[np.ndarray]) -> Dataset:
    """Parse row by row with csv, wording the errors of the header and of single rows; then _dataset.

    texts are the batches left, the first starting with the header if header
    is None; the row numbers go on from the rows in ids. A csv or decode
    error anywhere wins, so the header's and rows' errors wait for the end.
    """
    reader = csv.reader(m.group() for text in texts for m in _LINE.finditer(text))

    def refuse(message: str) -> IngestError:
        deque(reader, maxlen=0)  # read on to the end of the file
        return IngestError(f"{path}: {message}")

    if header is None:
        first = next(reader, None)
        if first is None:
            raise IngestError(f"{path}: file is empty")
        header = [h.strip() for h in first]
        if header != _expected_header(len(header)):
            raise refuse(f"expected header id, p, x1, x2, ... but found {', '.join(header)}")
    chunk: list[list[float]] = []
    for lineno, row in enumerate(reader, start=len(ids) + 2):
        if len(row) != len(header):
            raise refuse(f"row {lineno} has {len(row)} fields, expected {len(header)}")
        try:
            chunk.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise refuse(f"row {lineno} ({row[0].strip()}): {exc}") from exc
        ids.append(row[0].strip())
        if len(chunk) == _CHUNK_ROWS:
            blocks.append(np.array(chunk))
            chunk = []
    if not ids:
        raise IngestError(f"{path}: no data rows")
    if chunk:
        blocks.append(np.array(chunk))
    return _dataset(path, header, ids, blocks)


def _dataset(path, header: list[str], ids: list[str], blocks: list[np.ndarray]) -> Dataset:
    """The rows, as blocks of p and x columns, as a Dataset after the whole-file checks both paths share."""
    p = np.concatenate([block[:, 0] for block in blocks])
    x = np.concatenate([block[:, 1:] for block in blocks]) if len(header) > 2 else None
    in_range = (p >= 0.0) & (p <= 1.0)
    if not in_range.all():
        bad_p = [ids[i] for i in np.flatnonzero(~in_range)]
        raise IngestError(f"{path}: p outside [0, 1] for ids: {', '.join(bad_p)}")
    # a strictly increasing list, as a sorted file's, has no duplicate
    if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))) and len(set(ids)) != len(ids):
        dup = sorted(rid for rid, count in Counter(ids).items() if count > 1)
        raise IngestError(f"{path}: duplicate ids: {', '.join(dup)}")
    if x is not None and not np.isfinite(x).all():
        bad_x = [ids[i] for i in np.flatnonzero(~np.isfinite(x).all(axis=1))]
        raise IngestError(f"{path}: non-finite covariates for ids: {', '.join(bad_x)}")
    return Dataset(ids=tuple(ids), p=p, x=x)


def _fmt(v: float) -> str:
    return "%.17g" % v


def write_csv_atomic(path, header, rows) -> None:
    """Write a header and rows as CSV with "\n" line ends, atomically."""
    with _atomic_text(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_text_atomic(path, text: str) -> None:
    with _atomic_text(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _atomic_text(path):
    """A UTF-8 text handle on a temp file that replaces path when the block ends cleanly.

    The temp file is created with mode 0666 less the umask, as open() would
    create path itself; os.replace keeps that mode.
    """
    directory, name = os.path.split(os.fspath(path))
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}{name}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_json(result: RunResult, seed, config: dict, extra: dict | None = None) -> str:
    """Serialize a run's outcome and config, its echo, with the same keys for
    every method; extra adds or replaces keys."""
    payload = {
        "rejected": list(result.rejected),
        "n_rejected": len(result.rejected),
        "private": result.private,
        "trajectory": [
            {"t": int(t), "a": int(a), "r": int(r), "fdr_hat": f}
            for t, a, r, f in result.trajectory.tolist()
        ],
        "stop_t": result.stop_t,
        "seed": seed,
        "config": config,
        "model": result.model,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_rejections_csv(path, rows) -> None:
    """Rows of (id, noisy_p, threshold) for the rejected hypotheses."""
    write_csv_atomic(
        path,
        ["id", "noisy_p", "threshold"],
        ([rid, _fmt(noisy_p), _fmt(threshold)] for rid, noisy_p, threshold in rows),
    )
