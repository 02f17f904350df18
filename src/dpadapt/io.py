"""CSV ingestion, atomic writes, and report serialization.

The data schema is `id, p, x1[, x2, ...]` with a header row. A regular file
is read in batches of whole lines, each checked and parsed on its own, so
ingest holds about the dataset plus one batch; any other file is read whole
by the row loop, which words the errors of the header and of single rows.
Both paths end in one set of whole-file checks (p in [0, 1], unique ids,
finite covariates), whose errors name the offending ids. All writes stream
into a temp file that is then renamed, so an interrupted run never leaves a
truncated artifact.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import itertools
import json
import operator
import os
import tempfile
from collections import Counter
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
    covariate_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.ids)


def ingest_csv(path) -> Dataset:
    """Parse and validate a `id, p, x1[, x2, ...]` file.

    A regular file is parsed in line batches, so the peak memory is about
    the dataset plus one batch; anything else, including a file with a
    header or row the batches refuse, is read again whole and goes through
    the row loop. Both end in _dataset, so they give the same `Dataset` or
    the same error.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # a pipe cannot be read twice, so it is buffered whole
            source = fh if fh.seekable() else _stdio.StringIO(fh.read(), newline="")
            dataset = _ingest_columnar(path, source)
            if dataset is not None:
                return dataset
            source.seek(0)
            text = source.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return _ingest_rows(path, text)


def _expected_header(width: int) -> list[str]:
    return ["id", "p"] + [f"x{i}" for i in range(1, width - 1)]


# '"' starts csv quoting. loadtxt strips \x1c-\x1f around a number as
# whitespace, where float() rejects them.
_ROW_LOOP_ONLY = '"\x1c\x1d\x1e\x1f'

# Characters read per batch, then on to the end of the line: enough that
# numpy's per-call cost is small, few enough that a batch's strings stay a
# small part of the peak.
_BATCH_BYTES = 1 << 20


def _ingest_columnar(path, fh) -> Dataset | None:
    """The row loop's Dataset or IngestError for a regular file, None for any other.

    fh is a text handle opened with newline="". Regular: no quote, every \\r
    part of a \\r\\n, every row with the header's comma count and no line
    longer than csv's field limit. Each batch of whole lines is checked and
    parsed on its own. numpy parses the p and x columns with the correctly
    rounded conversion float() uses, and rejects only fields float() also
    rejects or `1_0` and non-ASCII digits, which float() accepts; those go to
    the row loop, as does a file that is not UTF-8.
    """
    header: list[str] | None = None
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    while True:
        try:
            text = fh.read(_BATCH_BYTES)
            if text and text[-1] != "\n":
                text += fh.readline()
        except UnicodeDecodeError:
            return None
        if not text:
            break
        if any(c in text for c in _ROW_LOOP_ONLY):
            return None
        if "\r" in text:
            if text.count("\r") != text.count("\r\n"):
                return None
            text = text.replace("\r\n", "\n")
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        rows = lines
        if header is None:
            header = [h.strip() for h in lines[0].split(",")]
            if header != _expected_header(len(header)):
                return None
            rows = lines[1:]
        # The comma count is a per-row check: a short row cannot balance a
        # long one, since loadtxt raises on a non-blank row that lacks a used
        # column and skips a blank one, which the row count catches.
        if (
            text.count(",") != (len(header) - 1) * len(lines)
            or max(map(len, lines)) > csv.field_size_limit()
        ):
            return None
        if not rows:
            continue
        try:
            values = np.loadtxt(
                rows, delimiter=",", usecols=range(1, len(header)),
                comments=None, quotechar=None, ndmin=2,
            )
        except ValueError:
            return None
        if len(values) != len(rows):
            return None
        blocks.append(values)
        ids.extend(row.partition(",")[0].strip() for row in rows)
    if not ids:
        return None
    p = np.concatenate([block[:, 0] for block in blocks])
    x = np.concatenate([block[:, 1:] for block in blocks]) if len(header) > 2 else None
    return _dataset(path, header, ids, p, x)


def _ingest_rows(path, text: str) -> Dataset:
    """Parse row by row with csv, wording the errors of the header and of single rows; then _dataset."""
    try:
        rows = list(csv.reader(_stdio.StringIO(text, newline="")))
    except csv.Error as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header != _expected_header(len(header)):
        raise IngestError(
            f"{path}: expected header id, p, x1, x2, ... but found {', '.join(header)}"
        )
    if len(rows) == 1:
        raise IngestError(f"{path}: no data rows")
    ids: list[str] = []
    p: list[float] = []
    x: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IngestError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
        rid = row[0].strip()
        try:
            pv = float(row[1])
            cov = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise IngestError(f"{path}: row {lineno} ({rid}): {exc}") from exc
        ids.append(rid)
        p.append(pv)
        x.append(cov)
    xs = np.array(x, dtype=float) if len(header) > 2 else None
    return _dataset(path, header, ids, np.array(p, dtype=float), xs)


def _dataset(path, header: list[str], ids: list[str], p: np.ndarray, x: np.ndarray | None) -> Dataset:
    """The parsed file as a Dataset, after the whole-file checks that both ingest paths share."""
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
    return Dataset(ids=tuple(ids), p=p, x=x, covariate_names=tuple(header[2:]))


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
    """A UTF-8 text handle on a temp file that replaces path when the block ends cleanly."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
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
