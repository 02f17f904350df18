"""CSV ingestion, canonical emission, atomic writes, and report serialization.

The data schema is `id, p, x1[, x2, ...]` with a header row. A regular file
is read in batches of whole lines, each checked and parsed on its own, so
ingest holds about the dataset plus one batch; any other file is read whole
by the row loop. Canonical files are sorted by id and use %.17g floats, so
ingest followed by emit is byte-identical on them. All writes stream into a
temp file that is then renamed, so an interrupted run never leaves a
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
from .selection import validate_inputs


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
    the dataset plus one batch; anything else, including every file that
    fails a check, is read again whole and goes through the row loop, which
    alone words the errors. Both give the same `Dataset`.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # a pipe cannot be read twice, so it is buffered whole
            source = fh if fh.seekable() else _stdio.StringIO(fh.read(), newline="")
            dataset = _ingest_columnar(source)
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


def _ingest_columnar(fh) -> Dataset | None:
    """The row loop's result for a regular file that passes every check, else None.

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
    try:
        validate_inputs(p, x)
    except ValueError:
        return None
    # a strictly increasing list, as a canonical file's, has no duplicate
    if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))) and len(set(ids)) != len(ids):
        return None
    return Dataset(ids=tuple(ids), p=p, x=x, covariate_names=tuple(header[2:]))


def _ingest_rows(path, text: str) -> Dataset:
    """Parse row by row with csv; every IngestError about the file's contents comes from here."""
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
    n_cov = len(header) - 2
    ids: list[str] = []
    p: list[float] = []
    x: list[list[float]] = []
    bad_p: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IngestError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
        rid = row[0].strip()
        try:
            pv = float(row[1])
            cov = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise IngestError(f"{path}: row {lineno} ({rid}): {exc}") from exc
        if not 0.0 <= pv <= 1.0:
            bad_p.append(rid)
        ids.append(rid)
        p.append(pv)
        x.append(cov)
    if bad_p:
        raise IngestError(f"{path}: p outside [0, 1] for ids: {', '.join(bad_p)}")
    if len(set(ids)) != len(ids):
        dup = sorted(rid for rid, count in Counter(ids).items() if count > 1)
        raise IngestError(f"{path}: duplicate ids: {', '.join(dup)}")
    xs = np.array(x, dtype=float) if n_cov else None
    if xs is not None and not np.isfinite(xs).all():
        bad_x = [ids[i] for i in np.flatnonzero(~np.isfinite(xs).all(axis=1))]
        raise IngestError(f"{path}: non-finite covariates for ids: {', '.join(bad_x)}")
    return Dataset(
        ids=tuple(ids),
        p=np.array(p, dtype=float),
        x=xs,
        covariate_names=tuple(header[2:]),
    )


def _fmt(v: float) -> str:
    return "%.17g" % v


def emit_csv(dataset: Dataset, path) -> None:
    """Write the dataset in canonical form: ids sorted, %.17g floats."""
    order = sorted(range(dataset.n), key=lambda i: dataset.ids[i])
    x = dataset.x if dataset.x is not None else np.empty((dataset.n, 0))
    write_csv_atomic(
        path,
        ["id", "p", *dataset.covariate_names],
        ([dataset.ids[i], _fmt(dataset.p[i]), *map(_fmt, x[i])] for i in order),
    )


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
