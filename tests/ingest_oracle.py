"""Reference row-by-row CSV ingest, kept as the differential oracle for `io.ingest_csv`.

This is the ingest that `dpadapt run` used before the columnar path: csv.reader
over the file, one float() per field, the checks row by row. The only changes
since then are that an undecodable file and a field over csv's size limit
raise IngestError naming the path, and that the file is read as UTF-8 whatever
the locale, less a leading byte-order mark, as `ingest_csv` reads it. The
whole byte string is decoded at once, so a decode error names its byte's
position in the file, not in a text reader's decode chunk. `ingest_csv` must return an equal
`Dataset`, or raise the same exception with the same message, on every file.
"""

from __future__ import annotations

import csv
import io
from collections import Counter

import numpy as np

from dpadapt.io import Dataset, IngestError


def ingest_csv(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    expected = ["id", "p"] + [f"x{i}" for i in range(1, len(header) - 1)]
    if len(header) < 2 or header != expected:
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
    return Dataset(ids=tuple(ids), p=np.array(p, dtype=float), x=xs)
