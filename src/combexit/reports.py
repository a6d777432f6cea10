"""Report and sample-file serialization.

JSON reports carry a schema version, the fully resolved configuration, and
sha256 fingerprints of every input consumed, so a run can be audited and
reproduced from its report alone.  Bulk exit samples travel as CSV with one
row per trajectory, encoded from and decoded into ``SampleSet`` columns
(floats in ``repr`` round-trip form).  The writer streams the file in
chunks of ``_CSV_ROWS`` rows, each formatted, encoded to ASCII, hashed and
written as bytes in turn, so the samples' fingerprint is the sha256 of the
very bytes written and the whole text is never held in memory.  The reader
parses the two columns estimators need with numpy's C reader and rejects
malformed rows, exit times that are negative or not finite, and censor
flags other than 0 or 1.  Writers stage into a temporary file next to the
destination and rename into place; a crashed run never leaves a partial
artifact under the target name.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import uuid
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .engine import SampleSet
from .estimators import synthetic_sample_set

__all__ = [
    "SCHEMA_VERSION",
    "fingerprint_bytes",
    "read_samples_csv",
    "render_report",
    "samples_to_csv",
    "write_report",
    "write_text",
]

SCHEMA_VERSION = "1"

_CSV_FIELDS = ("index", "tau", "u", "v", "censored", "passages", "steps")
# Rows formatted, hashed and written at a time.  The writer holds one
# chunk's Python floats, field tuple and text, about 0.4 KiB a row: a
# tracemalloc peak of 0.8 MiB at 2048 rows against 3.2 MiB at 8192, for the
# same 0.39 s per 200k rows.
_CSV_ROWS = 2048
_NON_BLANK = re.compile(rb"\S")
_NUMPY_ROW = re.compile(r" at row \d+")


def fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render_report(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextmanager
def _staged(path: str | Path):
    """Write atomically: yield a binary file staged in the destination
    directory, and rename it into place when the block completes.

    Each call stages into its own file, so concurrent writers to one target
    never rename each other's half-written file; the last rename wins.
    """
    path = Path(path)
    # A fresh name opened exclusively, rather than tempfile.mkstemp, so the
    # result keeps the umask-derived mode a plain open would give, not 0600.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, atomically (see ``_staged``)."""
    with _staged(path) as fh:
        fh.write(text.encode("utf-8"))


def write_report(path: str | Path, payload: dict) -> None:
    write_text(path, render_report(payload))


def samples_to_csv(samples: SampleSet, path: str | Path) -> str:
    """Write one row per trajectory to ``path``, atomically, and return the
    sha256 hex digest of the bytes written.

    Rows are formatted and written ``_CSV_ROWS`` at a time; the passages
    column is empty when untracked.
    """
    digest = hashlib.sha256()
    with _staged(path) as fh:
        for chunk in _csv_chunks(samples):
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def _csv_chunks(samples: SampleSet):
    """The CSV's bytes: the header, then blocks of ``_CSV_ROWS`` rows."""
    yield (",".join(_CSV_FIELDS) + "\n").encode("ascii")
    # bools and ints format alike under %d; floats take repr under %r
    row = "%d,%r,%r,%r,%d," + ("" if samples.passages is None else "%d") + ",%d\n"
    n = samples.total
    for lo in range(0, n, _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, n)
        cols = [range(lo, hi)] + [
            col[lo:hi].tolist()
            for col in (samples.tau, samples.u, samples.v, samples.censor,
                        samples.passages, samples.steps)
            if col is not None
        ]
        # one % over the template repeated once per row, fields row-major
        fields = tuple(chain.from_iterable(zip(*cols)))
        yield ((row * (hi - lo)) % fields).encode("ascii")


def read_samples_csv(path: str | Path, data: bytes | None = None) -> SampleSet:
    """Load exit times and censor flags back into an estimator-ready set.

    ``data`` is the file's content when the caller has already read it (to
    fingerprint the same bytes it parses); otherwise ``path`` is read.  The
    header is read with ``csv``; the ``tau`` and ``censored`` columns are
    parsed by numpy's C reader (``np.loadtxt``), whose float64 parse equals
    ``float()`` bit for bit but rejects what only Python's literal syntax
    allows, such as ``1_5``.  ``censored`` is parsed as an integer, so
    ``1.0`` is malformed.  Blank lines are skipped, and LF and CRLF line
    endings read alike.

    Censored rows sit exactly at the cap they were truncated with, so the
    cap is recovered as their maximum; a file with no censoring gets an
    infinite cap (nothing was truncated).  Errors name the bad row,
    counted from 1 after the header with blank lines skipped.
    """
    if data is None:
        data = Path(path).read_bytes()
    # loadtxt reads the rows straight from the bytes: decoding them into one
    # string first would hold four bytes per character
    fh = io.BytesIO(data)
    try:
        header = next(csv.reader([fh.readline().decode("utf-8")]), [])
    except csv.Error as exc:  # a line break inside the header line
        raise ValueError(f"sample file {path} has a malformed header ({exc})") from None
    missing = {"tau", "censored"} - set(header)
    if missing:
        raise ValueError(f"sample file {path} lacks column(s) {sorted(missing)}")
    if _NON_BLANK.search(data, fh.tell()) is None:
        raise ValueError(f"sample file {path} holds no rows")
    rows_at = fh.tell()

    def parse(max_rows=None):
        fh.seek(rows_at)
        return np.loadtxt(
            fh, delimiter=",", quotechar='"', comments=None, ndmin=1,
            usecols=(header.index("tau"), header.index("censored")),
            dtype=[("tau", np.float64), ("censored", np.int64)],
            encoding="utf-8", max_rows=max_rows)

    try:
        cols = parse()
    except ValueError as exc:
        # numpy numbers rows from 0 in a conversion error but from 1 for a
        # missing field, so find the row by parsing ever shorter prefixes
        reason = _NUMPY_ROW.sub("", str(exc))
        raise ValueError(f"sample file {path} row {_first_bad_row(parse, data)}: "
                         f"malformed ({reason})") from None
    taus, flags = cols["tau"], cols["censored"]
    for name, col, bad, want in (
        ("tau", taus, ~(np.isfinite(taus) & (taus >= 0.0)), "a finite nonnegative time"),
        ("censored", flags, (flags != 0) & (flags != 1), "0 or 1"),
    ):
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"sample file {path} row {k + 1}: {name} {col[k].item()} is not {want}"
            )
    cen = flags == 1
    cap = float(np.max(taus[cen])) if cen.any() else math.inf
    return synthetic_sample_set(taus, time_cap=cap, censored=cen)


def _first_bad_row(parse, data: bytes) -> int:
    """The first row, from 1, that ``parse(max_rows)`` fails on, found by
    bisection: ``max_rows`` counts rows and skips blank lines."""
    good, bad = 0, data.count(b"\n") + 1  # more rows than the file holds
    with warnings.catch_warnings():
        # numpy warns that blank lines no longer count towards max_rows
        warnings.simplefilter("ignore", UserWarning)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                parse(mid)
                good = mid
            except ValueError:
                bad = mid
    return bad
