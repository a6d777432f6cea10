"""Report and sample-file serialization.

JSON reports carry a schema version, the fully resolved configuration, and
sha256 fingerprints of every input consumed, so a run can be audited and
reproduced from its report alone.  Bulk exit samples travel as CSV with one
row per trajectory.  Writers stage into a temporary file next to the
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
import uuid
from pathlib import Path

import numpy as np

from .engine import SampleSet
from .estimators import synthetic_sample_set

__all__ = [
    "SCHEMA_VERSION",
    "fingerprint_bytes",
    "fingerprint_file",
    "read_samples_csv",
    "render_report",
    "samples_to_csv",
    "write_report",
    "write_samples_csv",
    "write_text",
]

SCHEMA_VERSION = "1"

_CSV_FIELDS = ("index", "tau", "u", "v", "censored", "passages", "steps")


def fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint_file(path: str | Path) -> str:
    return fingerprint_bytes(Path(path).read_bytes())


def render_report(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write atomically: stage in the destination directory, then rename.

    Each call stages into its own file, so concurrent writers to one target
    never rename each other's half-written file; the last rename wins.
    """
    path = Path(path)
    # A fresh name opened exclusively, rather than tempfile.mkstemp, so the
    # result keeps the umask-derived mode a plain open would give, not 0600.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_report(path: str | Path, payload: dict) -> None:
    write_text(path, render_report(payload))


def samples_to_csv(samples: SampleSet) -> str:
    """One row per trajectory; the passages column is empty when untracked."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for i, s in enumerate(samples.samples):
        writer.writerow(
            (
                i,
                repr(s.tau),
                repr(s.exit_point[0]),
                repr(s.exit_point[1]),
                int(s.censored),
                "" if s.passages is None else s.passages,
                s.steps,
            )
        )
    return buf.getvalue()


def write_samples_csv(path: str | Path, samples: SampleSet) -> None:
    write_text(path, samples_to_csv(samples))


def read_samples_csv(path: str | Path) -> SampleSet:
    """Load exit times and censor flags back into an estimator-ready set.

    Censored rows sit exactly at the cap they were truncated with, so the
    cap is recovered as their maximum; a file with no censoring gets an
    infinite cap (nothing was truncated).
    """
    taus: list[float] = []
    censored: list[bool] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(("tau", "censored")) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(
                f"sample file {path} lacks column(s) {sorted(missing)}"
            )
        for row in reader:
            taus.append(float(row["tau"]))
            censored.append(bool(int(row["censored"])))
    if not taus:
        raise ValueError(f"sample file {path} holds no rows")
    cen = np.asarray(censored, dtype=bool)
    cap = float(np.max(np.asarray(taus)[cen])) if cen.any() else math.inf
    return synthetic_sample_set(taus, time_cap=cap, censored=cen)
