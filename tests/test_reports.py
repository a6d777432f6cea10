"""Report and sample-file writers and the sample-file reader."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from combexit import reports
from combexit.estimators import synthetic_sample_set
from combexit.reports import read_samples_csv, samples_to_csv, write_text


def test_concurrent_writers_to_one_target(tmp_path):
    target = tmp_path / "report.json"
    texts = ["a" * 50_000 + "\n", "b" * 70_000 + "\n"]
    errors = []

    def writer(text):
        try:
            for _ in range(200):
                write_text(target, text)
        except Exception as exc:  # surfaced below; a thread cannot raise
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert target.read_text(encoding="utf-8") in texts
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_csv_write_keeps_the_old_target(tmp_path, monkeypatch):
    target = tmp_path / "samples.csv"
    target.write_bytes(b"old bytes\n")
    good = synthetic_sample_set([1.0, 2.0, 3.0, 4.0], time_cap=10.0)
    # a steps value that %d refuses, in the second chunk of two rows
    bad = dataclasses.replace(
        good, steps=np.array([1, 2, "three", 4], dtype=object))
    monkeypatch.setattr(reports, "_CSV_ROWS", 2)
    written = []
    chunks = reports._csv_chunks

    def counted(samples):
        for chunk in chunks(samples):
            written.append(chunk)
            yield chunk

    monkeypatch.setattr(reports, "_csv_chunks", counted)
    with pytest.raises(TypeError):
        samples_to_csv(bad, target)
    assert len(written) == 2  # the header and the first chunk were written
    assert target.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_blank_lines_and_crlf_read_like_lf(tmp_path):
    lf = ("index,tau,u,v,censored,passages,steps\n"
          "0,1.5,1.0,0.25,0,,12\n1,0.125,-1.0,0.5,1,,7\n2,3.0,0.0,1.0,0,,3\n")
    variants = [lf.replace("\n", "\r\n"), lf.replace("\n", "\n\n"),
                lf.replace("\n", "\r\n\r\n")]
    (tmp_path / "lf.csv").write_bytes(lf.encode())
    want = read_samples_csv(tmp_path / "lf.csv")
    assert want.tau.tolist() == [1.5, 0.125, 3.0]
    assert want.censor.tolist() == [False, True, False]
    for k, text in enumerate(variants):
        path = tmp_path / f"v{k}.csv"
        path.write_bytes(text.encode())
        got = read_samples_csv(path)
        assert np.array_equal(got.tau, want.tau)
        assert np.array_equal(got.censor, want.censor)
        assert got.params.time_cap == want.params.time_cap
        # bytes already read parse exactly like the file
        again = read_samples_csv(path, path.read_bytes())
        assert np.array_equal(again.tau, want.tau)
