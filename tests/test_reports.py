"""Report and sample-file writers and the sample-file reader."""

import sys
import threading

import numpy as np

from combexit.reports import read_samples_csv, write_text


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
