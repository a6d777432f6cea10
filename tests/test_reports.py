"""Report and sample-file writers."""

import sys
import threading

from combexit.reports import write_text


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
