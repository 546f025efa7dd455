import pytest

from maxplus_martin import parallel


@pytest.mark.parametrize("raw,cpus,want", [
    (None, 8, 4),
    (None, 2, 2),
    ("0", 8, 4),
    ("3", 8, 3),
    (" 1 ", 8, 1),
    ("1000000", 8, 8),
    ("1000000", 2, 2),
    ("1000000", None, 1),
], ids=["unset", "unset-2-cpus", "0", "3", "1", "1000000", "1000000-2-cpus",
        "1000000-unknown-cpus"])
def test_worker_count_is_bounded_by_the_cpu_count(monkeypatch, raw, cpus, want):
    # counts only: no pool is started
    if raw is None:
        monkeypatch.delenv("MAXPLUS_THREADS", raising=False)
    else:
        monkeypatch.setenv("MAXPLUS_THREADS", raw)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.worker_count() == want


@pytest.mark.parametrize("raw,message", [
    ("abc", "MAXPLUS_THREADS must be an integer, got 'abc'"),
    ("-1", "MAXPLUS_THREADS must be nonnegative"),
])
def test_worker_count_refuses_a_bad_setting(monkeypatch, raw, message):
    monkeypatch.setenv("MAXPLUS_THREADS", raw)
    with pytest.raises(ValueError) as info:
        parallel.worker_count()
    assert str(info.value) == message
