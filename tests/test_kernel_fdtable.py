"""Unit tests for fd tables and refcounted file descriptions."""

import pytest

from repro.kernel.fdtable import BadFdError, EmfileError, FdTable, FileDescription


def make_desc():
    return FileDescription(object(), kind="socket")


def test_install_returns_lowest_free_fd():
    table = FdTable(limit=8)
    fds = [table.install(make_desc()) for __ in range(3)]
    assert fds == [0, 1, 2]


def test_close_frees_slot_for_reuse():
    table = FdTable(limit=8)
    fd0 = table.install(make_desc())
    table.install(make_desc())
    table.close(fd0)
    assert table.install(make_desc()) == fd0


def test_get_returns_description():
    table = FdTable(limit=8)
    desc = make_desc()
    fd = table.install(desc)
    assert table.get(fd) is desc


def test_get_bad_fd_raises():
    table = FdTable(limit=8)
    with pytest.raises(BadFdError):
        table.get(0)


def test_double_close_raises():
    table = FdTable(limit=8)
    fd = table.install(make_desc())
    table.close(fd)
    with pytest.raises(BadFdError):
        table.close(fd)


def test_limit_enforced():
    table = FdTable(limit=2)
    table.install(make_desc())
    table.install(make_desc())
    with pytest.raises(EmfileError):
        table.install(make_desc())


def test_refcounting_calls_on_last_close():
    closed = []

    class Sock:
        def on_last_close(self):
            closed.append(True)

    desc = FileDescription(Sock(), kind="socket")
    t1 = FdTable(limit=8, owner="sup")
    t2 = FdTable(limit=8, owner="wrk")
    fd1 = t1.install(desc)
    fd2 = t2.install(desc)
    t1.close(fd1)
    assert closed == []
    t2.close(fd2)
    assert closed == [True]


def test_install_after_full_close_raises():
    desc = make_desc()
    table = FdTable(limit=8)
    fd = table.install(desc)
    table.close(fd)
    with pytest.raises(BadFdError):
        table.install(desc)  # description fully closed


def test_close_all():
    table = FdTable(limit=8)
    for __ in range(5):
        table.install(make_desc())
    table.close_all()
    assert len(table) == 0


def test_len_and_contains():
    table = FdTable(limit=8)
    fd = table.install(make_desc())
    assert len(table) == 1
    assert fd in table
    assert 99 not in table
