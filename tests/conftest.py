import os

import pytest

from localsgd_lab import engine, harness


def open_fds() -> set[str]:
    """This process's open file descriptors, or none where /proc/self/fd does not exist."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every child a test forks, the engine's noise child included, is reaped by
    its end, and the test leaves no file descriptor open that it opened."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() <= before


@pytest.fixture
def partition_seeds(monkeypatch):
    """partition_seeds(k, cells) makes every engine.run_cells call, the harness's
    included, simulate its seeds in consecutive chunks of k and its configs in
    consecutive chunks of `cells` (None keeps them all in one call); returns the
    list the (configs, seeds) size of every call goes into."""
    whole = engine.run_cells

    def partition(k: int | None = None, cells: int | None = None) -> list[tuple[int, int]]:
        sizes: list[tuple[int, int]] = []

        def chunked(problem, configs, seeds):
            configs, seeds = list(configs), list(seeds)
            out = []
            for lo in range(0, len(configs), cells or len(configs)):
                part = configs[lo:lo + (cells or len(configs))]
                lanes = [[] for _ in part]
                for i in range(0, len(seeds), k or len(seeds)):
                    chunk = seeds[i:i + (k or len(seeds))]
                    sizes.append((len(part), len(chunk)))
                    for lane, runs in zip(lanes, whole(problem, part, chunk)):
                        lane += runs
                out += lanes
            return out

        monkeypatch.setattr(engine, "run_cells", chunked)
        monkeypatch.setattr(harness, "run_cells", chunked)
        return sizes

    return partition
