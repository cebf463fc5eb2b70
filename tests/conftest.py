import pytest

from localsgd_lab import engine


@pytest.fixture
def partition_seeds(monkeypatch):
    """partition_seeds(k) makes every engine.run_batch call simulate its seeds
    in consecutive chunks of k; returns the list the chunk sizes go into."""

    def partition(k: int) -> list[int]:
        whole = engine.run_batch
        sizes: list[int] = []

        def chunked(problem, config, seeds):
            seeds = list(seeds)
            runs = []
            for i in range(0, len(seeds), k):
                sizes.append(len(seeds[i:i + k]))
                runs += whole(problem, config, seeds[i:i + k])
            return runs

        monkeypatch.setattr(engine, "run_batch", chunked)
        return sizes

    return partition
