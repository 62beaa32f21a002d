"""Worker-thread control for channel-chunked work.

Chunks are independent and each worker writes a disjoint slice of a
preallocated output, so results are bitwise identical for any thread count,
including the sequential default.
"""

from concurrent.futures import ThreadPoolExecutor

from .errors import ContractError

_THREADS = 1


def set_threads(n: int) -> None:
    global _THREADS
    if n < 1:
        raise ContractError(f"thread count must be >= 1, got {n}")
    _THREADS = int(n)


def run_chunked(total: int, chunk: int, worker) -> None:
    """Call worker(start, stop) over consecutive ranges covering [0, total)."""
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    if _THREADS == 1 or len(ranges) == 1:
        for start, stop in ranges:
            worker(start, stop)
        return
    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        list(pool.map(lambda r: worker(*r), ranges))
