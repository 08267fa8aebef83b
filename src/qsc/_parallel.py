"""Thread count of the package's computations.

Every computation runs on the calling thread; ``thread_count`` reports that
to callers that record it, such as the benchmark's machine record.
"""


def thread_count() -> int:
    return 1
