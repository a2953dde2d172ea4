"""Set-up's fresh-interpreter import of the library, calibrated in its own process.

    PYTHONPATH=src python3 benchmarks/import_probe.py

Prints the seconds of `import neighbornet.cli`, as measured and calibrated:
divided by how much slower than REF_S an interpreted kernel runs in this
process, timed three times before and three times after the import. The
benchmark's own kernels cannot calibrate it, because the speed phases of two
processes differ: over 4 minutes the import time correlated at 0.84 with this
process's kernel and at 0.54 with the benchmark's (README, "Noise"). Nothing
is imported before the import under test but `time`.
"""
import time

REF_S = 0.0015  # seconds the kernel takes in the machine's fast phase


def kernel():
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    table = {}
    for i in range(2000):
        table[i] = (i, float(i))
    return acc


def slowdown() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1] / REF_S


before = slowdown()
t0 = time.perf_counter()
import neighbornet.cli  # noqa: E402,F401

seconds = time.perf_counter() - t0
print(seconds, seconds / ((before + slowdown()) / 2))
