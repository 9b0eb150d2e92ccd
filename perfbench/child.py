"""One benchmark round in a fresh process: import ``qcausal.cli``, run one invocation.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py SPEC`` where
SPEC is a JSON object:

- ``argv``: arguments for ``qcausal.cli.main``, or null to import only;
- ``trace``: whether to record spans (see ``tracing.py``);
- ``mechanism_spans``, ``per_record``, ``trace_out``: tracing settings.

Prints one JSON line with the CPU time the process spent until the CLI was
imported and ready (``setup_cpu_s``), the wall and CPU time of the ``main``
call, the CPU time of a fixed reference computation (``reference_cpu_s``)
run just before and just after ``main``, the CLI's exit code and the peak
resident memory, plus the per-layer figures when traced.  CPU time is
``time.process_time``, the process's ``CLOCK_PROCESS_CPUTIME_ID``: time the
process spends waiting for a core, or that the hypervisor steals from its
virtual core, does not count.  The process exits with the CLI's exit code.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import qcausal.cli  # noqa: E402

SETUP_CPU_S = time.process_time()


def reference_cpu_s(iterations: int = 4000) -> float:
    """CPU time of a fixed piece of work that does not use ``qcausal``.

    Small complex matrix factorisations and products, binomial draws and
    Python arithmetic, the mix that ``qcausal`` spends its time on.  Its
    time tells how fast this core runs right now.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    t0 = time.process_time()
    acc = 0.0
    for i in range(iterations):
        q, _ = np.linalg.qr(m)
        acc += float(np.abs((q @ e0)[0]) ** 2) + sum(k * k % 7 for k in range(40))
        acc += float(rng.binomial(1000, 0.3, size=3).sum()) / (i + 1)
    return time.process_time() - t0


def main() -> int:
    import json
    import resource

    spec = json.loads(sys.argv[1])
    if spec["argv"] is None:
        return 0
    ref_before_s = reference_cpu_s()
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, _ROOT)
        from perfbench.tracing import Tracer

        tracer = Tracer(spec["mechanism_spans"])
        tracer.install()
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        code = qcausal.cli.main(spec["argv"])
    finally:
        end = time.perf_counter()
        cpu_s = time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
    ref_after_s = reference_cpu_s()
    result = {
        "setup_cpu_s": SETUP_CPU_S,
        "start": start,
        "end": end,
        "cpu_s": cpu_s,
        "ref_before_s": ref_before_s,
        "ref_after_s": ref_after_s,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(end - start, spec["per_record"])
        tracer.write(spec["trace_out"])
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
