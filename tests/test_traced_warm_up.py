"""The benchmark's traced path, on the workloads' own warm-up inputs.

``perfbench/run.py --trace 1`` differs from an untraced run only in the
wrappers of ``perfbench/spans.py``, which bind each call's arguments by name
and read its result to count the work done. A renamed argument or result key
therefore breaks the traced benchmark run alone; this test runs the same
wrappers over every workload's warm-up.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_warm_ups_fill_every_work_counter():
    tracer = spans.Tracer()
    with tracer:
        for workload in workloads.WORKLOADS.values():
            workload.warm_up()
    assert [s.name for s in tracer.spans if s.error] == []
    computed = {(s.name, counter) for s in tracer.spans for counter in (s.work or {})}
    expected = {(name, counter) for name, counters in spans.WORK.items() for counter in counters}
    assert computed == expected, expected - computed
    assert spans.wrapped_callables() == []
