"""Self-test of the output checks: broken outputs must be caught.

    python3 perfbench/selftest.py

On a small broken graph the correct decrease repair and detection must pass
the checks, and each of three corruptions must fail them: the delta with one
entry dropped, the delta with one sign flipped, and a wrong broken-triangle
count.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import check

# Vertices 0-3: edge (0, 1) = 5 is longer than its distance 2 (0-2-1) and
# (2, 3) = 4 longer than its distance 2 (2-1-3); all four triangles are broken.
GRAPH = "0 1 5\n0 2 1\n1 2 1\n0 3 2\n1 3 1\n2 3 4\n"
GOOD_DELTA = "0\t1\t-3\n2\t3\t-2\n# omega=decrease support_size=2 is_metric_after=true\n"
DROPPED = "0\t1\t-3\n# omega=decrease support_size=1 is_metric_after=true\n"
FLIPPED = "0\t1\t-3\n2\t3\t2\n# omega=decrease support_size=2 is_metric_after=true\n"


def run() -> list[str]:
    """Failures of the checker; empty when it catches every corruption."""
    inst = check.read_instance(GRAPH, is_matrix=False)
    count = check.broken_triangle_count(inst)
    detection = {"is_metric": False, "witness": [[0, 2, 1], [0, 1]], "triangles": count}
    problems = []

    def expect(ok: bool, errors: list, what: str) -> None:
        if ok != (not errors):
            problems.append(f"{what}: {'rejected' if errors else 'accepted'} ({errors})")

    expect(True, check.check_repair(inst, "decrease", GOOD_DELTA)
           + check.check_decrease_exact(inst, GOOD_DELTA), "correct repair")
    expect(True, check.check_detect(inst, detection), "correct detection")
    expect(False, check.check_repair(inst, "decrease", DROPPED)
           + check.check_decrease_exact(inst, DROPPED), "repair with an entry dropped")
    expect(False, check.check_repair(inst, "decrease", FLIPPED), "repair with a sign flipped")
    expect(False, check.check_detect(inst, {**detection, "triangles": count + 1}),
           "wrong triangle count")
    if count != 4:
        problems.append(f"reference counts {count} broken triangles, expected 4")
    return problems


if __name__ == "__main__":
    failures = run()
    for failure in failures:
        print(f"FAILED {failure}")
    print("checker self-test", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)
