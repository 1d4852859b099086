#!/usr/bin/env python3
"""Run every built-in paradox scenario and print a one-line summary each.

Exit code 0 when every check of every scenario passes, 3 otherwise.
"""

from __future__ import annotations

import sys

from kdqlab import SCENARIO_NAMES, build


def main() -> int:
    all_ok = True
    for name in SCENARIO_NAMES:
        report = build(name)
        neg = report.negativity
        status = "PASS" if report.passed else "FAIL"
        all_ok &= report.passed
        print(
            f"{status}  {report.scenario:<13} dim={report.dim}  checks={len(report.checks)}"
            f"  min_real={neg.min_real:+.6f} at {neg.argmin}"
            f"  total_negativity={neg.total_negativity:.6f}"
        )
        if report.violated_inequality:
            print(f"      violates: {report.violated_inequality}")
        failed = [c for c in report.checks if not c.passed]
        for check in failed:
            print(f"      FAIL {check.name}: expected {check.expected}, got {check.got}")
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
