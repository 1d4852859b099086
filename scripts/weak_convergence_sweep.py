#!/usr/bin/env python3
"""Pointer-width sweep on the three-box configuration.

Shows how the conditional pointer mean for the post-selected outcome moves
from the projective average toward coupling * (-1), the weak value of the
box-3 projector, as the pointer widens, and how Monte Carlo estimates track
the closed form. The pointer density stays non-negative at every width even
though the underlying joint quasi-probability of box 3 is -1/9.
"""

from __future__ import annotations

import argparse
import math

from kdqlab import PointerConfig, PointerStatistics, sample_moments, three_box


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coupling", type=float, default=1.0)
    parser.add_argument("--shots", type=int, default=200000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    kd = three_box().kd
    a, basis_m, basis_b = kd.state_a, kd.basis_m, kd.basis_b
    g = args.coupling

    print(f"three-box pointer sweep: coupling={g}, kappa=(0,0,1), shots={args.shots}, seed={args.seed}")
    print(f"{'s/g':>8}  {'mean/g (closed)':>16}  {'mean/g (sampled)':>17}  {'|mean/g + 1|':>13}  {'n_b':>7}")
    for ratio in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        cfg = PointerConfig(coupling=g, width=ratio * g, eigenvalue=(0.0, 0.0, 1.0))
        closed = PointerStatistics(a, basis_m, basis_b, cfg).mean[0] / g
        count, mean = sample_moments(a, basis_m, basis_b, cfg, args.shots, args.seed)
        empirical = mean[0] / g if count[0] else math.nan
        print(f"{ratio:8.1f}  {closed:16.9f}  {empirical:17.9f}  {abs(closed + 1.0):13.3e}  {count[0]:7d}")
    print("weak value of the box-3 projector between a and b: -1 (the readout target)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
