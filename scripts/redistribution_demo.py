"""Income pooling walkthrough: attribution, then the payout dial.

Runs one simulated day, attributes each driver's share of the fleet's total
income by exact Shapley values over coalition resimulations, then sweeps the
risk parameter r from 0 (full pooling) to 1 (keep what you earned) in both
payout modes. For every grid point the table reports the payout total, the
payout-to-value spread, the mean gain from extra attributed value, and
whether every driver clears the guaranteed floor min(r*v_i, (1-r)*v_i).

Usage:
    python3 scripts/redistribution_demo.py --drivers 5 --epochs 30
"""

import argparse

from fairpool.city import gen_grid_city
from fairpool.cli import BOUND_TOLERANCE
from fairpool.demand import batch_requests, synth_demand
from fairpool.fleet import init_fleet
from fairpool.matching import DelayConstraints
from fairpool.objectives import ObjectiveSpec
from fairpool.redistribution import (
    RedistributionParams,
    ResimulationOracle,
    mean_gain,
    minimum_wage_bound,
    redistribute,
    shapley_exact,
)
from fairpool.reporting import income_value_spread
from fairpool.simulate import run_simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--drivers", type=int, default=5,
                        help="fleet size; exact attribution resimulates 2^n coalitions")
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--rate", type=float, default=5.0)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--skew", type=float, default=0.6)
    args = parser.parse_args()

    graph = gen_grid_city(5, 5, 1.0, 5.0, 4, args.seed)
    batches = batch_requests(synth_demand(graph, args.rate, args.epochs, args.skew, args.seed))
    fleet = init_fleet(graph, args.drivers, args.capacity, args.seed)
    spec = ObjectiveSpec("income")

    result = run_simulation(graph, batches, fleet, spec, DelayConstraints())
    pi_by_driver = result.incomes()
    driver_ids = sorted(pi_by_driver)
    pi = [pi_by_driver[d] for d in driver_ids]

    oracle = ResimulationOracle(graph, batches, init_fleet(graph, args.drivers, args.capacity, args.seed), spec)
    estimate = shapley_exact(oracle)
    v = list(estimate.values)

    print(f"{'driver':>6} {'earned pi':>10} {'shapley v':>10}")
    for d, p, s in zip(driver_ids, pi, v):
        print(f"{d:>6} {p:>10.2f} {s:>10.2f}")
    print(f"{'total':>6} {sum(pi):>10.2f} {sum(v):>10.2f}")
    print()

    header = f"{'mode':<12} {'r':>4} {'sum(q)':>9} {'std(q/v)':>9} {'mean gain':>10} {'floor':>6}"
    print(header)
    print("-" * len(header))
    for mode in ("as_printed", "keep_income"):
        for r in [i / 10 for i in range(11)]:
            params = RedistributionParams(r=r, mode=mode)
            q = redistribute(pi, v, params)
            spread = income_value_spread(q, v)
            gain = mean_gain(pi, v, params)
            floor_ok = all(
                qi >= minimum_wage_bound(vi, r) - BOUND_TOLERANCE for qi, vi in zip(q, v)
            )
            print(
                f"{mode:<12} {r:>4.1f} {sum(q):>9.2f} {spread:>9.4f} "
                f"{gain:>10.4f} {'ok' if floor_ok else 'FAIL':>6}"
            )
        print()

    total = max(sum(v), 1e-12)
    print("attribution shares: " + " ".join(f"{x / total:.3f}" for x in v))
    print(f"coalitions resimulated: {oracle.coalitions}")


if __name__ == "__main__":
    main()
