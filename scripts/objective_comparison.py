"""Compare the four dispatch objectives on paired demand streams.

Every objective replays the same seeded demand, so differences in the
printed metrics come from the matching decisions alone. The fairness
objectives trade total income against their penalty term; the table shows
how much income spread (driver side) or success-rate spread (rider side)
that buys at each lambda.

Usage:
    python3 scripts/objective_comparison.py --seeds 5 --rate 6.0 --epochs 40
"""

import argparse

from fairpool.city import gen_grid_city
from fairpool.demand import batch_requests, synth_demand
from fairpool.fleet import init_fleet
from fairpool.matching import DelayConstraints
from fairpool.objectives import ObjectiveSpec, pairwise_sum
from fairpool.reporting import fairness_metrics
from fairpool.simulate import run_simulation

# Rider-side weights need to be large because a single epoch moves the
# cumulative success-rate variance by far less than one fare; past ~1e4 the
# penalty goes degenerate at this scale (equalizing by serving nobody).
SETTINGS = [
    ("requests", 0.0),
    ("income", 0.0),
    ("driver_fairness", 1.0 / 6.0),
    ("driver_fairness", 4.0 / 6.0),
    ("driver_fairness", 1.0),
    ("rider_fairness", 3000.0),
]


def run_cell(args, kind, lam, seed):
    graph = gen_grid_city(args.width, args.width, 1.0, 5.0, args.neighborhoods, seed)
    batches = batch_requests(synth_demand(graph, args.rate, args.epochs, args.skew, seed))
    fleet = init_fleet(graph, args.drivers, args.capacity, seed)
    result = run_simulation(
        graph, batches, fleet, ObjectiveSpec(kind, lam), DelayConstraints()
    )
    return fairness_metrics(result)


def mean(xs: list[float]) -> float:
    """numpy's float64 mean, bit for bit: its pairwise sum over the count."""
    return pairwise_sum(xs) / len(xs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of paired demand streams")
    parser.add_argument("--rate", type=float, default=6.0, help="mean requests per epoch")
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--drivers", type=int, default=5)
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--width", type=int, default=5, help="grid side length")
    parser.add_argument("--neighborhoods", type=int, default=4)
    parser.add_argument("--skew", type=float, default=0.6, help="hotspot demand share")
    args = parser.parse_args()

    header = (
        f"{'objective':<16} {'lambda':>8} {'income':>9} {'Var(pi)':>9} "
        f"{'min(pi)':>8} {'success':>8} {'Var(rate)':>10}"
    )
    print(header)
    print("-" * len(header))
    for kind, lam in SETTINGS:
        reports = [run_cell(args, kind, lam, seed) for seed in range(args.seeds)]
        income = mean([r.total_income for r in reports])
        income_var = mean([r.income_var for r in reports])
        income_min = mean([r.income_min for r in reports])
        success = mean([r.overall_success_rate or 0.0 for r in reports])
        rate_var = mean([r.success_rate_var or 0.0 for r in reports])
        print(
            f"{kind:<16} {lam:>8g} {income:>9.1f} {income_var:>9.1f} "
            f"{income_min:>8.1f} {success:>8.2f} {rate_var:>10.4f}"
        )
    print(f"\naverages over {args.seeds} paired seeds, "
          f"{args.drivers} drivers, {args.rate:g} requests/epoch, {args.epochs} epochs")


if __name__ == "__main__":
    main()
