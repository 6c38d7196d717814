"""How Sybil placement changes with attack-edge density.

Builds the same honest network at several densities phi (attack edges per
honest node) and shows how many Sybils the placement needs, how the edges
spread, and which scenario the density falls into.  No training involved;
this only exercises the graph layer.

    python3 demos/03_attack_planner.py
"""

from sybilsim.topology import build_attack_network

HONEST = 16
RADIUS = 0.7
DEGREE_BOUND = 8
SEED = 7


def main():
    print(f"{HONEST} honest nodes, radius {RADIUS}, degree bound {DEGREE_BOUND}\n")
    print(f"{'phi':>5} {'scenario':<12} {'sybils':>6} {'attack edges':>12} "
          f"{'per honest':>11}")
    for phi in (0.25, 0.5, 1.0, 2.0, 4.0):
        honest_g, plan, full_g = build_attack_network(
            HONEST, RADIUS, DEGREE_BOUND, phi, SEED
        )
        counts = plan.edges_per_honest()
        per_honest = [counts.get(i, 0) for i in sorted(honest_g.nodes)]
        print(f"{phi:5.2f} {plan.scenario:<12} {plan.sybil_count:6d} "
              f"{len(plan.attack_edges):12d} "
              f"{min(per_honest):5d}..{max(per_honest)}")
        degrees = [len(full_g.neighbors(i)) for i in sorted(full_g.nodes)]
        assert max(degrees) <= DEGREE_BOUND

    print("\nedge totals are ceil(honest * phi): every honest node takes")
    print("total // honest of them and the k-medoids the remainder, so counts")
    print("stay within one of each other; capping the honest graph at the bound")
    print("minus ceil(total / honest) leaves every node room for its edges.")
    print(f"max observed degree: {max(degrees)}")

    other = 60
    honest_g, plan, _ = build_attack_network(other, 0.3, DEGREE_BOUND, 1.0, SEED)
    print(f"\nscales up too: {other} honest nodes -> {plan.sybil_count} sybils, "
          f"{len(plan.attack_edges)} attack edges")


if __name__ == "__main__":
    main()
