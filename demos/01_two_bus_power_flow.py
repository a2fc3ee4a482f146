"""Newton power flow on a two-bus link, checked against the closed form.

A single line with r = 0.05 pu, x = 0 admits a quadratic for the receiving-end
voltage, which makes this the smallest meaningful end-to-end check: the Newton
solution, the constraint residuals, and the adjoint sensitivity can all be
compared against hand arithmetic.
"""
import math

import numpy as np

from fairhc.netmodel import NormalizedFeeder
from fairhc.powerflow import (
    adjoint_gradient,
    constraint_residuals,
    residual_labels,
    solve_power_flow,
)

R = 0.05


def two_bus(v_max=1.05):
    return NormalizedFeeder(
        bus_ids=("slack", "pv"),
        slack=0,
        from_bus=np.array([0]), to_bus=np.array([1]),
        g=np.array([1.0 / R]), b=np.array([0.0]),
        s_rated=np.array([5.0]),
        v_min=np.full(2, 0.90), v_max=np.full(2, v_max),
        dtheta_min=np.full(2, -math.radians(10)), dtheta_max=np.full(2, math.radians(10)),
        load_bus=np.array([1]), p_demand=np.zeros(1), q_demand=np.zeros(1),
        slack_p_max=100.0, slack_q_max=100.0,
        dg_cap=2.0, s_base=1.0, v_base=230.0,
    )


def closed_form_v2(p_net):
    """High-voltage root of V2^4 - (1 + 2 r p) V2^2 + r^2 p^2 = 0."""
    a = 1.0 + 2.0 * R * p_net
    return math.sqrt((a + math.sqrt(a * a - 4.0 * R * R * p_net * p_net)) / 2.0)


def main():
    nf = two_bus()
    print("injection   V2 (Newton)   V2 (closed form)   |error|")
    for p in (0.0, 0.25, 0.5, 0.75, 1.0, 1.05):
        state = solve_power_flow(nf, np.array([p]))
        exact = closed_form_v2(p)
        print(f"{p:9.2f}   {state.v[1]:.9f}   {exact:.9f}        {abs(state.v[1] - exact):.2e}")

    state = solve_power_flow(nf, np.array([1.05]))
    res = constraint_residuals(state, nf)
    print(f"\nat p = 1.05 pu the upper-voltage margin at bus 2 is {res.v_upper[1]:.2e} pu"
          " (binding)")

    # sensitivity of that margin to the injection, adjoint vs finite differences
    w = np.zeros(len(residual_labels(nf)))
    w[1] = 1.0  # v_upper at bus 2
    grad = adjoint_gradient(nf, np.array([1.05]), w)
    h = 1e-6
    fd = -(closed_form_v2(1.05 + h) - closed_form_v2(1.05 - h)) / (2 * h)
    print(f"d(margin)/d(injection): adjoint {grad[0]:.6f}, closed-form FD {fd:.6f}")


if __name__ == "__main__":
    main()
