"""Tracing the stability surface of a fluid system with continuous channels.

With continuous link capacities the region stops being a polytope: every
direction contributes a supporting half-plane and the boundary is a smooth
convex curve.  For two independent exponential links sharing one server
the curve has a closed form, which makes a good end-to-end check of the
tracer: it computes every direction's support value exactly and brackets
the boundary between the envelope of the support lines and a floor of
chords under it.  Writes the traced curve to fluid_boundary.csv.
"""

import csv

from mqms import (
    ContinuousChannelModel,
    LinkDistribution,
    boundary_trace,
    exp_2q_boundary,
)

MU1, MU2 = 2.0, 1.0
model = ContinuousChannelModel.of(
    [[LinkDistribution("exponential", mean=MU1)], [LinkDistribution("exponential", mean=MU2)]]
)

curve = boundary_trace(model, directions=181)
print(f"traced {len(curve.lambda1)} boundary points from {curve.directions} exact support lines; "
      f"bracket width at most {curve.stderr.max():.1e}")

print("\n lambda1   traced    closed-form   rel.err")
for l1 in (0.0, 0.5, 1.0, 1.5, 1.9):
    idx = int(round(l1 / 2.0 * (len(curve.lambda1) - 1)))
    traced = curve.lambda2[idx]
    exact = exp_2q_boundary(MU1, MU2, curve.lambda1[idx])
    rel = abs(traced - exact) / exact if exact else 0.0
    print(f"  {curve.lambda1[idx]:.2f}     {traced:.6f}  {exact:.6f}      {rel:.3%}")

with open("fluid_boundary.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["lambda1", "lambda2", "bracket_width", "closed_form"])
    for l1, l2, se in zip(curve.lambda1, curve.lambda2, curve.stderr):
        writer.writerow([f"{l1:.6f}", f"{l2:.6f}", f"{se:.2e}",
                         f"{exp_2q_boundary(MU1, MU2, l1):.6f}"])
print("\nwrote fluid_boundary.csv (plot lambda2 over lambda1 to see the surface)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    ax.plot(curve.lambda1, curve.lambda2, label="envelope of exact support lines")
    exact = [exp_2q_boundary(MU1, MU2, l1) for l1 in curve.lambda1]
    ax.plot(curve.lambda1, exact, "--", label="closed form")
    ax.set_xlabel("rate of queue 1")
    ax.set_ylabel("rate of queue 2")
    ax.set_title(f"fluid stability boundary (means {MU1}, {MU2})")
    ax.legend()
    fig.tight_layout()
    fig.savefig("fluid_boundary.png", dpi=120)
    print("wrote fluid_boundary.png")
except ImportError:
    pass
