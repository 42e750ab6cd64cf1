"""
Training bounding lines for the square dataset
==============================================

The high-granularity square preset is 600 points filling [-5, 25]^2
except for the half-plane X0 + 2*X1 <= 4, so the generating edge is
2 <= 0.5*X0 + X1.  Training does not promise to recover those exact
coefficients: different seeds settle on different supporting lines of
the data hull (some even come out as upper bounds after
canonicalization, when the learned slopes are negative).  What the
method does promise is the score -- almost all of the data ends up on
the feasible side of each learned line.  This script runs ten seeds and
ranks them by that score.
"""

from eqlbounds import (
    LossConfig,
    TrainConfig,
    constraint_text,
    export_history_csv,
    paper_dataset,
    train_multi,
    violation_rate,
)

data = paper_dataset("square-high", seed=0)

# Defaults everywhere except the learning rate: 1e-3 is the tuned value
# for these presets (larger rates diverge, smaller ones just train
# slower -- see the README).
loss_cfg = LossConfig()          # alpha=(1.0, 0.5, 0.5), gamma=5.0, LOWER
train_cfg = TrainConfig(
    epochs=400,
    learning_rate=1e-3,
    mask_threshold=0.001,
    seed=24,
    runs=10,
)

results = train_multi(data, loss_cfg, train_cfg)

print("rank  seed  violation%  constraint")
for rank, (net, report) in enumerate(results):
    print(f"{rank:4d}  {report.seed:4d}  {report.violation_rate:9.2f}   "
          f"{constraint_text(report.constraint)}")

best_net, best = results[0]
print(f"\nbest run: seed {best.seed}, {best.violation_rate:.2f}% of "
      f"{data.n_points} points on the wrong side")
print(f"learned : {constraint_text(best.constraint)}")
print("(generating edge for reference: 2 <= 0.5*X0 + X1)")
assert violation_rate(best.constraint, data) == best.violation_rate

# Loss history of the best run, one row per epoch -- handy for plotting
# the three terms as training settles.
export_history_csv(best, "demo-square-history.csv")
z = best.records[:, 0]
print(f"\nwrote demo-square-history.csv "
      f"(z: {z[0]:+.3f} at epoch 0 -> {z[-1]:+.3f} at epoch {len(z) - 1})")
