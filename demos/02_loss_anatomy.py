"""
Anatomy of the boundary loss
============================

The training objective pulls a linear surface toward the edge of the
data with three forces: a signed mean error that pushes the surface
through the cloud, a one-sided penalty on the worst percentile that
pushes it back out, and an anchor on the single worst point that pins
the surface against the hull.  This script evaluates each term by hand
on a tiny example and then confirms the analytic gradient against
central finite differences.
"""

import numpy as np

from eqlbounds import (
    Dataset,
    Direction,
    EqlNetwork,
    LossConfig,
    Primitive,
    directional_errors,
    forward_batch,
    gradients,
    loss_and_pred_grad,
    p_gamma_subset,
)

# ---------------------------------------------------------------------------
# A four-point dataset on a line and a network that is already an affine
# function: one identity unit (slope) and one constant unit (offset).
# ---------------------------------------------------------------------------
data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
net = EqlNetwork(
    w_in=np.array([[0.5], [0.0]]),
    primitives=(Primitive.IDENTITY, Primitive.CONSTANT),
    w_out=np.array([1.0, -2.0]),
    b_out=1.0,
)
preds = forward_batch(net, data.points)
print("predictions     :", preds)          # 0.5*x - 1.0

# For a LOWER constraint (surface <= data) the directional error is the
# target y = 0 minus the prediction; positive error means the surface is
# below.
cfg = LossConfig(alpha1=1.0, alpha2=0.5, alpha3=0.5, gamma=50.0,
                 direction=Direction.LOWER, l1=0.0, l2=0.0)
errors = directional_errors(preds, cfg.direction)
print("errors (y - f)  :", errors)

# P_gamma picks the worst gamma-percent of points -- here the top 50%,
# i.e. the two most violated indices, returned sorted.
subset = p_gamma_subset(errors, cfg.gamma)
print("worst 50% subset:", subset.tolist())

# The three terms, written out exactly as the implementation computes
# them, then compared with the breakdown from loss_and_pred_grad, which
# also returns dz/dpred (one shared value plus one per subset member) and
# the subset it used.
n = data.n_points
mean_term = cfg.alpha1 * float(np.sum(errors)) / n
percent_term = cfg.alpha2 * float(np.sum((0.0 - preds[subset]) ** 2)) / n
anchor_term = cfg.alpha3 * abs(float(np.max(errors)))
breakdown, _, _, loss_subset = loss_and_pred_grad(preds, net, cfg)
assert loss_subset.tolist() == subset.tolist()
print(f"\nmean error term  {mean_term:+.6f}   (breakdown {breakdown.term_e:+.6f})")
print(f"percentile term  {percent_term:+.6f}   (breakdown {breakdown.term_p:+.6f})")
print(f"anchor term      {anchor_term:+.6f}   (breakdown {breakdown.term_anchor:+.6f})")
print(f"total z          {breakdown.z:+.6f}")

# ---------------------------------------------------------------------------
# Gradient check: perturb one weight at a time and compare the slope of
# the loss against the analytic gradient.
# ---------------------------------------------------------------------------
_, grads = gradients(net, data, cfg)
step = 1e-6


def loss_at(w_out_0):
    shifted = EqlNetwork(net.w_in, net.primitives,
                         np.array([w_out_0, net.w_out[1]]), net.b_out)
    return loss_and_pred_grad(forward_batch(shifted, data.points), shifted, cfg)[0].z


fd = (loss_at(net.w_out[0] + step) - loss_at(net.w_out[0] - step)) / (2 * step)
print(f"\nd z / d w_out[0]: analytic {grads.d_w_out[0]:+.8f}, "
      f"finite difference {fd:+.8f}")
assert abs(grads.d_w_out[0] - fd) < 1e-6
print("analytic gradient confirmed")
