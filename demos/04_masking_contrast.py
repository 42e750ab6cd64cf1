"""
What weight masking does to the extracted constraint
====================================================

During training, any weight whose magnitude drops below the mask
threshold is set to exactly zero and frozen there.  The payoff is
symbolic: a slope that decays through the threshold disappears from the
constraint entirely instead of lingering as numerical dust.  This script
trains the same seed twice -- once with masking, once without -- and
prints the two constraints side by side.
"""

import numpy as np

from eqlbounds import LossConfig, TrainConfig, constraint_text, paper_dataset, train

data = paper_dataset("square-high", seed=0)
loss_cfg = LossConfig()
SEED = 38   # a seed whose X0 slope decays toward zero during training


def run(mask_threshold):
    cfg = TrainConfig(epochs=400, learning_rate=1e-3,
                      mask_threshold=mask_threshold, seed=SEED)
    return train(data, loss_cfg, cfg)


masked_net, masked = run(0.001)
plain_net, plain = run(0.0)   # a threshold of 0 masks nothing

print(f"seed {SEED}, 400 epochs, identical initialization\n")
print(f"  masked (threshold 0.001): {constraint_text(masked.constraint)}")
print(f"  unmasked                : {constraint_text(plain.constraint)}")

print("\ncoefficients:")
for i, name in enumerate(data.feature_names):
    print(f"  {name}: masked {masked.constraint.coeffs[i]:+.6f}   "
          f"unmasked {plain.constraint.coeffs[i]:+.6f}")

# The masked run's zero is exact -- the weight was frozen, not rounded.
zeroed = np.flatnonzero(masked.constraint.coeffs == 0.0)
print(f"\nexactly-zero coefficients in the masked constraint: "
      f"{[data.feature_names[i] for i in zeroed]}")
assert zeroed.size > 0

# Inside the network, a frozen weight is one that is exactly zero.
for label, net in (("masked", masked_net), ("unmasked", plain_net)):
    print(f"zero weights, {label}: {int((net.w_in == 0.0).sum())} of {net.w_in.size} "
          f"input, {int((net.w_out == 0.0).sum())} of {net.w_out.size} output")
print(f"violation rates: masked {masked.violation_rate:.2f}%, "
      f"unmasked {plain.violation_rate:.2f}%")
