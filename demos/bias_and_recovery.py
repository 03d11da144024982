"""Estimating systematic boundary bias and undoing it exactly.

A segmenter trained on expansion-biased labels predicts masks that sit one
ring too wide. The mean gap between its signed distance fields and those of
a few clean masks measures that bias; thresholding the shifted field undoes
it. With an exact one-step predictor a single clean image is enough for a
perfect recovery.
"""

from segnoise import (bayes_mask_one_step, centered_disk, dice, estimate_bias,
                      naive_correct, signed_distance)

masks = [centered_disk((48, 48), radius=r) for r in (8, 11, 14, 17)]

# the most-likely mask after one expansion-biased step (theta1=0.7,
# theta2=0.9) is the one-pixel dilation; this predictor returns its SDF
biased = [signed_distance(bayes_mask_one_step(m, 0.7, 0.9)) for m in masks]
print("dice of the biased predictions:",
      [round(dice(phi <= 0, m), 3) for phi, m in zip(biased, masks)])

est = estimate_bias(biased[:1], [signed_distance(masks[0])])
print(f"\nbias estimated from ONE clean image: delta_hat = {est.delta_hat:.4f}")
print("(negative: predictions run wide; magnitude just over one ring)")

recovered = [naive_correct(phi, est.delta_hat) for phi in biased]
print("\ndice after shifting the field by delta_hat and re-thresholding:",
      [round(dice(r, m), 3) for r, m in zip(recovered, masks)])
assert all(dice(r, m) == 1.0 for r, m in zip(recovered, masks))

# imperfect predictors: per-image offsets with mean magnitude eps0 = 1 (at
# most eps1 = 2) make the estimate noisy, and more validation images buy it back
offsets = (2.0, 2.0, 0.0, 0.0)
preds = [phi + a for phi, a in zip(biased, offsets)]
for v in (1, 4):
    est = estimate_bias(preds[:v], [signed_distance(m) for m in masks[:v]])
    print(f"\nwith per-image offsets, V={v}: delta_hat = {est.delta_hat:+.4f}")
