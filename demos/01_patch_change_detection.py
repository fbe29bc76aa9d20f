"""Walk through the two change detectors on a hand-built frame pair.

A gray frame is perturbed in two patches: one gets uniformly brighter (a
clear pixel-level change), one gets a single hot pixel (averaged away by
the per-patch mean).  The attention detector then picks the brightest
patches from a synthetic attention slice.
"""

import numpy as np

from ttfusion import (
    TEXT_TO_VISION,
    FrameObservation,
    PatchGrid,
    patch_diffs,
    relevance_scores,
    synth_attention,
    threshold_diffs,
    to_grayscale,
    top_k_mask,
)
from ttfusion.toy_encoder import EncoderSpec

WIDTH = HEIGHT = 56  # 4x4 grid, 16 patches
grid = PatchGrid.from_dims(WIDTH, HEIGHT)

before = np.full((HEIGHT, WIDTH, 3), 100, dtype=np.uint8)
after = before.copy()

u0, v0, u1, v1 = grid.patch_region(5)
after[u0 : u1 + 1, v0 : v1 + 1] += 30  # whole patch brightens
u0, v0, u1, v1 = grid.patch_region(10)
after[u0 + 2, v0 + 7] = 255  # one hot pixel

frame_before = FrameObservation(pixels=before, timestep=0)
frame_after = FrameObservation(pixels=after, timestep=1)

diffs = patch_diffs(to_grayscale(frame_after), to_grayscale(frame_before), grid)
pixel_mask = threshold_diffs(diffs, threshold=0.03)
print("pixel detector (threshold 0.03):")
print(f"{'patch':>5} {'mean abs diff':>14} {'recompute?':>10}")
for i in range(grid.patch_count):
    if diffs[i] > 0:
        print(f"{i:>5} {diffs[i]:>14.6f} {'yes' if pixel_mask[i] else 'no'}")
print(f"patches flagged: {sorted(int(i) for i in np.nonzero(pixel_mask)[0])}")
print("the single hot pixel in patch 10 stays below the threshold:",
      f"{diffs[10]:.6f} <= 0.03")

spec = EncoderSpec(token_dim=16, seed=0, text_token_count=4, head_count=2)
slice_ = synth_attention(frame_after, spec)
scores = relevance_scores(slice_, TEXT_TO_VISION)
attention_mask = top_k_mask(scores, k=4)
print("\nattention detector (top-4 of the text-to-vision scores):")
print("selected patches:", sorted(int(i) for i in np.nonzero(attention_mask)[0]))
print("score range: %.5f .. %.5f" % (scores.min(), scores.max()))
print("patches 5 and 10 score above the flat background; the leftover budget")
print("goes to the lowest tied indices (the deterministic tie rule).")
