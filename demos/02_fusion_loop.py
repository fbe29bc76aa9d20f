"""Run the full per-timestep fusion loop on a synthetic episode.

A bright square walks across a noisy gradient background.  Keyframes
(every 3 steps) recompute everything; in between, each patch either keeps
its freshly encoded token or reuses the previous fused token, and the
fusion rate counts the reused fraction.
"""

from ttfusion import FusionConfig, SynthSpec, iter_frames, lockstep
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder

spec = SynthSpec(
    frame_count=12, width=224, height=224, walker=True, noise_amplitude=0.05, seed=7
)
config = FusionConfig(keyframe_interval=3, pixel_threshold=0.03, top_k=70)
encoder = ToyEncoder(EncoderSpec(token_dim=64, seed=7))

print(f"{'t':>3} {'keyframe':>8} {'pixel':>6} {'attn':>6} {'fused':>6} {'reuse rate':>10}")
rates, non_keyframe_rates = [], []
# lockstep runs one loop per config; with one config each frame yields [step].
for [step] in lockstep(iter_frames(spec), encoder, [config]):
    print(
        f"{step.timestep:>3} {'yes' if step.is_keyframe else '':>8}"
        f" {int(step.pixel_mask.sum()):>6} {int(step.attention_mask.sum()):>6}"
        f" {int(step.fusion_mask.sum()):>6} {step.fusion_rate:>10.4f}"
    )
    rates.append(step.fusion_rate)
    if not step.is_keyframe:
        non_keyframe_rates.append(step.fusion_rate)
print(f"\nmean fusion rate over all steps:        {sum(rates) / len(rates):.4f}")
print(f"mean fusion rate over non-keyframes:    "
      f"{sum(non_keyframe_rates) / len(non_keyframe_rates):.4f}")
print("(columns count patches marked for recomputation by each detector)")
