"""Sweep the keyframe interval and watch the fusion rate climb.

Keyframes force full recomputation, so spacing them further apart leaves
more steps free to reuse tokens: the mean fusion rate rises monotonically
with the interval and flattens once keyframes are rare.
"""

from ttfusion import FusionConfig, SynthSpec, iter_frames, lockstep
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder

frames = iter_frames(
    SynthSpec(
        frame_count=120,
        width=224,
        height=224,
        walker=True,
        change_fraction=0.02,
        noise_amplitude=0.08,
        seed=1,
    )
)
encoder = ToyEncoder(EncoderSpec(token_dim=64, seed=1))
intervals = (2, 3, 5, 10, 15, 20, 30, 50, 100)

# One pass over the frames runs all nine intervals: each frame is
# generated, converted to grayscale and encoded once for all of them.
rates = {interval: [] for interval in intervals}
non_keyframe_rates = {interval: [] for interval in intervals}
for steps in lockstep(frames, encoder, [FusionConfig(keyframe_interval=k) for k in intervals]):
    for interval, step in zip(intervals, steps):
        rates[interval].append(step.fusion_rate)
        if not step.is_keyframe:
            non_keyframe_rates[interval].append(step.fusion_rate)

print(f"{'interval':>8} {'mean rate (all)':>16} {'mean rate (non-kf)':>19}")
for interval in intervals:
    mean_all = sum(rates[interval]) / len(rates[interval])
    mean_non_keyframe = sum(non_keyframe_rates[interval]) / len(non_keyframe_rates[interval])
    print(f"{interval:>8} {mean_all:>16.4f} {mean_non_keyframe:>19.4f}")
print("\nnon-keyframe rates barely move; the all-steps mean is driven by how")
print("often a keyframe pins the rate to zero.")
