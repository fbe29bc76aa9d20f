"""Show that token reuse makes Q/K/V projection reuse exact and free.

A projection row is the token row times a fixed weight matrix.  When the
fusion mask keeps a token row bit-identical to the previous step, copying
the previous projection row gives exactly the same bits as recomputing it,
so the multiplications for that row are saved outright.  This checks the
equality for all three matrices on every step of a short run, as each step
completes, and totals the avoided work.
"""

from ttfusion import FusionConfig, ProjectionSet, ReuseChecker, SynthSpec, iter_frames, lockstep
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder

frames = iter_frames(
    SynthSpec(frame_count=30, width=224, height=224, walker=True, noise_amplitude=0.05, seed=5)
)
config = FusionConfig(keyframe_interval=3, token_dim=64)
checker = ReuseChecker(ProjectionSet.generate(dim=64, seed=5), rows=256)

checks, rates_match = [], True
for [step] in lockstep(frames, ToyEncoder(EncoderSpec(token_dim=64, seed=5)), [config]):
    check = checker.check(step.fused_tokens.values, step.fusion_mask)
    checks.append(check)
    rates_match = rates_match and check.reused_rows / 256 == step.fusion_rate

print(f"{'t':>3} {'reused rows':>11} {'saved mults':>12} {'max |selective - full|':>23}")
for check in checks[:10]:
    print(
        f"{check.timestep:>3} {check.reused_rows:>11} {check.saved_multiplications:>12}"
        f" {check.max_error:>23}"
    )
print("  ...")

total_saved = sum(c.saved_multiplications for c in checks)
full_cost = len(checks) * 256 * 64 * 64 * 3
worst = max(c.max_error for c in checks)
print(f"\nworst error across {len(checks)} steps and 3 matrices: {worst}")
assert worst == 0.0
print(f"saved multiplications: {total_saved:,} of {full_cost:,} "
      f"({100 * total_saved / full_cost:.1f}% of projection work)")
print("reuse fraction per step equals the fusion rate:", rates_match)
