"""The benchmark's workloads: which `ttf` commands run on which inputs.

Every workload uses the paper's simulation settings (keyframe interval 3,
pixel threshold 0.03, top-k 70, text-to-vision attention, d = 64) and
differs in frame size, how much the frames change, where frames and
attention come from, and which subcommands run.  Why each one exists is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Relative to the checkout root, which is the working directory of every
# command; relative paths keep report.json bytes independent of where the
# checkout lives (the config echo stores frames_dir and attention_dir).
WORK_DIR = Path(".bench_work")

SWEEP_PARAMETER = "K"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # frame width and height in pixels
    frames: int  # frames per episode
    change_fraction: float  # share of patches repainted per frame
    noise: float  # per-pixel noise amplitude
    from_files: bool  # frames and attention read from disk, run replayed by verify-qreuse
    sweep_values: tuple[int, ...] = ()  # keyframe intervals for `ttf sweep`; empty runs `ttf run`

    @property
    def points(self) -> int:
        """Fusion runs per command: one per sweep value, else one."""
        return len(self.sweep_values) or 1

    @property
    def work_dir(self) -> Path:
        return WORK_DIR / self.name

    def config_text(self, seed: int) -> str:
        lines = [
            f"seed = {seed}",
            f"width = {self.size}",
            f"height = {self.size}",
            "keyframe_interval = 3",
            "pixel_threshold = 0.03",
            "top_k = 70",
            "attention_mode = text_to_vision",
            "selection_mode = top_k",
            "token_dim = 64",
        ]
        if self.from_files:
            lines += [
                f"frames_dir = {(self.work_dir / 'frames').as_posix()}",
                "attention_source = tensor_files",
                f"attention_dir = {(self.work_dir / 'attention').as_posix()}",
                "emit_masks = true",
                "emit_tokens = true",
            ]
        else:
            lines += [
                f"synth_frames = {self.frames}",
                "synth_walker = true",
                f"synth_change_fraction = {self.change_fraction}",
                f"synth_noise = {self.noise}",
            ]
        return "\n".join(lines) + "\n"

    def commands(self, config: Path, out: Path) -> list[list[str]]:
        """The `ttf` argument lists of one iteration, run in order."""
        if self.sweep_values:
            values = ",".join(str(v) for v in self.sweep_values)
            return [
                ["sweep", "--config", str(config), "--param", SWEEP_PARAMETER,
                 "--values", values, "--out", str(out)]
            ]
        run = ["run", "--config", str(config), "--out", str(out)]
        if self.from_files:
            return [run, ["verify-qreuse", "--run", str(out)]]
        return [run]

    def report_paths(self) -> list[str]:
        """report.json files of one iteration, relative to its output dir."""
        if self.sweep_values:
            return [f"{SWEEP_PARAMETER}_{v}/report.json" for v in self.sweep_values]
        return ["report.json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reuse-224", size=224, frames=100, change_fraction=0.05, noise=0.02,
                 from_files=False),
        Workload("churn-224", size=224, frames=60, change_fraction=0.0, noise=0.1,
                 from_files=True),
        Workload("sweep-448", size=448, frames=24, change_fraction=0.05, noise=0.02,
                 from_files=False, sweep_values=(1, 3, 6)),
    )
}
