import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ttfusion.experiment
import ttfusion.fusion
from ttfusion.experiment import (
    TensorFileAttentionEncoder,
    build_encoder,
    load_frames_dir,
    open_frames,
    run_experiment,
    run_points,
    run_sweep,
)
from ttfusion.fusion import lockstep
from ttfusion.projection import ProjectionSet, ReuseChecker
from ttfusion.report import build_report, serialize_report, step_record
from ttfusion.runconfig import ConfigError, apply_parameter, build_run_config, config_echo
from ttfusion.synthetic import SynthSpec, generate_frames, write_sequence
from ttfusion.tensor_io import TensorFormatError, write_tensor
from ttfusion.toy_encoder import EncoderSpec


def small_values(**overrides):
    values = {
        "synth_frames": 5,
        "width": 28,
        "height": 28,
        "token_dim": 8,
        "top_k": 1,
        "seed": 3,
        "keyframe_interval": 100,
    }
    values.update(overrides)
    return values


def run_steps(config):
    """The run's steps, from ``lockstep`` over the same frames and encoder
    as ``run_experiment``."""
    frames, count = open_frames(config)
    return [step for [step] in lockstep(frames, build_encoder(config, count), [config.fusion])]


def write_attention_files(path, frame_count, heads=2, text_tokens=2, patches=4, hot=3):
    path.mkdir(parents=True, exist_ok=True)
    text = np.zeros((heads, text_tokens, patches), dtype=np.float32)
    text[:, :, hot] = 1.0
    action = np.zeros((heads, patches), dtype=np.float32)
    action[:, hot] = 1.0
    for t in range(frame_count):
        write_tensor(path / f"attn_text_{t:06d}.ttft", text)
        write_tensor(path / f"attn_action_{t:06d}.ttft", action)


class TestTensorFileAttention:
    def test_file_attention_drives_the_mask(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        for step in run_steps(config)[1:]:
            # File attention concentrates on patch 3; budget is 1.
            assert list(step.attention_mask) == [0, 0, 0, 1]

    def test_action_mode_reads_action_files(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5, hot=2)
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                attention_mode="action_to_vision",
            )
        )
        assert list(run_steps(config)[2].attention_mask) == [0, 0, 1, 0]

    def test_missing_required_file_raises(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=2)
        config = build_run_config(
            small_values(
                attention_source="tensor_files", attention_dir=str(attention_dir)
            )
        )
        with pytest.raises(FileNotFoundError, match="attn_text_000002"):
            run_experiment(config)

    def test_file_past_last_frame_fails_before_any_step(self, tmp_path, monkeypatch):
        calls = []
        original = ttfusion.fusion.step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", counting)
        attention_dir = tmp_path / "attn"
        # Five frames, six text tensors: attn_text_000005 has no frame.
        write_attention_files(attention_dir, frame_count=6)
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        with pytest.raises(FileExistsError, match="attn_text_000005"):
            run_experiment(config)
        with pytest.raises(FileExistsError, match="attn_text_000005"):
            run_sweep(config, "K", [1, 3])
        assert calls == []
        # Only the kind the attention mode reads is checked.
        (attention_dir / "attn_text_000005.ttft").unlink()
        run_experiment(config)
        assert len(calls) == 5

    def test_missing_file_fails_before_any_step(self, tmp_path, monkeypatch):
        calls = []
        original = ttfusion.fusion.step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", counting)
        attention_dir = tmp_path / "attn"
        # Five frames, text tensors 0, 1, 3 and 4: step 2 has no file.
        write_attention_files(attention_dir, frame_count=5)
        (attention_dir / "attn_text_000002.ttft").unlink()
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        with pytest.raises(FileNotFoundError, match="attn_text_000002"):
            run_experiment(config)
        with pytest.raises(FileNotFoundError, match="attn_text_000002"):
            run_sweep(config, "K", [1, 3])
        assert calls == []

    @pytest.mark.parametrize(
        "kind, shape",
        [("text", (2, 2, 3)), ("text", (2, 4)), ("action", (2, 3)), ("action", (2, 2, 4))],
    )
    def test_wrong_shape_fails_in_the_step_that_reads_it(self, tmp_path, monkeypatch, kind, shape):
        calls = []
        original = ttfusion.fusion.step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", counting)
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        bad = attention_dir / f"attn_{kind}_000001.ttft"
        write_tensor(bad, np.full(shape, 0.25, dtype=np.float32))
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                attention_mode=f"{kind}_to_vision",
                text_tokens=2,
                heads=2,
            )
        )
        with pytest.raises(TensorFormatError) as info:
            run_experiment(config)
        assert info.value.code == "bad-shape"
        assert str(bad) in str(info.value)
        assert str(shape) in str(info.value)
        assert "4)" in str(info.value)  # the expected shape ends in the 4 patches
        # Step 1 reads frame 1's file for step 2, which never starts.
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "value, message", [(-0.25, "non-negative"), (0.5, "sum to at most 1"), (np.nan, "finite")]
    )
    def test_bad_weights_name_the_file(self, tmp_path, value, message):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        bad = attention_dir / "attn_text_000002.ttft"
        write_tensor(bad, np.full((2, 2, 4), value, dtype=np.float32))
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        with pytest.raises(ValueError, match=message) as info:
            run_experiment(config)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{bad}: ")

    def test_encoder_widens_float32_to_float64(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=1)
        encoder = TensorFileAttentionEncoder(
            spec=EncoderSpec(token_dim=8, seed=0, text_token_count=2, head_count=2),
            attention_dir=str(attention_dir),
            mode="text_to_vision",
        )
        frames = generate_frames(build_run_config(small_values(synth_frames=1)).synth)
        slice_ = encoder.attention(frames[0], encoder.features(frames[0]), "text_to_vision")
        assert slice_.text_rows.dtype == np.float64
        assert slice_.action_row is None
        with pytest.raises(ValueError, match="asked of a run in mode 'text_to_vision'"):
            encoder.attention(frames[0], encoder.features(frames[0]), "action_to_vision")

    @pytest.mark.parametrize("content", ["three_heads", "junk"])
    def test_other_kind_of_attention_file_is_never_read(self, tmp_path, content):
        # A text-mode run reads text tensors only; an action file that would
        # not load, or that disagrees with the text set, changes nothing.
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        for t in range(5):
            (attention_dir / f"attn_action_{t:06d}.ttft").unlink()
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        run_experiment(config, tmp_path / "without")
        other = attention_dir / "attn_action_000002.ttft"
        if content == "junk":
            other.write_bytes(b"not a tensor")
        else:
            write_tensor(other, np.full((3, 4), 0.25, dtype=np.float32))
        run_experiment(config, tmp_path / "with")
        report = (tmp_path / "with" / "report.json").read_bytes()
        assert report == (tmp_path / "without" / "report.json").read_bytes()

    def test_only_exact_attention_names_count(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        for name in ("attn_text_0000009.ttft", "attn_text_00009.ttft",
                     "attn_text_000009.ttft.bak", "attn_action_000009.ttft"):
            (attention_dir / name).touch()
        encoder = TensorFileAttentionEncoder(
            spec=EncoderSpec(token_dim=8, seed=0, text_token_count=2, head_count=2),
            attention_dir=str(attention_dir),
            mode="text_to_vision",
        )
        encoder.check_file_set(5)
        (attention_dir / "attn_text_1000000.ttft").touch()
        with pytest.raises(FileExistsError, match=r"attn_text_1000000.ttft \(index 1000000\)"):
            encoder.check_file_set(5)

    def test_attention_file_with_extra_values_is_rejected(self, tmp_path):
        attention_dir = tmp_path / "attn"
        write_attention_files(attention_dir, frame_count=5)
        path = attention_dir / "attn_text_000002.ttft"
        path.write_bytes(path.read_bytes() + bytes(4))
        config = build_run_config(
            small_values(
                attention_source="tensor_files",
                attention_dir=str(attention_dir),
                text_tokens=2,
                heads=2,
            )
        )
        with pytest.raises(TensorFormatError, match="attn_text_000002.ttft: dims") as info:
            run_experiment(config)
        assert info.value.code == "bad-shape"


class TestFrameDirectory:
    def test_loads_written_sequence_in_order(self, tmp_path):
        write_sequence(SynthSpec(frame_count=4, width=28, height=28, seed=9), tmp_path / "f")
        frames = load_frames_dir(tmp_path / "f")
        assert [f.timestep for f in frames] == [0, 1, 2, 3]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="frames directory"):
            load_frames_dir(tmp_path / "nope")

    def test_empty_directory_means_first_frame_missing(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="first frame missing"):
            load_frames_dir(tmp_path / "empty")

    def test_gap_names_first_missing_index(self, tmp_path):
        write_sequence(SynthSpec(frame_count=4, width=28, height=28, seed=9), tmp_path / "f")
        (tmp_path / "f" / "frame_000002.ppm").unlink()
        with pytest.raises(FileNotFoundError, match="frame_000002.ppm"):
            load_frames_dir(tmp_path / "f")

    def test_only_exact_frame_names_count(self, tmp_path):
        # A leading zero past six digits does not name frame 9, so it is no gap.
        write_sequence(SynthSpec(frame_count=3, width=28, height=28, seed=9), tmp_path / "f")
        for name in ("frame_0000009.ppm", "frame_00009.ppm", "frame_000009.ppm.bak"):
            (tmp_path / "f" / name).touch()
        assert len(load_frames_dir(tmp_path / "f")) == 3
        (tmp_path / "f" / "frame_1000000.ppm").touch()
        with pytest.raises(FileNotFoundError, match="frames up to index 1000000 exist"):
            load_frames_dir(tmp_path / "f")


class TestSweep:
    def test_invalid_value_fails_before_any_point_runs(self, monkeypatch):
        calls = []
        original = ttfusion.fusion.step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", counting)
        config = build_run_config(small_values())
        with pytest.raises(ConfigError, match="keyframe interval"):
            run_sweep(config, "K", [3, 0])
        assert calls == []
        run_sweep(config, "K", [3])
        assert len(calls) == 5

    def test_summary_means_are_each_points_report_aggregates(self):
        config = build_run_config(small_values(synth_frames=7, top_k=2, synth_noise=0.05))
        summary, results = run_sweep(config, "K", [1, 3, 6])
        assert [p["value"] for p in summary["points"]] == [1, 3, 6]
        for point, result in zip(summary["points"], results):
            aggregates = result.report["aggregates"]
            for key in ("mean_fusion_rate_all", "mean_fusion_rate_non_keyframe"):
                assert point[key] == aggregates[key]
        # K = 1 makes every step a keyframe; the others reuse tokens.
        assert summary["points"][0]["mean_fusion_rate_all"] == 0.0
        assert summary["points"][2]["mean_fusion_rate_non_keyframe"] > 0.0


class TestSeed:
    def test_replaced_seed_gives_the_report_of_that_seed_in_the_config(self):
        # The frames, the encoder and the projections all follow the seed.
        synth = dict(synth_frames=12, synth_change_fraction=0.3, synth_noise=0.05, top_k=2)
        replaced = replace(build_run_config(small_values(**synth)), seed=7)
        written = build_run_config(small_values(seed=7, **synth))
        assert replaced == written
        report = run_experiment(replaced).report
        assert report["config"]["seed"] == 7
        assert serialize_report(report) == serialize_report(run_experiment(written).report)


class TestEchoRoundTrip:
    @pytest.mark.parametrize("source", ["synthetic", "frames_dir", "tensor_files"])
    def test_written_echo_rebuilds_the_config_that_wrote_it(self, tmp_path, source):
        # verify-qreuse rebuilds a run's config from its echo's non-null
        # values, so that config must be the run's and echo the same values.
        values = small_values(keyframe_interval=3, synth_walker=True, synth_noise=0.05)
        if source == "frames_dir":
            write_sequence(build_run_config(values).synth, tmp_path / "frames")
            values = {k: v for k, v in values.items() if not k.startswith("synth_")}
            values["frames_dir"] = str(tmp_path / "frames")
        elif source == "tensor_files":
            write_attention_files(tmp_path / "attn", frame_count=5)
            values.update(attention_source="tensor_files", attention_dir=str(tmp_path / "attn"),
                          text_tokens=2, heads=2)
        config = build_run_config(values)
        run_experiment(config, out_dir=tmp_path / "out")
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        rebuilt = build_run_config({k: v for k, v in echo.items() if v is not None})
        assert rebuilt == config
        assert config_echo(rebuilt) == echo


class TestOutputs:
    def test_token_dumps_written_for_every_step(self, tmp_path):
        config = build_run_config(small_values(emit_tokens=True))
        run_experiment(config, out_dir=tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out" / "tokens").iterdir())
        assert names == [f"fused_{t:06d}.ttft" for t in range(5)]

    def test_earlier_dumps_are_cleared_by_exact_name(self, tmp_path):
        out = tmp_path / "out"
        for folder, name in (("masks", "mask_{}.pgm"), ("tokens", "fused_{}.ttft")):
            (out / folder).mkdir(parents=True)
            for index in ("000001", "1000000", "0000001", "00001"):
                (out / folder / name.format(index)).touch()
            (out / folder / "notes.txt").touch()
        run_experiment(build_run_config(small_values()), out_dir=out)
        # Only the names a run writes go, 1000000 among them.
        assert sorted(p.name for p in (out / "masks").iterdir()) == [
            "mask_0000001.pgm", "mask_00001.pgm", "notes.txt"
        ]
        assert sorted(p.name for p in (out / "tokens").iterdir()) == [
            "fused_0000001.ttft", "fused_00001.ttft", "notes.txt"
        ]


class TestStreaming:
    def sweep(self, frames, size=224, top_k=70):
        """A run config and the fusion configs of its K = 1, 3, 6 points."""
        config = build_run_config(
            small_values(
                synth_frames=frames, width=size, height=size, token_dim=64, top_k=top_k,
                synth_walker=True, synth_noise=0.02, synth_change_fraction=0.05,
            )
        )
        return config, [apply_parameter(config, "K", k) for k in (1, 3, 6)]

    def traced_peak(self, frames):
        config, fusions = self.sweep(frames)
        tracemalloc.start()
        try:
            run_points(config, fusions)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_configs_fails_before_any_frame_is_opened(self, monkeypatch):
        opened = []
        monkeypatch.setattr(ttfusion.experiment, "open_frames", opened.append)
        with pytest.raises(ValueError, match="no fusion configs to run"):
            run_points(self.sweep(3)[0], [])
        assert opened == []

    def test_loop_looks_up_step_through_the_module(self, monkeypatch):
        # Code that wraps ttfusion.fusion.step (a step timer, say) sees
        # every step of every point.
        calls = []
        original = ttfusion.fusion.step

        def counting(*args, **kwargs):
            calls.append(args[1].timestep)
            return original(*args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", counting)
        config, fusions = self.sweep(7, size=56, top_k=2)
        run_points(config, fusions)
        assert calls == [t for t in range(7) for _ in fusions]

    def test_weights_are_generated_once_per_call(self, monkeypatch):
        # Every point checks its reuse with the run's one set of weights.
        generated = []
        original = ProjectionSet.generate

        def counting(dim, seed):
            generated.append((dim, seed))
            return original(dim, seed)

        monkeypatch.setattr(ProjectionSet, "generate", counting)
        config, fusions = self.sweep(4, size=56, top_k=2)
        run_points(config, fusions)
        assert generated == [(config.token_dim, config.seed)]

    def test_memory_does_not_grow_with_the_episode(self):
        # Only each point's last step and its projections live between
        # frames; what grows is the report's per-step records.
        short, long = self.traced_peak(20), self.traced_peak(200)
        assert long - short < 1_000_000, (short, long)

    def test_streaming_matches_one_point_at_a_time(self):
        # Each record holds its mask's counts and its check's three errors,
        # and a check has failure lines exactly when an error is nonzero, so
        # equal report bytes and no failures mean equal checks.
        run, fusions = self.sweep(13, size=56, top_k=2)
        configs = [replace(run, fusion=fusion) for fusion in fusions]
        for config, result in zip(configs, run_points(run, fusions)):
            steps = run_steps(config)
            projections = ProjectionSet.generate(config.token_dim, config.seed)
            checker = ReuseChecker(projections, config.fusion.grid.patch_count)
            records, lines = [], []
            for s in steps:
                errors, failures = checker.check(s.fused_tokens, s.fusion_mask)
                records.append(step_record(s, errors))
                lines += failures
            assert result.failures == lines == []
            report = build_report(config_echo(config), records)
            assert serialize_report(report) == serialize_report(result.report)
        assert configs[0].fusion.keyframe_interval == 1
        assert result.report["aggregates"]["mean_fusion_rate_non_keyframe"] > 0.0

    def test_frames_load_as_the_loop_reaches_them(self, tmp_path, monkeypatch):
        write_sequence(SynthSpec(frame_count=4, width=28, height=28, seed=9), tmp_path / "f")
        loaded = []
        original = ttfusion.experiment.load_frame

        def counting(path, t):
            loaded.append(t)
            return original(path, t)

        monkeypatch.setattr(ttfusion.experiment, "load_frame", counting)
        frames = load_frames_dir(tmp_path / "f")
        assert len(frames) == 4 and loaded == []
        it = iter(frames)
        next(it)
        assert loaded == [0]
        assert [f.timestep for f in it] == [1, 2, 3]


class TestConcurrentRuns:
    def test_two_runs_in_two_threads_write_the_reports_they_write_alone(self, tmp_path):
        # Every buffer the loop keeps between frames belongs to one run, so
        # runs in two threads at once cannot write over each other's frames.
        configs = [
            build_run_config(
                small_values(
                    synth_frames=40, width=112, height=112, token_dim=16, top_k=8, seed=seed,
                    keyframe_interval=3, synth_walker=True, synth_noise=0.02,
                    synth_change_fraction=0.05,
                )
            )
            for seed in (1, 2)
        ]
        alone = []
        for i, config in enumerate(configs):
            run_points(config, [config.fusion], [tmp_path / str(i)])
            alone.append((tmp_path / str(i) / "report.json").read_bytes())
        assert alone[0] != alone[1]
        errors = []

        def run(i, barrier):
            try:
                barrier.wait(timeout=60)
                run_points(configs[i], [configs[i].fusion], [tmp_path / str(i)])
            except BaseException as exc:  # re-raised below, in the test's thread
                errors.append(exc)

        # Switching threads often interleaves the two runs' frames finely;
        # a few rounds make a missed overlap unlikely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                barrier = threading.Barrier(len(configs))
                threads = [threading.Thread(target=run, args=(i, barrier)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert errors == []
                for i, report in enumerate(alone):
                    assert (tmp_path / str(i) / "report.json").read_bytes() == report
        finally:
            sys.setswitchinterval(interval)
