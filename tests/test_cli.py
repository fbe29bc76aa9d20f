import json
import shutil

import numpy as np
import pytest

from ttfusion.cli import main
from ttfusion.experiment import run_experiment
from ttfusion.frames import read_pgm, write_pgm
from ttfusion.projection import ProjectionSet
from ttfusion.report import _aggregates_from_steps
from ttfusion.runconfig import SWEEP_PARAMETERS, build_run_config
from ttfusion.tensor_io import read_tensor, write_tensor

SMALL = """
synth_frames = 6
width = 28
height = 28
token_dim = 8
top_k = 2
seed = 13
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestRun:
    def test_default_keyframe_pattern(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        report = read_report(out)
        keyframes = [s["is_keyframe"] for s in report["steps"]]
        assert keyframes == [True, False, False, True, False, False]
        rates = [s["fusion_rate"] for s in report["steps"]]
        assert rates[0] == 0.0 and rates[3] == 0.0
        assert "mean fusion rate" in capsys.readouterr().out

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 3
        assert "none.cfg" in capsys.readouterr().err

    def test_missing_frames_dir_exits_3_and_names_path(self, tmp_path, capsys):
        config = write_config(tmp_path, "frames_dir = /no/such/frames\n")
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert "/no/such/frames" in capsys.readouterr().err

    def test_frame_gap_exits_3_and_names_missing_index(self, tmp_path, capsys):
        synth = write_config(tmp_path, SMALL + f"output_dir = {tmp_path / 'frames'}\n",
                             name="synth.cfg")
        assert main(["synth", "--config", synth]) == 0
        (tmp_path / "frames" / "frame_000002.ppm").unlink()
        for t in (4, 5):
            (tmp_path / "frames" / f"frame_{t:06d}.ppm").unlink()
        config = write_config(
            tmp_path, f"frames_dir = {tmp_path / 'frames'}\nwidth = 28\nheight = 28\n"
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert "frame_000002.ppm" in capsys.readouterr().err

    def test_frame_longer_than_its_header_exits_3_and_names_it(self, tmp_path, capsys):
        synth = write_config(tmp_path, SMALL + f"output_dir = {tmp_path / 'frames'}\n",
                             name="synth.cfg")
        assert main(["synth", "--config", synth]) == 0
        # A 56 x 56 body under a 28 x 28 header.
        frame = tmp_path / "frames" / "frame_000002.ppm"
        frame.write_bytes(b"P6\n28 28\n255\n" + bytes(56 * 56 * 3))
        config = write_config(
            tmp_path, f"frames_dir = {tmp_path / 'frames'}\nwidth = 28\nheight = 28\n"
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{frame}: header declares 2352 pixel bytes, found 9408" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_frame_of_another_size_exits_3_naming_it_before_its_step(
        self, tmp_path, capsys, monkeypatch
    ):
        import ttfusion.fusion

        synth = write_config(tmp_path, SMALL + f"output_dir = {tmp_path / 'frames'}\n",
                             name="synth.cfg")
        assert main(["synth", "--config", synth]) == 0
        # A valid 42 x 42 frame in a 28 x 28 run.
        frame = tmp_path / "frames" / "frame_000003.ppm"
        frame.write_bytes(b"P6\n42 42\n255\n" + bytes(42 * 42 * 3))
        stepped = []
        original = ttfusion.fusion.step

        def recording(state, frame, *args, **kwargs):
            stepped.append(frame.timestep)
            return original(state, frame, *args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", recording)
        config = write_config(
            tmp_path, f"frames_dir = {tmp_path / 'frames'}\nwidth = 28\nheight = 28\n"
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{frame}: frame is 42x42, expected 28x28" in err
        assert stepped == [0, 1, 2]
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "synth_frames = 6\nbogus = 1\n")
        assert main(["run", "--config", config]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pixel_threshold", "synth_noise", "target_reuse_rate"])
    def test_non_finite_float_exits_2_without_output(self, tmp_path, capsys, key):
        config = write_config(tmp_path, SMALL + f"{key} = nan\n")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert f"{key}: expected a finite number, got 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_masks_writes_one_pgm_per_non_keyframe_step(self, tmp_path):
        config = write_config(tmp_path, SMALL + "emit_masks = true\n")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        masks = sorted((out / "masks").iterdir())
        assert [p.name for p in masks] == [
            "mask_000001.pgm",
            "mask_000002.pgm",
            "mask_000004.pgm",
            "mask_000005.pgm",
        ]
        image = read_pgm(masks[0])
        assert image.shape == (2, 2)  # one pixel per patch
        assert set(np.unique(image)) <= {0, 255}

    def test_mask_grid_is_16x16_at_224(self, tmp_path):
        config = write_config(
            tmp_path, "synth_frames = 2\nemit_masks = true\nkeyframe_interval = 100\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        image = read_pgm(out / "masks" / "mask_000001.pgm")
        assert image.shape == (16, 16)

    def test_run_is_byte_deterministic(self, tmp_path):
        config = write_config(tmp_path, SMALL + "emit_masks = true\nsynth_noise = 0.05\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        for mask in sorted((out_a / "masks").iterdir()):
            assert mask.read_bytes() == (out_b / "masks" / mask.name).read_bytes()

    def test_seed_override_out_of_range_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        argv = ["run", "--config", config, "--out", str(tmp_path / "out"),
                "--seed", "18446744073709551616"]
        assert main(argv) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, tmp_path):
        config = write_config(tmp_path, SMALL + "synth_noise = 0.05\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out", str(out_b), "--seed", "99"]) == 0
        a = read_report(out_a)
        b = read_report(out_b)
        assert a["config"]["seed"] == 13 and b["config"]["seed"] == 99

    def test_seed_override_equals_seed_in_the_config(self, tmp_path):
        text = SMALL + "synth_noise = 0.05\nsynth_change_fraction = 0.3\n"
        overridden = write_config(tmp_path, text, name="a.cfg")
        written = write_config(tmp_path, text.replace("seed = 13", "seed = 7"), name="b.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", overridden, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["run", "--config", written, "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_synth_key_in_a_frames_dir_config_exits_2_naming_it(self, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        assert main(["synth", "--config", write_config(tmp_path, SMALL, name="synth.cfg"),
                     "--out", str(frames_dir)]) == 0
        config = write_config(
            tmp_path, f"frames_dir = {frames_dir}\nwidth = 28\nheight = 28\nsynth_noise = 0.5\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "config error: synth_noise set without synth_frames" in capsys.readouterr().err
        assert not out.exists()

    def test_frames_dir_round_trip(self, tmp_path):
        synth_config = write_config(tmp_path, SMALL, name="synth.cfg")
        frames_dir = tmp_path / "frames"
        assert main(["synth", "--config", synth_config, "--out", str(frames_dir)]) == 0
        run_config = write_config(
            tmp_path,
            f"frames_dir = {frames_dir}\nwidth = 28\nheight = 28\ntoken_dim = 8\n"
            "top_k = 2\nseed = 13\n",
            name="fromdir.cfg",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", run_config, "--out", str(out)]) == 0
        assert read_report(out)["aggregates"]["steps"] == 6


class TestSynth:
    def test_writes_frames_deterministically(self, tmp_path):
        config = write_config(tmp_path, SMALL + "synth_walker = true\nsynth_noise = 0.1\n")
        dir_a, dir_b = tmp_path / "fa", tmp_path / "fb"
        assert main(["synth", "--config", config, "--out", str(dir_a)]) == 0
        assert main(["synth", "--config", config, "--out", str(dir_b)]) == 0
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == [f"frame_{t:06d}.ppm" for t in range(6)]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_shorter_episode_over_longer_one_exits_3_and_writes_nothing(
        self, tmp_path, capsys
    ):
        frames = tmp_path / "fr"
        noisy = SMALL + "synth_noise = 0.1\n"
        config = write_config(tmp_path, noisy.replace("synth_frames = 6", "synth_frames = 8"))
        assert main(["synth", "--config", config, "--out", str(frames), "--seed", "3"]) == 0
        before = {p.name: p.read_bytes() for p in frames.iterdir()}
        capsys.readouterr()
        config = write_config(tmp_path, noisy.replace("synth_frames = 6", "synth_frames = 4"))
        assert main(["synth", "--config", config, "--out", str(frames), "--seed", "5"]) == 3
        assert "frame_000004.ppm" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in frames.iterdir()} == before
        # Rewriting an episode of the same length is allowed.
        config = write_config(tmp_path, noisy.replace("synth_frames = 6", "synth_frames = 8"))
        assert main(["synth", "--config", config, "--out", str(frames), "--seed", "5"]) == 0
        assert {p.name: p.read_bytes() for p in frames.iterdir()} != before

    @pytest.mark.parametrize(
        "key,message",
        [("heads", "need at least one head"), ("text_tokens", "need at least one text token"),
         ("token_dim", "token dim must be positive")],
    )
    def test_bad_encoder_key_exits_2_without_frames(self, tmp_path, capsys, key, message):
        # The synth command builds no encoder, but every key is checked at load.
        config = write_config(tmp_path, SMALL.replace("token_dim = 8", "") + f"{key} = 0\n")
        out = tmp_path / "f"
        assert main(["synth", "--config", config, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_synth_spec(self, tmp_path, capsys):
        config = write_config(tmp_path, "frames_dir = somewhere\n")
        assert main(["synth", "--config", config, "--out", str(tmp_path / "f")]) == 2
        assert "synth" in capsys.readouterr().err


class TestSweep:
    def test_keyframe_sweep_monotone_on_static_frames(self, tmp_path):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "K",
             "--values", "2,3,5"]
        ) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        means = [p["mean_fusion_rate_all"] for p in summary["points"]]
        assert means == sorted(means)
        csv = (out / "sweep_summary.csv").read_text().splitlines()
        assert csv[0] == "value,mean_fusion_rate_all,mean_fusion_rate_non_keyframe"
        assert len(csv) == 4
        for value in (2, 3, 5):
            assert (out / f"K_{value}" / "report.json").exists()

    def test_threshold_sweep_direction_on_noisy_frames(self, tmp_path):
        config = write_config(tmp_path, SMALL + "synth_noise = 0.15\n")
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "tau_pixel",
             "--values", "0.0,1.0"]
        ) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        low, high = (p["mean_fusion_rate_all"] for p in summary["points"])
        assert low <= high

    def test_budget_sweep_extremes_with_pixel_disabled(self, tmp_path):
        config = write_config(tmp_path, SMALL + "enable_pixel = false\n")
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "k",
             "--values", "0,4"]
        ) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        rates = [p["mean_fusion_rate_non_keyframe"] for p in summary["points"]]
        assert rates == [1.0, 0.0]

    def test_each_point_report_matches_run(self, tmp_path):
        episode = SMALL.replace("synth_frames = 6", "synth_frames = 13") + (
            "synth_walker = true\nsynth_noise = 0.08\n"
        )
        config = write_config(tmp_path, episode)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "K",
             "--values", "1,3,6"]
        ) == 0
        for value in (1, 3, 6):
            single = write_config(
                tmp_path, episode + f"keyframe_interval = {value}\n", name=f"k{value}.cfg"
            )
            run_out = tmp_path / f"run_{value}"
            assert main(["run", "--config", single, "--out", str(run_out)]) == 0
            sweep_bytes = (out / f"K_{value}" / "report.json").read_bytes()
            assert sweep_bytes == (run_out / "report.json").read_bytes()

    def test_nonzero_reuse_error_exits_4_after_writing_every_point(
        self, tmp_path, capsys, monkeypatch
    ):
        import ttfusion.experiment

        class Tampered(ttfusion.experiment.ReuseChecker):
            def check(self, tokens, mask):
                errors, failures = super().check(tokens, mask)
                if self.timestep == 6:  # just checked the last of SMALL's six steps
                    errors["key_error"] = 0.25
                    failures.append("step 5: key row 2 reuse error 2.500e-01")
                return errors, failures

        monkeypatch.setattr(ttfusion.experiment, "ReuseChecker", Tampered)
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "K",
             "--values", "1,3,6"]
        ) == 4
        for value in (1, 3, 6):
            report = read_report(out / f"K_{value}")
            assert report["aggregates"]["max_reuse_error_key"] == 0.25
        assert (out / "sweep_summary.json").exists()
        err = capsys.readouterr().err
        for value in (1, 3, 6):
            assert f"K = {value}: step 5: key row 2 reuse error 2.500e-01" in err
        assert "3 nonzero Q/K/V reuse errors" in err

    def test_failed_sweep_leaves_no_earlier_summary(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        synth = write_config(tmp_path, SMALL, name="synth.cfg")
        assert main(["synth", "--config", synth, "--out", str(frames)]) == 0
        config = write_config(
            tmp_path, f"frames_dir = {frames}\nwidth = 28\nheight = 28\ntoken_dim = 8\n"
        )
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--out", str(out), "--param", "K", "--values", "1,3"]
        assert main(argv) == 0
        assert (out / "sweep_summary.json").exists() and (out / "sweep_summary.csv").exists()
        (frames / "frame_000004.ppm").write_bytes(b"P6\n28 28\n255\n")
        capsys.readouterr()
        assert main(argv) == 3
        assert "frame_000004.ppm" in capsys.readouterr().err
        assert not list(out.glob("sweep_summary.*"))
        assert not list(out.glob("K_*/report.json"))

    def test_empty_values_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        assert main(
            ["sweep", "--config", config, "--param", "K", "--values", " , "]
        ) == 2
        assert "empty" in capsys.readouterr().err

    def test_duplicate_values_exit_2_naming_the_value(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "K",
             "--values", "3,3"]
        ) == 2
        assert "sweep value 3 is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_value_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--param", "tau_pixel",
             "--values", "0.01,nan"]
        ) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param", ["width", "keyframe_interval", "pixel_threshold", "top_k"]
    )
    def test_unknown_parameter_exit_2(self, tmp_path, capsys, param):
        config = write_config(tmp_path, SMALL)
        assert main(
            ["sweep", "--config", config, "--param", param, "--values", "2"]
        ) == 2
        assert f"unknown sweep parameter {param!r}" in capsys.readouterr().err

    def test_parameter_names_come_from_one_table(self, tmp_path, capsys, monkeypatch):
        # The --param help and the unknown-parameter message both list the
        # names of SWEEP_PARAMETERS, so a name added there shows in both.
        monkeypatch.setitem(SWEEP_PARAMETERS, "k_attn", "top_k")
        config = write_config(tmp_path, SMALL)
        assert main(["sweep", "--config", config, "--param", "bogus", "--values", "2"]) == 2
        assert "(expected one of K, tau_pixel, k, k_attn)" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "one of K, tau_pixel, k, k_attn" in " ".join(capsys.readouterr().out.split())


class TestFramesDirectory:
    def test_frame_removed_mid_run_exits_3_without_a_report(self, tmp_path, capsys, monkeypatch):
        import ttfusion.fusion

        frames = tmp_path / "frames"
        synth = write_config(tmp_path, SMALL, name="synth.cfg")
        assert main(["synth", "--config", synth, "--out", str(frames)]) == 0
        config = write_config(
            tmp_path,
            SMALL.replace("synth_frames = 6", f"frames_dir = {frames}")
            + "emit_masks = true\nemit_tokens = true\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert main(["verify-qreuse", "--run", str(out)]) == 0
        original = ttfusion.fusion.step

        def removing(state, frame, *args, **kwargs):
            # Frame 3 is listed before step 0 but read only when reached.
            if frame.timestep == 1:
                (frames / "frame_000003.ppm").unlink()
            return original(state, frame, *args, **kwargs)

        monkeypatch.setattr(ttfusion.fusion, "step", removing)
        capsys.readouterr()
        assert main(["run", "--config", config, "--out", str(out)]) == 3
        assert "frame_000003.ppm" in capsys.readouterr().err
        # report.json is written last: the earlier run's report is gone, so
        # the directory does not pair an old report with new dumps.
        assert not (out / "report.json").exists()


class TestVerifyQReuse:
    def run_with_artifacts(self, tmp_path):
        config = write_config(
            tmp_path, SMALL + "emit_masks = true\nemit_tokens = true\nsynth_noise = 0.05\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        return out

    def run_with_detectors(self, tmp_path):
        # 16 patches; step 1 recomputes 5 of them, 4 flagged by pixels and
        # 3 by attention, so a count can be raised or lowered off its mask.
        config = write_config(
            tmp_path,
            "synth_frames = 7\nwidth = 56\nheight = 56\ntoken_dim = 8\ntop_k = 3\n"
            "seed = 13\nsynth_walker = true\nsynth_change_fraction = 0.1\n"
            "synth_noise = 0.05\nemit_masks = true\nemit_tokens = true\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        step = read_report(out)["steps"][1]
        assert (step["fusion_updates"], step["pixel_updates"], step["attention_updates"]) == (
            5, 4, 3
        )
        return out

    def rewrite_report(self, out, edit):
        """Apply ``edit`` to the report's steps and rewrite the aggregates to
        match, so that only the replay can tell."""
        path = out / "report.json"
        report = json.loads(path.read_text())
        edit(report["steps"])
        report["aggregates"] = _aggregates_from_steps(report["steps"])
        path.write_text(json.dumps(report))
        return path

    def test_clean_run_verifies(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        assert main(["verify-qreuse", "--run", str(out)]) == 0
        total = read_report(out)["aggregates"]["total_saved_multiplications"]
        assert f"exactly 0 ({total} multiplications saved)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key,value,message",
        [("saved_multiplications", 2112 + 4096,
          "{mask}: step 1 has saved_multiplications = 2112 by its mask, "
          "but the report records 6208"),
         ("fusion_rate", 0.5,
          "{mask}: step 1 has fusion_rate = 0.6875 by its mask, but the report records 0.5"),
         ("fusion_updates", 3,
          "{mask}: step 1 has fusion_updates = 5 by its mask, but the report records 3"),
         ("pixel_updates", 999,
          "{report}: step 1 has pixel_updates = 999 and attention_updates = 3, "
          "which cannot OR into fusion_updates = 5"),
         ("attention_updates", 0,
          "{report}: step 1 has pixel_updates = 4 and attention_updates = 0, "
          "which cannot OR into fusion_updates = 5")],
    )
    def test_record_field_off_its_mask_exits_4_naming_it(
        self, tmp_path, capsys, key, value, message
    ):
        out = self.run_with_detectors(tmp_path)
        report = self.rewrite_report(out, lambda steps: steps[1].update({key: value}))
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = message.format(mask=out / "masks" / "mask_000001.pgm", report=report)
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("t,keyframe", [(1, True), (3, False)])
    def test_step_relabelled_against_the_keyframe_interval_exits_4(
        self, tmp_path, capsys, t, keyframe
    ):
        out = self.run_with_detectors(tmp_path)

        def edit(steps):
            step = steps[t]
            step["is_keyframe"] = keyframe
            if keyframe:
                # Every count a keyframe's record has, so only its place
                # gives it away.
                step.update(pixel_updates=16, attention_updates=16, fusion_updates=16,
                            fusion_rate=0.0, reused_rows=0, saved_multiplications=0)

        path = self.rewrite_report(out, edit)
        if keyframe:
            (out / "masks" / f"mask_{t:06d}.pgm").unlink()
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = (
            f"{path}: step {t} has is_keyframe = {keyframe}, "
            f"but keyframe_interval = 3 makes it {not keyframe}"
        )
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    def test_keyframe_interval_below_1_exits_4(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["config"]["keyframe_interval"] = 0
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: config echo: keyframe interval must be at least 1"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value,rule",
        [
            pytest.param(field, value, rule, id=f"{field}-{value}")
            for field, value, rule in [
                ("width", 0, "grid must have positive dimensions"),
                ("width", -14, "grid must have positive dimensions"),
                ("height", 0, "grid must have positive dimensions"),
                ("seed", -1, "seed must fit in 64 bits"),
                ("seed", 2**64, "seed must fit in 64 bits"),
                ("attention_mode", "nope", "unknown attention mode 'nope'"),
                ("heads", 0, "need at least one head"),
                ("top_k", -5, "attention budget must be non-negative"),
                ("top_k", "70", "top_k must be int, got '70'"),
                ("pixel_threshold", -1.0, "pixel threshold must be non-negative"),
                ("colour", "red", "unknown keys: ['colour']"),
                ("token_dim", -1, "token dim must be positive"),
                ("token_dim", 0, "token dim must be positive"),
                ("synth_frames", None, "exactly one of frames_dir / synth_frames must be set"),
            ]
        ],
    )
    def test_echo_no_config_could_have_exits_4_naming_it(
        self, tmp_path, capsys, field, value, rule
    ):
        # The echo is rebuilt into a config by the rules a config file
        # obeys, and the rule it breaks is named.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        if value is None:
            # Null every synth_* key, as the echo of a frames_dir run does,
            # so that only the missing frame source is at fault.
            synth_keys = [key for key in report["config"] if key.startswith("synth_")]
            report["config"].update(dict.fromkeys(synth_keys))
        report["config"][field] = value
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"invariant violation: {path}: config echo: {rule}\n" in err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_echo_seed_at_either_end_of_the_range_verifies(self, tmp_path, seed):
        # Reuse is exact under any weights, so any seed a config may have
        # verifies.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["config"]["seed"] = seed
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 0

    @pytest.mark.parametrize(
        "field,value,kind",
        [("synth_walker", "no", "bool"), ("pixel_threshold", True, "float"),
         ("emit_masks", 1, "bool"), ("heads", True, "int")],
    )
    def test_echo_field_of_another_type_than_its_config_field_exits_4(
        self, tmp_path, capsys, field, value, kind
    ):
        # Each value breaks no range rule: only its type gives it away.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["config"][field] = value
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: config echo: {field} must be {kind}, got {value!r}"
        assert f"invariant violation: {expected}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,drop",
        [("top_k", True), ("attention_dir", True), ("heads", False)],
        ids=["drop-top_k", "drop-attention_dir", "null-heads"],
    )
    def test_echo_key_left_out_or_nulled_exits_4(self, tmp_path, capsys, key, drop):
        # Rebuilt without the key, the config would take its default; an
        # echo lacks no key, even one whose default is the value it echoes.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        if drop:
            del report["config"][key]
        else:
            report["config"][key] = None
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: config echo: {key} missing or null"
        assert f"invariant violation: {expected}\n" in capsys.readouterr().err

    def test_int_for_a_float_echo_field_verifies(self, tmp_path):
        # An int may stand for a float: a library caller's pixel_threshold
        # of 0 echoes as 0 and replays.
        values = {"synth_frames": 6, "width": 28, "height": 28, "token_dim": 8, "top_k": 2,
                  "seed": 13, "synth_noise": 0, "pixel_threshold": 0, "emit_masks": True,
                  "emit_tokens": True}
        out = tmp_path / "out"
        result = run_experiment(build_run_config(values), out)
        assert result.report["config"]["pixel_threshold"] == 0
        assert '"pixel_threshold": 0,' in (out / "report.json").read_text()
        assert main(["verify-qreuse", "--run", str(out)]) == 0

    def test_synth_frames_other_than_the_step_count_exits_4(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["config"]["synth_frames"] = 7
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: config echo: synth_frames = 7, but the report records 6 steps"
        assert f"invariant violation: {expected}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["cut", "stray token", "stray mask"])
    def test_dump_past_the_last_step_exits_4_naming_it(self, tmp_path, capsys, edit):
        # A report cut to 4 of its 6 steps, its aggregates and echo rewritten
        # to match, leaves the dumps of steps 4 and 5; the masks are listed
        # first.  A stray dump past step 5 is the same fault.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        if edit == "cut":
            self.rewrite_report(out, lambda steps: steps.__delitem__(slice(4, None)))
            report = json.loads(path.read_text())
            report["config"]["synth_frames"] = 4
            path.write_text(json.dumps(report))
            folder, entry, index, last = out / "masks", "mask_000004.pgm", 4, 3
        elif edit == "stray token":
            shutil.copy(out / "tokens" / "fused_000005.ttft", out / "tokens" / "fused_000006.ttft")
            folder, entry, index, last = out / "tokens", "fused_000006.ttft", 6, 5
        else:
            shutil.copy(out / "masks" / "mask_000005.pgm", out / "masks" / "mask_000007.pgm")
            folder, entry, index, last = out / "masks", "mask_000007.pgm", 7, 5
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = (
            f"extra dump in {folder}: {entry} (index {index}), "
            f"but {path} has steps up to index {last} only"
        )
        assert f"invariant violation: {expected}\n" in capsys.readouterr().err

    def test_corrupted_token_dump_exits_4(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        report = read_report(out)
        target = next(
            s for s in report["steps"] if not s["is_keyframe"] and s["reused_rows"] > 0
        )
        token_path = out / "tokens" / f"fused_{target['t']:06d}.ttft"
        values = read_tensor(token_path)
        mask = read_pgm(out / "masks" / f"mask_{target['t']:06d}.pgm").ravel()
        reused_row = int(np.nonzero(mask == 0)[0][0])
        values[reused_row] += 1.0
        write_tensor(token_path, values)
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert "reuse error" in err and f"row {reused_row}" in err

    @pytest.mark.parametrize("field", ["query_error", "key_error", "value_error"])
    def test_recorded_error_the_replay_finds_0_exits_4_naming_it(self, tmp_path, capsys, field):
        out = self.run_with_artifacts(tmp_path)
        path = self.rewrite_report(out, lambda steps: steps[4].update({field: 0.25}))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: step 4 has {field} = 0.25, but the replay finds exactly 0"
        assert f"invariant violation: {expected}\n" in capsys.readouterr().err

    def test_nonzero_replayed_error_keeps_its_failure_line(self, tmp_path, capsys):
        # The dumps are float32, so a faulty run's recorded error need not
        # be the replay's; only the failure lines report it.
        out = self.run_with_artifacts(tmp_path)
        token_path = out / "tokens" / "fused_000004.ttft"
        values = read_tensor(token_path)
        row = int(np.flatnonzero(read_pgm(out / "masks" / "mask_000004.pgm").ravel() == 0)[0])
        values[row] += 1.0
        write_tensor(token_path, values)
        self.rewrite_report(out, lambda steps: steps[4].update(query_error=0.25))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"step 4: query row {row} reuse error" in err
        assert "but the replay finds" not in err

    def test_dumps_are_read_as_the_check_reaches_them(self, tmp_path, capsys, monkeypatch):
        import ttfusion.experiment

        out = self.run_with_artifacts(tmp_path)
        write_tensor(out / "tokens" / "fused_000002.ttft", np.zeros((4, 3), dtype=np.float32))
        read = []
        original = ttfusion.experiment.read_tensor

        def recording(path):
            read.append(path)
            return original(path)

        monkeypatch.setattr(ttfusion.experiment, "read_tensor", recording)
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        assert "fused_000002.ttft" in capsys.readouterr().err
        # Steps 0 and 1 were checked first; no later dump was opened.
        assert [p.split("fused_")[-1] for p in map(str, read)] == [
            "000000.ttft", "000001.ttft", "000002.ttft"
        ]

    def test_tampered_report_exits_4(self, tmp_path):
        out = self.run_with_artifacts(tmp_path)
        payload = json.loads((out / "report.json").read_text())
        payload["aggregates"]["total_saved_multiplications"] += 1
        (out / "report.json").write_text(json.dumps(payload))
        assert main(["verify-qreuse", "--run", str(out)]) == 4

    @pytest.mark.parametrize(
        "damage",
        ["not json", "not an object", "format only", "steps not a list",
         "step lacks a field", "config lacks a key"],
    )
    def test_malformed_report_exits_4_naming_it(self, tmp_path, capsys, damage):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        if damage == "steps not a list":
            report["steps"] = None
        elif damage == "step lacks a field":
            del report["steps"][2]["fusion_rate"]
        elif damage == "config lacks a key":
            del report["config"]["seed"]
        path.write_text(
            {"not json": "{not json", "not an object": "[]",
             "format only": '{"format": "ttf-report-v1"}'}.get(damage, json.dumps(report))
        )
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        assert f"invariant violation: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "part,key,value,kind",
        [("config", "width", "28", "int"), ("config", "width", True, "int"),
         ("config", "height", 28.0, "int"), ("config", "token_dim", None, "int"),
         ("config", "seed", "13", "int"), ("step", "fusion_rate", "0.5", "float"),
         ("step", "fusion_rate", 0, "float"), ("step", "is_keyframe", 0, "bool"),
         ("step", "saved_multiplications", 1.5, "int"),
         ("step", "saved_multiplications", False, "int"), ("step", "query_error", "0", "float"),
         ("step", "key_error", None, "float"), ("step", "value_error", [0.0], "float"),
         ("step", "reused_rows", "3", "int"), ("step", "fusion_updates", 2.0, "int"),
         ("step", "pixel_updates", None, "int"), ("step", "attention_updates", "2", "int"),
         ("config", "keyframe_interval", "3", "int")],
    )
    def test_field_of_the_wrong_type_exits_4_naming_it(
        self, tmp_path, capsys, part, key, value, kind
    ):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        record = report["config"] if part == "config" else report["steps"][1]
        record[key] = value
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        if part == "step":
            expected = f"step record 1 has {key} = {value!r}, expected {kind}"
        elif value is None:
            # A null drops out of the rebuilt config, which then holds the
            # default, not what the run echoed.
            expected = f"config echo: {key} missing or null"
        else:
            # The echo is typed by the config fields it echoes.
            expected = f"config echo: {key} must be {kind}, got {value!r}"
        assert f"invariant violation: {path}: {expected}" in capsys.readouterr().err

    def test_mask_that_disagrees_with_its_record_exits_4_naming_it(self, tmp_path, capsys):
        # A reused patch turned recomputed still passes the Q/K/V check, but
        # the saving it counts is no longer the report's.
        out = self.run_with_artifacts(tmp_path)
        target = next(
            s for s in read_report(out)["steps"] if not s["is_keyframe"] and s["reused_rows"] > 0
        )
        t, reused = target["t"], target["reused_rows"]
        path = out / "masks" / f"mask_{t:06d}.pgm"
        image = read_pgm(path).copy()
        image.ravel()[np.flatnonzero(image.ravel() == 0)[0]] = 255
        write_pgm(path, image)
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = (
            f"{path}: step {t} has reused_rows = {reused - 1} by its mask, "
            f"but the report records {reused}"
        )
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1, 128])
    def test_mask_pixel_neither_0_nor_255_exits_4_naming_it(self, tmp_path, capsys, value):
        # A mask pixel is 0 (reused) or 255 (recomputed); any other value is
        # no flag, not a recompute.
        out = self.run_with_artifacts(tmp_path)
        path = out / "masks" / "mask_000001.pgm"
        image = read_pgm(path).copy()
        recomputed = np.flatnonzero(image.ravel() == 255)
        assert recomputed.size
        image.ravel()[recomputed] = value
        write_pgm(path, image)
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = (
            f"{path}: step 1 has mask pixel {recomputed[0]} = {value}, "
            "expected 0 (reused) or 255 (recomputed)"
        )
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    def test_echo_token_dim_off_the_dumps_exits_3_before_any_weight_is_made(
        self, tmp_path, capsys, monkeypatch
    ):
        # Weights of the echo's token_dim are generated only once step 0's
        # dump has that width, so a wild token_dim allocates nothing.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["config"]["token_dim"] = 2**20
        path.write_text(json.dumps(report))

        def refuse(dim, seed):
            pytest.fail(f"weights of width {dim} generated before any dump was read")

        monkeypatch.setattr(ProjectionSet, "generate", refuse)
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        dump = out / "tokens" / "fused_000000.ttft"
        expected = f"{dump}: token dump is (4, 8), expected (4, {2**20}) (patches, token_dim)"
        assert f"i/o error: {expected}" in capsys.readouterr().err

    def test_keyframe_record_claiming_reuse_exits_4_naming_the_report(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        assert report["steps"][3]["is_keyframe"]
        report["steps"][3]["reused_rows"] = 1
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: step 3 has reused_rows = 0 by its mask, but the report records 1"
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop", "swap", "float"])
    def test_missing_or_reordered_step_exits_4(self, tmp_path, capsys, edit):
        # The aggregates are rewritten to match, so only the records' t
        # gives the edit away.
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        report = json.loads(path.read_text())
        steps = report["steps"]
        if edit == "drop":
            del steps[3]
        elif edit == "swap":
            steps[2], steps[3] = steps[3], steps[2]
        else:
            steps[1]["t"] = 1.0
        report["aggregates"] = _aggregates_from_steps(steps)
        path.write_text(json.dumps(report))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        first_bad = {"drop": "step record 3 has t = 4, expected 3",
                     "swap": "step record 2 has t = 3, expected 2",
                     "float": "step record 1 has t = 1.0, expected 1"}[edit]
        assert f"{path}: {first_bad}" in capsys.readouterr().err

    def test_width_off_the_patch_grid_exits_4_naming_the_report(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        path = out / "report.json"
        payload = json.loads(path.read_text())
        payload["config"]["width"] = 30
        path.write_text(json.dumps(payload))
        assert main(["verify-qreuse", "--run", str(out)]) == 4
        expected = f"{path}: config echo: dimensions 30x28 are not multiples of 14"
        assert f"invariant violation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_shape",
        [(4, 4), (4, 8, 1), (3, 8), (32,)],
        ids=["half-columns", "3-d", "short-rows", "1-d"],
    )
    def test_wrong_shape_token_dump_exits_3(self, tmp_path, capsys, bad_shape):
        out = self.run_with_artifacts(tmp_path)  # 4 patches of token_dim 8
        write_tensor(out / "tokens" / "fused_000002.ttft", np.zeros(bad_shape))
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        err = capsys.readouterr().err
        assert "fused_000002.ttft" in err and str(bad_shape) in err and "(4, 8)" in err

    def test_wrong_size_mask_exits_3(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)  # a 2 x 2 patch grid
        write_pgm(out / "masks" / "mask_000002.pgm", np.full((2, 3), 255, dtype=np.uint8))
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        err = capsys.readouterr().err
        assert "mask_000002.pgm" in err and "(2, 3)" in err and "(2, 2)" in err

    def test_mask_with_extra_bytes_exits_3_and_names_it(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        mask = out / "masks" / "mask_000001.pgm"
        mask.write_bytes(mask.read_bytes() + b"\x00")
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        assert f"{mask}: header declares 4 pixel bytes, found 5" in capsys.readouterr().err

    def test_token_dump_with_extra_values_exits_3_and_names_it(self, tmp_path, capsys):
        out = self.run_with_artifacts(tmp_path)
        dump = out / "tokens" / "fused_000002.ttft"
        dump.write_bytes(dump.read_bytes() + bytes(4))
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{dump}: dims (4, 8) declare 128 value bytes, found 132" in err

    def test_earlier_runs_dumps_are_not_replayed(self, tmp_path, capsys):
        # Run 2 writes into run 1's directory without masks: verify-qreuse
        # must not check run 2's tokens against run 1's masks.
        walker = "synth_frames = 8\nwidth = 56\nheight = 56\nsynth_walker = true\n"
        first = write_config(
            tmp_path, walker + "top_k = 12\nemit_masks = true\nemit_tokens = true\n",
            name="first.cfg",
        )
        second = write_config(
            tmp_path, walker + "top_k = 2\nemit_masks = false\nemit_tokens = true\n",
            name="second.cfg",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", first, "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "masks").iterdir())
        (out / "masks" / "notes.txt").write_text("not a dump")
        (out / "tokens" / "fused_000001.ttft.bak").write_text("not a dump")
        assert main(["run", "--config", second, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        assert "mask file not found" in capsys.readouterr().err
        # Only the names a run writes were removed.
        assert sorted(p.name for p in (out / "masks").iterdir()) == ["notes.txt"]
        assert sorted(p.name for p in (out / "tokens").iterdir()) == sorted(
            ["fused_000001.ttft.bak"] + [f"fused_{t:06d}.ttft" for t in range(8)]
        )

    def test_missing_token_dumps_exit_3(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert main(["verify-qreuse", "--run", str(out)]) == 3
        assert "emit_tokens" in capsys.readouterr().err


class TestTensorFileAttentionSource:
    def test_missing_attention_file_exits_3(self, tmp_path, capsys):
        attention_dir = tmp_path / "attn"
        attention_dir.mkdir()
        config = write_config(
            tmp_path,
            SMALL + f"attention_source = tensor_files\nattention_dir = {attention_dir}\n",
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert "attn_text_000000" in capsys.readouterr().err

    def test_attention_file_past_last_frame_exits_3(self, tmp_path, capsys):
        attention_dir = tmp_path / "attn"
        attention_dir.mkdir()
        text = np.full((4, 8, 4), 0.25, dtype=np.float32)
        for t in range(7):  # SMALL has 6 frames, t = 0..5
            write_tensor(attention_dir / f"attn_text_{t:06d}.ttft", text)
        config = write_config(
            tmp_path,
            SMALL + f"attention_source = tensor_files\nattention_dir = {attention_dir}\n",
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", config, "--out", out]) == 3
        assert "attn_text_000006" in capsys.readouterr().err
        argv = ["sweep", "--config", config, "--param", "K", "--values", "1,3", "--out", out]
        assert main(argv) == 3
        assert "attn_text_000006" in capsys.readouterr().err
        (attention_dir / "attn_text_000006.ttft").unlink()
        assert main(["run", "--config", config, "--out", out]) == 0

    @pytest.mark.parametrize("shape", [(4, 8, 3), (4, 4)])
    def test_wrong_shape_attention_file_exits_3_and_names_it(self, tmp_path, capsys, shape):
        attention_dir = tmp_path / "attn"
        attention_dir.mkdir()
        for t in range(6):
            write_tensor(attention_dir / f"attn_text_{t:06d}.ttft", np.full((4, 8, 4), 0.25))
        write_tensor(attention_dir / "attn_text_000001.ttft", np.full(shape, 0.25))
        config = write_config(
            tmp_path,
            SMALL + f"attention_source = tensor_files\nattention_dir = {attention_dir}\n",
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ")
        assert str(attention_dir / "attn_text_000001.ttft") in err
        assert str(shape) in err and "'text tokens', 4)" in err

    def test_bad_attention_weights_exit_2_and_name_the_file(self, tmp_path, capsys):
        attention_dir = tmp_path / "attn"
        attention_dir.mkdir()
        for t in range(6):
            write_tensor(attention_dir / f"attn_text_{t:06d}.ttft", np.full((4, 8, 4), 0.25))
        write_tensor(attention_dir / "attn_text_000001.ttft", np.full((4, 8, 4), -0.25))
        config = write_config(
            tmp_path,
            SMALL + f"attention_source = tensor_files\nattention_dir = {attention_dir}\n",
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {attention_dir / 'attn_text_000001.ttft'}: ")
        assert "non-negative" in err


class TestLogging:
    def test_invalid_ttf_log_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TTF_LOG", "loud")
        config = write_config(tmp_path, SMALL)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "TTF_LOG" in capsys.readouterr().err

    def test_info_level_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TTF_LOG", "info")
        config = write_config(tmp_path, SMALL)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
