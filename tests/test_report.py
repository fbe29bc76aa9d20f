import json

import pytest

from ttfusion.experiment import run_experiment
from ttfusion.report import (
    InvariantError,
    build_sweep_summary,
    load_report,
    serialize_report,
    sweep_csv,
    write_report,
)
from ttfusion.runconfig import build_run_config


def small_result(frames=6, **overrides):
    values = {
        "synth_frames": frames,
        "width": 28,
        "height": 28,
        "token_dim": 8,
        "top_k": 2,
        "seed": 13,
        "synth_noise": 0.05,
    }
    values.update(overrides)
    return run_experiment(build_run_config(values))


class TestReportShape:
    def test_step_records_carry_mask_counts_and_rates(self):
        result = small_result()
        steps = result.report["steps"]
        assert len(steps) == 6
        for t, record in enumerate(steps):
            assert record["t"] == t
            assert record["is_keyframe"] == (t % 3 == 0)
            assert 0 <= record["fusion_rate"] <= 1
            # OR combination: at least each dimension, at most their sum.
            assert record["fusion_updates"] >= max(
                record["pixel_updates"], record["attention_updates"]
            )
            assert record["fusion_updates"] <= (
                record["pixel_updates"] + record["attention_updates"]
            )
        keyframe = steps[0]
        assert keyframe["pixel_updates"] == keyframe["fusion_updates"] == 4

    def test_aggregates_match_step_records(self):
        result = small_result()
        aggregates = result.report["aggregates"]
        steps = result.report["steps"]
        assert aggregates["steps"] == len(steps)
        assert aggregates["keyframes"] == sum(1 for s in steps if s["is_keyframe"])
        assert aggregates["mean_fusion_rate_all"] == (
            sum(s["fusion_rate"] for s in steps) / len(steps)
        )
        assert aggregates["total_saved_multiplications"] == sum(
            s["saved_multiplications"] for s in steps
        )

    def test_single_keyframe_run_means_are_zero(self):
        # No non-keyframe step: that mean is 0.0, not a division by zero.
        aggregates = small_result(frames=1).report["aggregates"]
        assert aggregates["mean_fusion_rate_all"] == 0.0
        assert aggregates["mean_fusion_rate_non_keyframe"] == 0.0

    def test_detection_disabled_means(self):
        # One keyframe, then five steps that reuse every patch.
        result = small_result(
            keyframe_interval=100, enable_pixel=False, enable_attention=False
        )
        aggregates = result.report["aggregates"]
        assert aggregates["mean_fusion_rate_all"] == 5 / 6
        assert aggregates["mean_fusion_rate_non_keyframe"] == 1.0

    def test_config_echo_embedded(self):
        result = small_result()
        assert result.report["config"]["synth_frames"] == 6
        assert result.report["config"]["token_dim"] == 8


class TestSerialization:
    def test_round_trip_passes_self_check(self, tmp_path):
        result = small_result()
        path = tmp_path / "report.json"
        write_report(path, result.report)
        loaded = load_report(path)
        assert loaded == result.report

    def test_serialization_is_deterministic(self):
        a = small_result()
        b = small_result()
        assert serialize_report(a.report) == serialize_report(b.report)

    def test_tampered_aggregates_rejected(self, tmp_path):
        result = small_result()
        path = tmp_path / "report.json"
        write_report(path, result.report)
        payload = json.loads(path.read_text())
        payload["aggregates"]["mean_fusion_rate_all"] += 0.1
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantError, match="disagree"):
            load_report(path)

    def test_tampered_step_record_rejected(self, tmp_path):
        result = small_result()
        path = tmp_path / "report.json"
        write_report(path, result.report)
        payload = json.loads(path.read_text())
        payload["steps"][1]["fusion_rate"] = 0.123
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantError):
            load_report(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "nope", "steps": []}))
        with pytest.raises(InvariantError, match="format"):
            load_report(path)


class TestSweepSummary:
    def test_csv_layout(self):
        summary = build_sweep_summary(
            "keyframe_interval",
            [
                {"value": 2, "mean_fusion_rate_all": 0.5, "mean_fusion_rate_non_keyframe": 1.0},
                {"value": 4, "mean_fusion_rate_all": 0.75, "mean_fusion_rate_non_keyframe": 1.0},
            ],
        )
        lines = sweep_csv(summary).splitlines()
        assert lines[0] == "value,mean_fusion_rate_all,mean_fusion_rate_non_keyframe"
        assert lines[1] == "2,0.5,1.0"
        assert lines[2] == "4,0.75,1.0"
