"""Run reports: a documented JSON shape with self-checking aggregates.

Each step is reduced to a small record as it completes (:func:`step_record`),
so a report needs none of the run's tokens or masks.  The report body is
deterministic (sorted keys, no timestamps), so identical runs serialize to
identical bytes.  Aggregates are recomputed from the per-step records on
load and must match exactly.
"""

from __future__ import annotations

import json
import os

from .fusion import StepResult

REPORT_FORMAT = "ttf-report-v1"
SWEEP_FORMAT = "ttf-sweep-v1"
# What load_report reads of a report, by the type the writer gives it: its
# parts and step record fields.  The echo's fields are typed by the config
# fields they echo (``runconfig.RunConfig``).
_REPORT_FIELDS = {"format": str, "config": dict, "steps": list, "aggregates": dict}
_STEP_FIELDS = {"t": int, "is_keyframe": bool, "pixel_updates": int, "attention_updates": int,
                "fusion_updates": int, "fusion_rate": float, "reused_rows": int,
                "saved_multiplications": int, "query_error": float, "key_error": float,
                "value_error": float}


class InvariantError(RuntimeError):
    """A stored report or run result violates one of its invariants."""


def step_record(step: StepResult, errors: dict) -> dict:
    """The report's record of one step and the errors of its Q/K/V reuse
    check (``ReuseChecker.check``)."""
    n, d = step.fused_tokens.shape
    return {
        "t": step.timestep,
        "is_keyframe": step.is_keyframe,
        "pixel_updates": int(step.pixel_mask.sum()),
        "attention_updates": int(step.attention_mask.sum()),
        **mask_counts(n - int(step.fusion_mask.sum()), n, d),
        **errors,
    }


def mask_counts(reused: int, n: int, d: int) -> dict:
    """The record fields that a step's fusion mask fixes, from its count of
    ``reused`` rows out of ``n`` tokens of width ``d``: the one rule the
    writer and ``verify-qreuse`` both use.  Each reused row saves its three
    d x d projections."""
    return {
        "reused_rows": reused,
        "fusion_updates": n - reused,
        "fusion_rate": reused / n,
        "saved_multiplications": 3 * reused * d * d,
    }


def build_report(config_echo: dict, records: list[dict]) -> dict:
    """Assemble the report dict for one run from its step records
    (:func:`step_record`), in step order."""
    steps = list(records)
    report = {"format": REPORT_FORMAT, "config": dict(config_echo), "steps": steps}
    report["aggregates"] = _aggregates_from_steps(steps)
    return report


def _aggregates_from_steps(steps: list[dict]) -> dict:
    rates = [s["fusion_rate"] for s in steps]
    non_keyframe = [s["fusion_rate"] for s in steps if not s["is_keyframe"]]
    return {
        "steps": len(steps),
        "keyframes": sum(1 for s in steps if s["is_keyframe"]),
        "mean_fusion_rate_all": sum(rates) / len(rates) if rates else 0.0,
        "mean_fusion_rate_non_keyframe": (
            sum(non_keyframe) / len(non_keyframe) if non_keyframe else 0.0
        ),
        "total_saved_multiplications": sum(s["saved_multiplications"] for s in steps),
        "max_reuse_error_query": max((s["query_error"] for s in steps), default=0.0),
        "max_reuse_error_key": max((s["key_error"] for s in steps), default=0.0),
        "max_reuse_error_value": max((s["value_error"] for s in steps), default=0.0),
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(path: str | os.PathLike, report: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_report(report))


def load_report(path: str | os.PathLike) -> dict:
    """Load a report and check it: format, the step record fields that the
    aggregates and verify-qreuse read and their types, ``t == i`` in record
    i, and the aggregates re-derived from the records.  The config echo is
    checked to be a dict only; verify-qreuse rebuilds the run's config from
    it by the config rules.  A defect raises ``InvariantError`` naming the
    file."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise InvariantError(f"{path}: not a JSON report: {exc}") from exc
    _require(path, "report", report, _REPORT_FIELDS)
    if report["format"] != REPORT_FORMAT:
        raise InvariantError(f"{path}: unknown report format {report['format']!r}")
    for i, record in enumerate(report["steps"]):
        # A t off its place is named as such, even when it is no integer.
        t = record.get("t") if isinstance(record, dict) else None
        if t is not None and (type(t) is not int or t != i):
            raise InvariantError(f"{path}: step record {i} has t = {t!r}, expected {i}")
        _require(path, f"step record {i}", record, _STEP_FIELDS)
    recomputed = _aggregates_from_steps(report["steps"])
    if recomputed != report["aggregates"]:
        raise InvariantError(f"{path}: stored aggregates disagree with per-step records")
    return report


def _require(path, what: str, record, fields: dict) -> None:
    missing = [key for key in fields if key not in record] if isinstance(record, dict) else fields
    if missing:
        raise InvariantError(f"{path}: {what} lacks {', '.join(missing)}")
    # type(), not isinstance(): the writer writes no true for 1, nor 1 for 1.0.
    for key, kind in fields.items():
        if type(record[key]) is not kind:
            raise InvariantError(
                f"{path}: {what} has {key} = {record[key]!r}, expected {kind.__name__}"
            )


def build_sweep_summary(parameter: str, points: list[dict]) -> dict:
    return {"format": SWEEP_FORMAT, "parameter": parameter, "points": points}


def sweep_csv(summary: dict) -> str:
    lines = ["value,mean_fusion_rate_all,mean_fusion_rate_non_keyframe"]
    for point in summary["points"]:
        lines.append(
            f"{point['value']},{point['mean_fusion_rate_all']!r},"
            f"{point['mean_fusion_rate_non_keyframe']!r}"
        )
    return "\n".join(lines) + "\n"
