from dataclasses import asdict, replace
from typing import get_type_hints

import pytest

from ttfusion.fusion import FusionConfig
from ttfusion.runconfig import (
    _PARSERS,
    SWEEP_PARAMETERS,
    ConfigError,
    RunConfig,
    apply_parameter,
    build_run_config,
    config_echo,
    load_config_file,
    parse_config_text,
    parse_sweep_values,
)
from ttfusion.synthetic import SynthSpec
from ttfusion.toy_encoder import EncoderSpec

MINIMAL = "synth_frames = 6\n"


def key_types():
    """Each config key and the type of the dataclass field of the same name,
    read from the evaluated annotations: every RunConfig field but the
    nested fusion, and every FusionConfig field."""
    types = get_type_hints(RunConfig)
    del types["fusion"]
    types.update(get_type_hints(FusionConfig))
    return types


# A value of each field type as config text, and the message a value of
# the wrong type gets.  An optional field parses as its type.
OPTIONAL = {str | None: str, int | None: int}
SAMPLES = {int: ("7", 7), float: ("0.5", 0.5), bool: ("true", True), str: ("abc", "abc")}
WRONG = {
    int: "expected integer, got 'x'",
    float: "expected number, got 'x'",
    bool: "expected true/false, got 'x'",
}

# Values of another type than a field's: bool is no int or float, int no
# bool, str no number.
WRONG_TYPED = {int: (True, 7.0, "7"), float: (True, "0.5"), bool: (1, "true"), str: (7, True)}


def config_from(text):
    return build_run_config(parse_config_text(text))


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = """
        # run settings
        synth_frames = 6   # six frames
        seed = 42

        keyframe_interval = 5
        """
        config = config_from(text)
        assert config.synth.frame_count == 6
        assert config.seed == 42
        assert config.fusion.keyframe_interval == 5

    def test_defaults_follow_simulation_settings(self):
        config = config_from(MINIMAL)
        fusion = config.fusion
        assert fusion.keyframe_interval == 3
        assert fusion.pixel_threshold == 0.03
        assert fusion.top_k == 70
        assert fusion.attention_mode == "text_to_vision"
        assert (fusion.width, fusion.height, config.token_dim) == (224, 224, 64)
        assert config.attention_source == "toy"
        assert not config.emit_masks

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("synth_frames 6\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            config_from("synth_frames = 6\nemit_masks = maybe\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("synth_frames = six\n")

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(ConfigError, match="line 2: pixel_threshold: expected a finite"):
            parse_config_text(f"synth_frames = 6\npixel_threshold = {raw}\n")


class TestValidation:
    def test_both_sources_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from("synth_frames = 6\nframes_dir = frames\n")

    def test_neither_source_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from("seed = 1\n")

    def test_tensor_files_requires_attention_dir(self):
        with pytest.raises(ConfigError, match="attention_dir"):
            config_from("synth_frames = 6\nattention_source = tensor_files\n")

    def test_unknown_attention_source_rejected(self):
        with pytest.raises(ConfigError):
            config_from("synth_frames = 6\nattention_source = oracle\n")

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            config_from("synth_frames = 6\nwidth = 225\n")

    def test_synth_spec_inherits_dims_and_seed(self):
        config = config_from(
            "synth_frames = 9\nwidth = 112\nheight = 56\nseed = 77\nsynth_walker = true\n"
        )
        assert (config.synth.width, config.synth.height) == (112, 56)
        assert config.synth.seed == 77
        assert config.synth.walker

    @pytest.mark.parametrize(
        "key,raw", [("synth_noise", "0.5"), ("synth_walker", "false"), ("synth_change_fraction", "0")]
    )
    def test_synth_key_without_synth_frames_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key} set without synth_frames$"):
            config_from(f"frames_dir = frames\n{key} = {raw}\n")

    def test_replaced_synth_field_of_a_frames_dir_config_rejected(self):
        # A key-presence check cannot see a replaced field; the echo would
        # say null for a value the config holds.
        config = config_from("frames_dir = frames\n")
        with pytest.raises(ConfigError, match="^synth_noise set without synth_frames$"):
            replace(config, synth_noise=0.5)
        with pytest.raises(
            ConfigError, match="^synth_change_fraction, synth_walker set without synth_frames$"
        ):
            replace(config, synth_walker=True, synth_change_fraction=0.25)
        assert replace(config, synth_noise=SynthSpec.noise_amplitude) == config

    @pytest.mark.parametrize(
        "key,message",
        [("token_dim", "token dim must be positive"), ("text_tokens", "at least one text token"),
         ("heads", "at least one head")],
    )
    def test_encoder_keys_checked_at_load(self, key, message):
        with pytest.raises(ConfigError, match=message):
            config_from(f"synth_frames = 6\n{key} = 0\n")
        with pytest.raises(ConfigError, match=message):
            config_from(f"frames_dir = frames\n{key} = 0\n")

    def test_synth_spec_follows_a_replaced_seed_and_size(self):
        config = config_from("synth_frames = 9\nseed = 3\nsynth_noise = 0.25\n")
        seeded = replace(config, seed=7, fusion=replace(config.fusion, width=112))
        assert seeded.synth == config_from(
            "synth_frames = 9\nseed = 7\nsynth_noise = 0.25\nwidth = 112\n"
        ).synth
        assert (seeded.synth.seed, seeded.synth.width) == (7, 112)
        assert seeded.encoder_spec.seed == 7

    def test_replaced_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="at least one head"):
            replace(config_from(MINIMAL), heads=0)
        with pytest.raises(ConfigError, match="noise amplitude"):
            replace(config_from(MINIMAL), synth_noise=2.0)

    @pytest.mark.parametrize("key", sorted(key_types()))
    def test_value_of_another_type_than_its_field_rejected(self, key):
        kind = key_types()[key]
        kind = OPTIONAL.get(kind, kind)
        for value in WRONG_TYPED[kind]:
            with pytest.raises(TypeError) as info:
                build_run_config({"synth_frames": 6, key: value})
            assert str(info.value) == f"{key} must be {kind.__name__}, got {value!r}"

    def test_bool_seed_rejected(self):
        with pytest.raises(TypeError, match="seed must be int, got True"):
            RunConfig(synth_frames=6, seed=True)

    def test_int_for_a_float_field_accepted_and_round_trips(self):
        floats = [key for key, kind in key_types().items() if kind is float]
        assert len(floats) == 4
        config = build_run_config({"synth_frames": 6, **dict.fromkeys(floats, 0)})
        echo = config_echo(config)
        assert [echo[key] for key in floats] == [0] * 4
        assert build_run_config({k: v for k, v in echo.items() if v is not None}) == config

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("synth_frames = 4\noutput_dir = results\n")
        config = load_config_file(path)
        assert config.output_dir == "results"


class TestSweepParameters:
    def test_aliases_map_to_canonical_fields(self):
        config = config_from(MINIMAL)
        fusion = config.fusion
        assert apply_parameter(config, "K", 7) == replace(fusion, keyframe_interval=7)
        assert apply_parameter(config, "tau_pixel", 0.5) == replace(fusion, pixel_threshold=0.5)
        assert apply_parameter(config, "k", 10) == replace(fusion, top_k=10)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            apply_parameter(config_from(MINIMAL), "width", 112)

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_parameter(config_from(MINIMAL), "K", 0)

    def test_parse_values_csv(self):
        assert parse_sweep_values("K", "2, 3,5") == [2, 3, 5]
        assert parse_sweep_values("tau_pixel", "0.0,0.03") == [0.0, 0.03]

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_sweep_values("K", " , ")

    @pytest.mark.parametrize(
        "name,raw,value",
        [("K", "3,3", "3"), ("K", "2,3,03", "3"), ("tau_pixel", "0.1,0.2,0.10", "0.1")],
    )
    def test_duplicate_values_rejected(self, name, raw, value):
        with pytest.raises(ConfigError, match=f"sweep value {value} is listed twice"):
            parse_sweep_values(name, raw)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_sweep_values("tau_pixel", "0.01,nan")


class TestEcho:
    def test_frames_dir_echoes_every_synth_key_as_null(self):
        echo = config_echo(config_from("frames_dir = frames\n"))
        synth = {k: v for k, v in echo.items() if k.startswith("synth_")}
        assert synth == dict.fromkeys(
            ["synth_frames", "synth_change_fraction", "synth_walker", "synth_noise"]
        )

    def test_echo_round_trips_key_settings(self):
        config = config_from("synth_frames = 6\nseed = 5\ntop_k = 12\n")
        echo = config_echo(config)
        assert echo["synth_frames"] == 6
        assert echo["seed"] == 5
        assert echo["top_k"] == 12
        assert echo["frames_dir"] is None


class TestSingleDeclaration:
    """Each config key is declared once: a parser and a dataclass field."""

    def test_echo_covers_every_key_but_output_dir(self):
        assert set(config_echo(config_from(MINIMAL))) == set(_PARSERS) - {"output_dir"}

    def test_fusion_defaults_are_the_dataclass_defaults(self):
        assert config_from(MINIMAL).fusion == FusionConfig()

    def test_synth_defaults_are_the_dataclass_defaults(self):
        assert asdict(config_from(MINIMAL).synth) == asdict(SynthSpec(frame_count=6))

    def test_encoder_defaults_are_the_dataclass_defaults(self):
        assert config_from(MINIMAL).encoder_spec == EncoderSpec()

    def test_every_field_is_a_config_key(self):
        assert set(_PARSERS) == set(key_types())
        assert len(_PARSERS) == 24

    @pytest.mark.parametrize("key", sorted(key_types()))
    def test_key_parses_a_value_of_its_fields_type(self, key):
        kind = key_types()[key]
        kind = OPTIONAL.get(kind, kind)
        raw, want = SAMPLES[kind]
        got = parse_config_text(f"{key} = {raw}\n")[key]
        assert (got, type(got)) == (want, kind)
        if kind is not str:
            with pytest.raises(ConfigError) as info:
                parse_config_text(f"{key} = x\n")
            assert str(info.value) == f"line 1: {key}: {WRONG[kind]}"

    def test_sweep_aliases_parse_as_their_key(self):
        for alias, key in SWEEP_PARAMETERS.items():
            [got] = parse_sweep_values(alias, "2")
            want = _PARSERS[key]("2")
            assert (got, type(got)) == (want, type(want))
