from datetime import date

import pytest

from driftkit.config import (
    ConfigError,
    build_config,
    load_config,
    parse_age_range,
)
from driftkit.events import DateRange, Sex


class TestConfigFileParsing:
    def test_key_value_lines_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# note\ninput = data.csv\n\nseed = 12  # trailing\n")
        raw = load_config(cfg)
        assert raw == {"input": "data.csv", "seed": "12"}

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nothing.cfg")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config({}, {})
        assert cfg.granularity == "month"
        assert cfg.top_k == 10_000
        assert cfg.estimator.seed == 0
        assert cfg.estimator.kind == "plugin" and cfg.estimator.n_resamples == 500

    def test_overrides_win(self):
        raw = {"granularity": "week", "seed": "3"}
        cfg = build_config(raw, {"granularity": "quarter"})
        assert cfg.granularity == "quarter"
        assert cfg.estimator.seed == 3

    def test_window_and_exclusions(self):
        cfg = build_config(
            {
                "window_start": "2021-05-01",
                "window_end": "2023-12-31",
                "exclude": "2020-03-01:2020-06-01,2020-12-09:2021-05-20",
            },
            {},
        )
        assert cfg.window == DateRange(date(2021, 5, 1), date(2023, 12, 31))
        assert len(cfg.exclude) == 2
        assert cfg.exclude[1].end == date(2021, 5, 20)

    def test_window_needs_both_ends(self):
        with pytest.raises(ConfigError, match="together"):
            build_config({"window_start": "2021-05-01"}, {})

    def test_cohort_fields(self):
        cfg = build_config(
            {"sex": "female", "age_range": "30-46", "category": "adult_fiction,children"},
            {},
        )
        assert cfg.cohort.sex is Sex.FEMALE
        assert cfg.cohort.age_range == (30, 46)
        assert len(cfg.cohort.categories) == 2

    def test_age_range_syntax(self):
        assert parse_age_range("65-") == (65, None)
        assert parse_age_range("30-31") == (30, 31)
        for text in ("old", "46-30", "30-30"):
            with pytest.raises(ConfigError, match=f"bad age_range '{text}'"):
                parse_age_range(text)

    def test_bad_measure_and_estimator(self):
        with pytest.raises(ConfigError):
            build_config({"measure": "kl"}, {})
        with pytest.raises(ConfigError):
            build_config({"estimator": "magic"}, {})
        with pytest.raises(ConfigError, match="alpha"):
            build_config({"measure": "jsd_alpha"}, {})

    def test_manifest_dict_round_trips_key_facts(self):
        cfg = build_config({"seed": "9", "top_k": "0"}, {})
        d = cfg.as_dict()
        assert d["estimator"]["seed"] == 9 and d["top_k"] == 0
        assert "seed" not in d and "age_bins" not in d

    @pytest.mark.parametrize(
        "key", ["top_k", "max_malformed_fraction", "resamples", "seed", "alpha"]
    )
    def test_bad_number_is_config_error(self, key):
        with pytest.raises(ConfigError, match=f"bad {key} 'many'"):
            build_config({key: "many"}, {})

    def test_empty_value_leaves_default(self):
        cfg = build_config({"top_k": "", "sex": "", "exclude": ""}, {})
        assert cfg.top_k == 10_000 and cfg.cohort.is_empty() and cfg.exclude == ()
