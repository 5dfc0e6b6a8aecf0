import json

import pytest

from paritrace.harness import (
    PROPERTIES,
    CampaignConfig,
    ConfigError,
    campaign,
    pinned_suite,
)


def to_json_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        cfg = CampaignConfig(trials=10)
        a = to_json_bytes(campaign(cfg, seed=0))
        b = to_json_bytes(campaign(cfg, seed=0))
        assert a == b

    def test_different_seed_different_stream(self):
        cfg = CampaignConfig(trials=10)
        a = to_json_bytes(campaign(cfg, seed=0))
        b = to_json_bytes(campaign(cfg, seed=1))
        # both pass, but the reports include only aggregate counts, so byte
        # equality across different seeds is possible; check the trials ran
        assert json.loads(a)["ok"] and json.loads(b)["ok"]


class TestCampaign:
    def test_default_properties_all_pass(self):
        report = campaign(CampaignConfig(trials=40), seed=3)
        assert report.ok, report.summary()
        for res in report.results:
            assert res.passed == 40

    def test_property_selection(self):
        report = campaign(
            CampaignConfig(trials=5, properties=("engine-vs-oracle",)), seed=0
        )
        assert [r.name for r in report.results] == ["engine-vs-oracle"]

    def test_all_properties_registered(self):
        report = campaign(CampaignConfig(trials=2), seed=0)
        assert tuple(r.name for r in report.results) == PROPERTIES

    def test_config_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            CampaignConfig.from_json({"trails": 10})

    def test_config_from_json(self):
        cfg = CampaignConfig.from_json({"trials": 7, "mutation": "flip-signs"})
        assert cfg.trials == 7 and cfg.mutation == "flip-signs"

    @pytest.mark.parametrize("properties", [["finite-traces"], []])
    def test_config_from_json_rejects_finite_traces_above_cap(self, properties):
        doc = {"finite_maxlen": 8, "max_letters": 3, "properties": properties}
        with pytest.raises(ConfigError, match="9841 words.*4096"):
            CampaignConfig.from_json(doc)
        # the cap binds only the finite-traces property
        CampaignConfig.from_json(dict(doc, properties=["engine-vs-oracle"]))

    def test_config_from_json_rejects_letters_above_cap(self):
        with pytest.raises(ConfigError, match="max_letters must be <= 8, got 20"):
            CampaignConfig.from_json({"max_letters": 20, "properties": ["engine-vs-oracle"]})
        doc = {"max_letters": 8, "properties": ["engine-vs-oracle"]}
        assert CampaignConfig.from_json(doc).max_letters == 8

    def test_many_tree_symbols_still_run_trees(self):
        # tree symbols are not letters: only word-shaped automata are capped
        cfg = CampaignConfig.from_json(
            {"trials": 20, "tree_symbols": 12, "properties": ["trees", "det-exception"]}
        )
        report = campaign(cfg, seed=0)
        assert report.ok, report.summary()
        assert [r.passed for r in report.results] == [20, 20]


class TestMutationSmoke:
    def test_flipped_signs_detected_with_counterexamples(self):
        cfg = CampaignConfig(
            trials=60, mutation="flip-signs", properties=("engine-vs-oracle",)
        )
        report = campaign(cfg, seed=1)
        res = report.results[0]
        assert res.failed > 0, "sign-flipped solver was not detected"
        assert res.counterexamples
        # shrinking keeps counterexamples small
        assert any("automaton" in ce for ce in res.counterexamples)

    def test_flipped_signs_sabotage_the_compacted_system(self, monkeypatch):
        """The mutation flips the system that membership solves, so it is
        detected, and shrunk, without building the literal system."""
        from paritrace import harness, trace

        def literal(*args, **kwargs):
            raise AssertionError("flip-signs built the literal system")

        monkeypatch.setattr(trace, "build_restricted_hes", literal)
        monkeypatch.setattr(harness, "build_restricted_hes", literal, raising=False)
        cfg = CampaignConfig(
            trials=60, mutation="flip-signs", properties=("engine-vs-oracle",)
        )
        res = campaign(cfg, seed=1).results[0]
        assert res.failed > 0 and res.counterexamples
        for ce in res.counterexamples:
            head, _, aut_text = ce.partition("automaton=\n")
            assert head.startswith("engine=") and "states: " in aut_text

    def test_shrunk_counterexample_still_fails(self):
        from paritrace.automata import parse
        from paritrace.harness import _membership_for
        from paritrace.omega_input import parse_lasso
        from paritrace.oracle import lasso_acceptance

        cfg = CampaignConfig(
            trials=60, mutation="flip-signs", properties=("engine-vs-oracle",)
        )
        report = campaign(cfg, seed=1)
        ce = report.results[0].counterexamples[0]
        head, _, aut_text = ce.partition("automaton=\n")
        import re

        m = re.search(r"state=(\S+) lasso=(\S+)", head)
        aut = parse(aut_text)
        state = m.group(1)
        lasso = parse_lasso(m.group(2))
        assert _membership_for(cfg, aut, state, lasso) != lasso_acceptance(
            aut, state, lasso
        ).value


class TestPinnedSuite:
    def test_all_green(self):
        report = pinned_suite()
        assert report.ok, report.summary()

    def test_summary_mentions_cases(self):
        text = pinned_suite().summary()
        assert "order sensitivity" in text
        assert "deterministic-with-exception" in text


class TestDefaultCampaignAtScale:
    def test_five_hundred_trials_all_pass(self):
        report = campaign(CampaignConfig(trials=500), seed=42)
        assert report.ok, report.summary()
        assert all(r.passed == 500 for r in report.results)
