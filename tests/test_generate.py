import random

from phishguard.features import parse_url
from phishguard.generate import (
    FEATURE_DOMAIN_GENERATORS,
    TRANSFORMATION_RULES,
    GenerationConfig,
    count_feature_triggers,
    generate_feature_rich_domains,
    generate_synthetic_urls,
    normalize_url,
)

BASES = ["https://example.com/login", "https://paypal.com/account"]


class TestSyntheticUrls:
    def test_count_and_uniqueness(self):
        cfg = GenerationConfig(legit_urls=BASES, target_count=50, seed=7)
        urls = generate_synthetic_urls(cfg)
        assert len(urls) == 50
        assert len({normalize_url(u) for u in urls}) == 50
        assert all(normalize_url(u) not in {normalize_url(b) for b in BASES}
                   for u in urls)

    def test_at_rule_postcondition(self):
        rng = random.Random(1)
        for base in BASES:
            assert "@" in TRANSFORMATION_RULES["at_redirect"](parse_url(base), rng)

    def test_determinism(self):
        cfg = GenerationConfig(legit_urls=BASES, target_count=30, seed=3)
        assert generate_synthetic_urls(cfg) == generate_synthetic_urls(cfg)

    def test_all_outputs_reparse(self):
        cfg = GenerationConfig(legit_urls=BASES, target_count=200, seed=5)
        for url in generate_synthetic_urls(cfg):
            parse_url(url)  # must not raise


class TestFeatureRichDomains:
    def test_per_feature_floor(self):
        cfg = GenerationConfig(legit_urls=BASES, per_feature_target=3, seed=2)
        urls, report = generate_feature_rich_domains(cfg)
        with_at = [u for u in urls if "@" in u]
        assert len(with_at) >= 3
        assert report["having_At_Symbol"] >= 3

    def test_report_totals_meet_target(self):
        cfg = GenerationConfig(legit_urls=BASES, per_feature_target=4, seed=9)
        urls, report = generate_feature_rich_domains(cfg)
        for feature in FEATURE_DOMAIN_GENERATORS:
            assert report[feature] >= 4

    def test_two_features_at_least_double(self):
        cfg = GenerationConfig(legit_urls=BASES, per_feature_target=2, seed=4)
        urls, _ = generate_feature_rich_domains(cfg)
        assert len(urls) >= 2 * len(FEATURE_DOMAIN_GENERATORS)

    def test_report_matches_extractor_oracle(self):
        cfg = GenerationConfig(legit_urls=BASES, per_feature_target=5, seed=11)
        urls, report = generate_feature_rich_domains(cfg)
        # independent recount straight through the extractor
        recount = count_feature_triggers(urls, tuple(FEATURE_DOMAIN_GENERATORS))
        assert recount == report

    def test_shuffle_deterministic(self):
        cfg = GenerationConfig(legit_urls=BASES, per_feature_target=3, seed=8)
        assert generate_feature_rich_domains(cfg) == generate_feature_rich_domains(cfg)


def test_normalize_url():
    assert normalize_url("HTTP://A.com/x/") == "http://a.com/x"
    assert normalize_url("http://a.com//x///y") == "http://a.com/x/y"
