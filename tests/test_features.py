import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishguard import features
from phishguard.errors import MalformedUrl, MissingFeature
from phishguard.features import (
    CANONICAL_FEATURES,
    LEXICAL_FEATURES,
    RESOLVED_FEATURES,
    extract_features,
    extract_lexical,
    is_ip_host,
    parse_url,
    resolve_remaining,
    split_host,
    to_canonical_vector,
)
from phishguard.generate import (
    GenerationConfig,
    generate_feature_rich_domains,
    generate_synthetic_urls,
)


class TestParseUrl:
    def test_direct_decomposition(self):
        parts = parse_url("https://a.com/x?q=1")
        assert parts.scheme == "https"
        assert parts.host == "a.com"
        assert parts.path == "/x"
        assert parts.query == "q=1"

    def test_default_scheme(self):
        parts = parse_url("192.168.1.1/login")
        assert parts.scheme == "http"
        assert parts.host == "192.168.1.1"
        assert parts.path == "/login"

    def test_no_host_rejected(self):
        with pytest.raises(MalformedUrl):
            parse_url("ht!tp://")

    def test_empty_rejected(self):
        with pytest.raises(MalformedUrl):
            parse_url("")

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.Com/Path").host == "example.com"

    def test_userinfo_stripped_from_host_kept_in_raw(self):
        parts = parse_url("http://legit.com@evil.com/")
        assert parts.host == "evil.com"
        assert "@" in parts.raw

    def test_port(self):
        assert parse_url("http://a.com:8080/").port == 8080
        with pytest.raises(MalformedUrl):
            parse_url("http://a.com:99999999/")


class TestLexical:
    def test_ip_address(self):
        parts = parse_url("http://192.168.1.1/login")
        assert extract_lexical(parts)["having_IP_Address"] == 1

    def test_url_length_and_at(self):
        parts = parse_url("https://a.com")
        lex = extract_lexical(parts)
        assert lex["URL_Length"] == 13
        assert lex["having_At_Symbol"] == -1

    def test_prefix_suffix_hyphen_in_domain(self):
        parts = parse_url("http://secure-login.example.com")
        assert extract_lexical(parts)["Prefix_Suffix"] == 1
        parts = parse_url("http://login.example.com/a-b")
        assert extract_lexical(parts)["Prefix_Suffix"] == -1

    def test_subdomain_depth(self):
        assert extract_lexical(parse_url("http://a.com"))["having_Sub_Domain"] == -1
        assert extract_lexical(parse_url("http://www.a.com"))["having_Sub_Domain"] == -1
        assert extract_lexical(parse_url("http://x.a.com"))["having_Sub_Domain"] == -1
        assert extract_lexical(parse_url("http://x.y.a.com"))["having_Sub_Domain"] == 0
        assert extract_lexical(parse_url("http://x.y.z.a.com"))["having_Sub_Domain"] == 1

    def test_shortener(self):
        assert extract_lexical(parse_url("http://bit.ly/abc"))["Shortening_Service"] == 1
        assert extract_lexical(parse_url("http://bitly.fake/abc"))["Shortening_Service"] == -1

    def test_https_token(self):
        assert extract_lexical(parse_url("http://https-login.com"))["HTTPS_token"] == 1
        assert extract_lexical(parse_url("https://login.com"))["HTTPS_token"] == -1

    def test_double_slash(self):
        assert extract_lexical(parse_url("http://a.com//redirect"))["double_slash_redirecting"] == 1
        assert extract_lexical(parse_url("http://a.com/x"))["double_slash_redirecting"] == -1


class TestIpHost:
    @pytest.mark.parametrize("host,expected", [
        ("192.168.1.1", True),
        ("256.1.1.1", False),
        ("0x7f.0x00.0x00.0x01", True),
        ("0x7f000001", True),
        ("example.com", False),
    ])
    def test_cases(self, host, expected):
        assert is_ip_host(host) is expected


class TestSplitHost:
    def test_simple(self):
        assert split_host("a.com") == ([], "a.com")

    def test_cctld(self):
        assert split_host("shop.example.co.uk") == (["shop"], "example.co.uk")

    def test_unknown_tld(self):
        assert split_host("x.y.weirdtld") == (["x"], "y.weirdtld")


# a few generated phishing-like URLs, each with its own transformation
OFFLINE_URLS = generate_synthetic_urls(GenerationConfig(
    legit_urls=["https://www.example.com/login", "https://paypal.com/account?x=1#top"],
    target_count=6, seed=5))


class TestOfflineFeatures:
    @pytest.mark.parametrize("raw", ["https://a.com/x", *OFFLINE_URLS])
    def test_every_resolved_feature_is_zero(self, raw):
        fv = extract_features(raw)
        assert all(fv[name] == 0 for name in RESOLVED_FEATURES)


class TestCanonicalVector:
    def test_shape_and_order(self):
        fv = extract_features("https://a.com/x")
        vec = to_canonical_vector(fv)
        assert vec.shape == (23,)
        assert vec[0] == fv["Abnormal_URL"]
        assert vec[-1] == fv["web_traffic"]

    def test_missing_feature(self):
        fv = extract_features("https://a.com/x")
        del fv["web_traffic"]
        with pytest.raises(MissingFeature) as err:
            to_canonical_vector(fv)
        assert "web_traffic" in str(err.value)

    def test_determinism(self):
        fv = extract_features("https://a.com/x")
        assert np.array_equal(to_canonical_vector(fv), to_canonical_vector(fv))

    def test_round_trip(self):
        fv = extract_features("http://login.paypal-secure.com//next@x")
        vector = to_canonical_vector(fv)
        assert vector.tolist() == [float(fv[name]) for name in CANONICAL_FEATURES]


URL_FRAGMENTS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-_/@:?=&%",
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(URL_FRAGMENTS)
def test_fuzz_domain_and_length(fragment):
    raw = "http://" + fragment
    try:
        parts = parse_url(raw)
    except MalformedUrl:
        return
    fv = resolve_remaining(parts)
    assert fv["URL_Length"] == len(raw)
    for name in CANONICAL_FEATURES:
        if name == "URL_Length":
            assert fv[name] >= 0
        else:
            assert fv[name] in (-1, 0, 1)
    # determinism
    assert resolve_remaining(parse_url(raw)) == fv


# characters urlsplit strips, refuses, NFKC-checks or splits on, and
# pieces that make a scheme, a port out of range, a signed port or a hex host
URL_PIECES = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits + ":/?#@[]%.-_+~ \t\n\0é℀",
            min_size=1, max_size=8),
    st.sampled_from(["://", ":80", ":99999", ":+1", "0x7f"]),
)


def parsed_or_refused(parse, raw):
    try:
        return parse(raw)
    except MalformedUrl as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.lists(URL_PIECES, min_size=1, max_size=8).map("".join))
def test_the_plain_split_is_exactly_urlsplit(raw):
    plain = parsed_or_refused(parse_url, raw)
    assert plain == parsed_or_refused(features._split_with_urlsplit, raw)
    if isinstance(plain, features.UrlParts):
        via_urlsplit = resolve_remaining(features._split_with_urlsplit(raw))
        assert (to_canonical_vector(extract_features(raw)).tobytes()
                == to_canonical_vector(via_urlsplit).tobytes())


class TestPlainSplit:
    """The URLs the generator makes, which the benchmark serves, take the
    plain split; any URL it does not cover is left to urlsplit."""

    @pytest.fixture
    def urlsplit_calls(self, monkeypatch):
        calls, urlsplit = [], features.urlsplit

        def counting(*args, **kwargs):
            calls.append(args)
            return urlsplit(*args, **kwargs)

        monkeypatch.setattr(features, "urlsplit", counting)
        return calls

    def test_generated_urls_never_reach_urlsplit(self, urlsplit_calls):
        cfg = GenerationConfig(legit_urls=["https://www.example.com/login",
                                           "https://paypal.com/account?x=1#top"],
                               target_count=100, per_feature_target=5, seed=3)
        urls = generate_synthetic_urls(cfg) + generate_feature_rich_domains(cfg)[0]
        for url in urls:  # the benchmark adds ?visit=N once its pool is used up
            parse_url(url)
            parse_url(f"{url}?visit=1")
        assert len(urls) > 100 and urlsplit_calls == []

    @pytest.mark.parametrize("raw", ["http://a.com/a b", "http://[::1]/x", "http://é.com/"])
    def test_other_urls_take_urlsplit(self, urlsplit_calls, raw):
        parse_url(raw)
        assert len(urlsplit_calls) == 1


def test_lexical_resolved_partition():
    assert set(LEXICAL_FEATURES) | set(RESOLVED_FEATURES) == set(CANONICAL_FEATURES)
    assert not set(LEXICAL_FEATURES) & set(RESOLVED_FEATURES)
    assert len(CANONICAL_FEATURES) == 23
