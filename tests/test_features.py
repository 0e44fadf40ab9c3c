import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishguard.errors import MalformedUrl, MissingFeature, ResolverFailure
from phishguard.features import (
    CANONICAL_FEATURES,
    LEXICAL_FEATURES,
    RESOLVED_FEATURES,
    OfflineResolver,
    PrecomputedResolver,
    extract_features,
    extract_lexical,
    from_canonical_vector,
    is_ip_host,
    parse_url,
    resolve_remaining,
    split_host,
    to_canonical_vector,
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


class TestResolvers:
    def test_offline_default_all_zero(self):
        fv = extract_features("https://a.com/x", OfflineResolver())
        assert all(fv[name] == 0 for name in RESOLVED_FEATURES)

    def test_precomputed_passthrough(self):
        resolver = PrecomputedResolver({"Google_Index": -1})
        fv = extract_features("https://a.com/x", resolver)
        assert fv["Google_Index"] == -1
        assert fv["DNSRecord"] == 0

    def test_out_of_domain_rejected(self):
        resolver = PrecomputedResolver({"Iframe": 2})
        with pytest.raises(ResolverFailure):
            extract_features("https://a.com/x", resolver)

    def test_one_call_per_url(self):
        class Counting(OfflineResolver):
            calls = 0

            def resolve(self, *args):  # count calls whatever the signature
                self.calls += 1
                return super().resolve(*args)

        resolver = Counting()
        extract_features("https://a.com/x", resolver)
        assert resolver.calls == 1

    @pytest.mark.parametrize("answer", [
        {name: 0 for name in RESOLVED_FEATURES if name != "SFH"},
        {**{name: 0 for name in RESOLVED_FEATURES}, "SFH": 2},
    ], ids=["missing", "out_of_domain"])
    def test_bad_answer_names_the_feature(self, answer):
        class Fixed:
            def resolve(self, parts):
                return answer

        with pytest.raises(ResolverFailure) as err:
            extract_features("https://a.com/x", Fixed())
        assert err.value.feature == "SFH"
        assert str(err.value).startswith("SFH: ")

    def test_precomputed_ignores_non_resolved_keys(self):
        raw = "https://a.com/x"
        resolver = PrecomputedResolver({"URL_Length": 0, "unknown": 5, "SFH": 1})
        fv = extract_features(raw, resolver)
        assert fv == {**extract_features(raw), "SFH": 1}


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
        rebound = from_canonical_vector(to_canonical_vector(fv))
        assert rebound == {k: float(v) for k, v in fv.items()}


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
    # determinism under the offline resolver
    assert resolve_remaining(parse_url(raw)) == fv


def test_lexical_resolved_partition():
    assert set(LEXICAL_FEATURES) | set(RESOLVED_FEATURES) == set(CANONICAL_FEATURES)
    assert not set(LEXICAL_FEATURES) & set(RESOLVED_FEATURES)
    assert len(CANONICAL_FEATURES) == 23
