"""The redesigned request API: PrepRequest / TransferSettings contracts."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.prep.request import (
    KNOWN_MEASURES,
    DeliveryMode,
    PrepRequest,
    TransferSettings,
)
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT


class TestPrepRequestValidation:
    def test_defaults(self):
        request = PrepRequest()
        assert request.lod == "paragraph"
        assert request.measure == "auto"
        assert request.query == ""
        assert request.packet_size == 256
        assert request.gamma == 1.5
        assert request.systematic is True

    def test_frozen(self):
        request = PrepRequest()
        with pytest.raises(AttributeError):
            request.lod = "section"

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measure"):
            PrepRequest(measure="entropy")

    def test_every_known_measure_accepted(self):
        for measure in KNOWN_MEASURES:
            assert PrepRequest(measure=measure).measure == measure

    def test_unknown_lod_rejected(self):
        with pytest.raises(ValueError):
            PrepRequest(lod="chapter")

    @pytest.mark.parametrize("field,value", [
        ("packet_size", 0),
        ("packet_size", -8),
        ("gamma", 0.5),
        ("gamma", 0.0),
        ("gamma", 255.5),
        ("gamma", float("inf")),
        ("gamma", float("nan")),
    ])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            PrepRequest(**{field: value})

    def test_resolved_measure_auto(self):
        assert PrepRequest(query="mobile web").resolved_measure == "mqic"
        assert PrepRequest(query="").resolved_measure == "ic"
        assert PrepRequest(query="   ").resolved_measure == "ic"
        assert PrepRequest(query="x", measure="qic").resolved_measure == "qic"

    def test_query_key_normalises_whitespace_and_case(self):
        assert (
            PrepRequest(query="  Mobile   Web ").query_key
            == PrepRequest(query="mobile web").query_key
        )

    def test_replace(self):
        request = PrepRequest(query="a")
        other = request.replace(lod="section")
        assert other.lod == "section" and other.query == "a"
        assert request.lod == "paragraph"


class TestPrepRequestKeysAndWire:
    def test_cache_key_depends_on_parameters(self):
        digest = "d" * 64
        base = PrepRequest(query="mobile web")
        assert base.cache_key(digest) == PrepRequest(query="mobile  WEB ").cache_key(digest)
        for variant in [
            base.replace(lod="section"),
            base.replace(query="other words"),
            base.replace(gamma=2.0),
            base.replace(packet_size=128),
            base.replace(measure="qic"),
            base.replace(systematic=False),
        ]:
            assert variant.cache_key(digest) != base.cache_key(digest)
        assert base.cache_key("e" * 64) != base.cache_key(digest)

    def test_wire_roundtrip(self):
        request = PrepRequest(
            lod="section", measure="qic", query="weak links",
            packet_size=128, gamma=2.0, systematic=False,
        )
        assert PrepRequest.from_wire(request.to_wire()) == request

    def test_from_wire_rejects_junk(self):
        with pytest.raises(ValueError):
            PrepRequest.from_wire("not a dict")
        with pytest.raises(ValueError):
            PrepRequest.from_wire({"lod": "paragraph", "bogus_field": 1})
        with pytest.raises(ValueError):
            PrepRequest.from_wire({"packet_size": "huge"})
        with pytest.raises(ValueError):
            PrepRequest.from_wire({"measure": "entropy"})


class TestDeliveryMode:
    def test_default_is_unicast(self):
        assert PrepRequest().delivery is DeliveryMode.UNICAST
        assert TransferSettings().delivery is DeliveryMode.UNICAST

    def test_strings_are_canonicalized(self):
        assert PrepRequest(delivery="carousel").delivery is DeliveryMode.CAROUSEL
        assert PrepRequest(delivery=" CAROUSEL ").delivery is DeliveryMode.CAROUSEL
        assert (
            TransferSettings(delivery="unicast").delivery is DeliveryMode.UNICAST
        )
        assert (
            TransferSettings(delivery="carousel").delivery is DeliveryMode.CAROUSEL
        )

    def test_junk_mode_rejected(self):
        with pytest.raises(ValueError, match="delivery"):
            PrepRequest(delivery="multicast")
        with pytest.raises(ValueError, match="delivery"):
            PrepRequest(delivery=7)
        with pytest.raises(ValueError, match="delivery"):
            TransferSettings(delivery="anycast")

    def test_unicast_omitted_from_wire_for_legacy_peers(self):
        # Pre-DeliveryMode servers reject unknown prep keys, so the
        # default mode must not appear on the wire at all.
        assert "delivery" not in PrepRequest().to_wire()
        wire = PrepRequest(delivery="carousel").to_wire()
        assert wire["delivery"] == "carousel"

    def test_wire_roundtrip(self):
        request = PrepRequest(delivery=DeliveryMode.CAROUSEL)
        assert PrepRequest.from_wire(request.to_wire()) == request
        assert PrepRequest.from_wire({}).delivery is DeliveryMode.UNICAST

    def test_from_wire_rejects_junk_mode(self):
        with pytest.raises(ValueError, match="delivery"):
            PrepRequest.from_wire({"delivery": "multicast"})
        with pytest.raises(ValueError, match="delivery"):
            PrepRequest.from_wire({"delivery": 3})

    def test_request_replace_carries_delivery(self):
        base = PrepRequest(query="mobile", gamma=2.0)
        request = base.replace(delivery="carousel")
        assert request.delivery is DeliveryMode.CAROUSEL
        assert request.replace(delivery=DeliveryMode.UNICAST) == base

    def test_settings_replace_carries_delivery(self):
        base = TransferSettings(max_rounds=3)
        settings = base.replace(delivery="carousel")
        assert settings.delivery is DeliveryMode.CAROUSEL
        assert settings.max_rounds == 3
        assert settings.replace(delivery="unicast") == base

    def test_delivery_is_part_of_the_cache_key(self):
        digest = "d" * 64
        base = PrepRequest()
        carousel = base.replace(delivery=DeliveryMode.CAROUSEL)
        assert carousel.cache_key(digest) != base.cache_key(digest)
        assert carousel.cache_key(digest)[-1] == "carousel"


class TestTransferSettings:
    def test_defaults_match_protocol_constants(self):
        settings = TransferSettings()
        assert settings.relevance_threshold is None
        assert settings.max_rounds == DEFAULT_MAX_ROUNDS
        assert settings.round_timeout == DEFAULT_ROUND_TIMEOUT
        assert settings.max_reconnects == 4
        assert settings.use_cache is False

    @pytest.mark.parametrize("kwargs", [
        {"max_rounds": 0},
        {"max_rounds": -1},
        {"round_timeout": 0.0},
        {"round_timeout": -1.0},
        {"max_reconnects": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TransferSettings(**kwargs)


# -- the HELLO ``prep`` parser against arbitrary JSON ----------------------

_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63, 256])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

#: Per field: plausible values (so some requests are accepted) or any
#: JSON value at all.
_PREP_FIELDS = {
    "lod": st.sampled_from(["paragraph", "Section", "document", "chapter"]) | _JSON,
    "measure": st.sampled_from(sorted(KNOWN_MEASURES) + ["entropy"]) | _JSON,
    "query": st.text(max_size=20) | _JSON,
    "packet_size": st.integers(min_value=-2, max_value=4096) | _JSON,
    "gamma": st.floats(min_value=0.5, max_value=300.0)
    | st.sampled_from([float("inf"), float("nan"), 1e308, 10**400, 255, 255.01])
    | _JSON,
    "backend": st.sampled_from([None, "", "numpy", "fused"]) | _JSON,
    "systematic": st.booleans() | _JSON,
    "delivery": st.sampled_from(["unicast", "CAROUSEL", "multicast"]) | _JSON,
}


class TestFromWireProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        fields=st.fixed_dictionaries({}, optional=_PREP_FIELDS),
        extra=st.dictionaries(st.sampled_from(["bogus", "gama"]), _JSON, max_size=1),
    )
    def test_only_value_error_and_accepted_requests_round_trip(self, fields, extra):
        fields = {**fields, **extra}
        try:
            request = PrepRequest.from_wire(fields)
        except ValueError:
            return
        assert not extra
        assert math.isfinite(request.gamma) and 1.0 <= request.gamma <= 255.0
        wire = request.to_wire()
        # Strict JSON: an accepted request never puts NaN/Infinity back
        # on the wire.
        echoed = json.loads(json.dumps(wire, allow_nan=False))
        assert PrepRequest.from_wire(echoed) == request
