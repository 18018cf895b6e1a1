"""Model gateway: config, cache, synthetic memorizer, retry, throttling."""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_config, make_ontology, make_profile, request_key
from ontoprobe import gateway as gateway_module
from ontoprobe import (
    Concept,
    ConfigurationError,
    HallucinationStyle,
    Language,
    ModelConfig,
    ModelGateway,
    OntologyKind,
    ParseError,
    Provider,
    PromptStyle,
    ResponseCache,
    SyntheticProfile,
    TransportExhausted,
    render,
    run_report,
    synthetic_respond,
    template_for,
)
from ontoprobe.ontology import ID_PATTERNS
from ontoprobe.prompts import RenderedPrompt


def chat_prompt(concept: Concept):
    return render(template_for(concept.source, PromptStyle.CHAT, Language.EN), concept)


# A value other than the default of each field only an HTTP request reads.
_HTTP_ONLY_CHANGES = {
    "max_new_tokens": {"max_new_tokens": 11},
    "max_in_flight": {"max_in_flight": 9},
    "requests_per_minute": {"requests_per_minute": 30.0},
    "max_attempts": {"max_attempts": 2},
    "backoff_base": {"backoff_base": 3.0},
}


class TestModelConfig:
    def test_temperature_bounds(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(Provider.SYNTHETIC, "m", temperature=1.5)
        with pytest.raises(ConfigurationError):
            ModelConfig(Provider.SYNTHETIC, "m", temperature=-0.1)

    def test_max_new_tokens_bound(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(Provider.SYNTHETIC, "m", max_new_tokens=0)

    def test_http_requires_endpoint(self):
        with pytest.raises(ConfigurationError, match="endpoint"):
            ModelConfig(Provider.CHAT_HTTP, "m")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"provider": "SYNTHETIC", "endpoint": "https://a.test"},
             "endpoint applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC"),
            ({"provider": "SYNTHETIC", "endpoint": ""},
             "endpoint applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC"),
            ({"provider": "CHAT_HTTP", "endpoint": "https://a.test", "profile_path": "profile.json"},
             "profile_path applies only to SYNTHETIC, not CHAT_HTTP"),
            ({"provider": "COMPLETION_HTTP", "endpoint": "https://a.test", "profile_path": ""},
             "profile_path applies only to SYNTHETIC, not COMPLETION_HTTP"),
            *(
                ({"provider": "SYNTHETIC", **change}, f"{name} applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC")
                for name, change in _HTTP_ONLY_CHANGES.items()
            ),
        ],
        ids=["synthetic-endpoint", "synthetic-empty-endpoint", "chat-profile", "completion-empty-profile",
             *(f"synthetic-{name}" for name in _HTTP_ONLY_CHANGES)],
    )
    def test_field_of_another_provider_refused(self, fields, message):
        """A field the provider never reads would be silently ignored: the
        run would measure another model than its config names."""
        with pytest.raises(ConfigurationError) as raised:
            ModelConfig.from_dict({"model_name": "m", **fields})
        assert str(raised.value) == message

    def test_synthetic_accepts_http_only_fields_at_their_defaults(self):
        defaults = {"max_new_tokens": 10, "endpoint": None, "max_in_flight": 4, "requests_per_minute": None,
                    "max_attempts": 5, "backoff_base": 0.5}
        config = ModelConfig.from_dict({"provider": "SYNTHETIC", "model_name": "m", **defaults})
        assert config == ModelConfig(Provider.SYNTHETIC, "m")

    @pytest.mark.parametrize(
        "change, message",
        [
            # NaN passed `<= 0` and then broke the throttle on its first request.
            ({"requests_per_minute": math.nan}, "requests_per_minute must be positive"),
            # An infinite step made the first backoff sleep overflow.
            ({"backoff_base": math.inf}, "backoff_base must be finite and non-negative"),
            ({"backoff_base": math.nan}, "backoff_base must be finite and non-negative"),
            ({"backoff_base": -1.0}, "backoff_base must be finite and non-negative"),
        ],
    )
    def test_pacing_values_out_of_range_rejected(self, change, message):
        with pytest.raises(ConfigurationError, match=message):
            ModelConfig.from_dict({**_HTTP_BASE, **change})

    @pytest.mark.parametrize("fields", [{"model_name": "m"}, {"provider": "SYNTHETIC"}, {}])
    def test_provider_and_model_name_required(self, fields):
        with pytest.raises(ConfigurationError) as raised:
            ModelConfig.from_dict(fields)
        assert str(raised.value) == "model config requires provider and model_name"

    def test_max_in_flight_below_one_rejected(self):
        with pytest.raises(ConfigurationError) as raised:
            ModelConfig.from_dict({**_HTTP_BASE, "max_in_flight": 0})
        assert str(raised.value) == "max_in_flight must be at least 1"

    def test_replace_runs_the_checks(self):
        config = ModelConfig.from_dict(_HTTP_BASE)
        assert config._replace(max_attempts=2).max_attempts == 2
        with pytest.raises(ConfigurationError, match="max_attempts must be at least 1"):
            config._replace(max_attempts=0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ModelConfig.from_dict({"provider": "SYNTHETIC", "model_name": "m", "nonsense": 1})

    def test_provider_case_insensitive(self):
        config = ModelConfig.from_dict({"provider": "synthetic", "model_name": "m"})
        assert config.provider is Provider.SYNTHETIC

    def test_from_file_resolves_profile_path(self, tmp_path):
        (tmp_path / "profile.json").write_text("{}", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"provider": "SYNTHETIC", "model_name": "m", "profile_path": "profile.json"}),
            encoding="utf-8",
        )
        config = ModelConfig.from_file(config_path)
        assert config.profile_path == str((tmp_path / "profile.json").resolve())


class TestCacheKey:
    def test_distinguishes_repetition_tags(self):
        base = (Provider.SYNTHETIC, "m", 0.0, "prompt")
        assert request_key(*base, 0, "i") != request_key(*base, 1, "i")

    def test_distinguishes_temperature(self):
        assert request_key(Provider.SYNTHETIC, "m", 0.0, "p", 0, "i") != request_key(Provider.SYNTHETIC, "m", 0.1, "p", 0, "i")

    def test_equal_inputs_equal_keys(self):
        assert request_key(Provider.SYNTHETIC, "m", 0.3, "p", 2, "i") == request_key(Provider.SYNTHETIC, "m", 0.3, "p", 2, "i")

    def test_distinguishes_identity(self):
        base = (Provider.SYNTHETIC, "m", 0.0, "p", 0)
        assert request_key(*base, "a") != request_key(*base, "b")

    @pytest.mark.parametrize(
        "request_fields, expected",
        [
            (
                (Provider.SYNTHETIC, "memorizer", 0.0, "What is the Gene Ontology ID of 'mitochondrion'? Answer: GO:", 0, "6f1d" + "0" * 60),
                "5dc0b1ede2dddaa63228af7388f3a5fefc2e760a57cb5a1ff607c2d0748652c8",
            ),
            (
                (Provider.CHAT_HTTP, "gpt-3.5-turbo", 0.7, '¿Cuál es el identificador de «corazón»?\u2028"quoted" \\ back', 3, "a" * 64),
                "65762683e21eb2613251ee5a62992e49f14ef43fe791bf34ecc4eed8869ffa70",
            ),
            (
                (Provider.COMPLETION_HTTP, "m\u00e9\U0001f600", 1.0, "\x00\x1f\n\x85\U0001f9ec end", 12, "identity"),
                "fb5ddc2ca9de165494a1cba0a22e7841261dd6525d4275f8017c9810bbaaf6b0",
            ),
        ],
    )
    def test_keys_of_existing_caches_unchanged(self, request_fields, expected):
        # Pinned from the json.dumps definition the response caches on disk
        # were written with: a changed key would make every one of them miss.
        assert request_key(*request_fields) == expected


def _gateway_key(config: dict, profile=None) -> str:
    """The cache key a gateway built from `config` gives one fixed request."""
    model = ModelConfig.from_dict(config)
    identity = ModelGateway(model, profile=profile).identity
    return request_key(model.provider, model.model_name, 0.0, "p", 0, identity)


_HTTP_BASE = {"provider": "CHAT_HTTP", "model_name": "m", "endpoint": "https://a.test"}
_PACING = [
    {"temperature": 0.7},
    {"max_in_flight": 9},
    {"requests_per_minute": 30.0},
    {"max_attempts": 2},
    {"backoff_base": 3.0},
]


class TestGatewayIdentity:
    @pytest.mark.parametrize("change", _PACING + [{"seed": 1}])
    def test_http_fields_never_sent_leave_key(self, change):
        assert _gateway_key({**_HTTP_BASE, **change}) == _gateway_key(_HTTP_BASE)

    @pytest.mark.parametrize(
        "change",
        [
            {"model_name": "other"},
            {"provider": "COMPLETION_HTTP"},
            {"endpoint": "https://b.test"},
            {"max_new_tokens": 11},
        ],
    )
    def test_http_answer_fields_change_key(self, change):
        assert _gateway_key({**_HTTP_BASE, **change}) != _gateway_key(_HTTP_BASE)

    @pytest.mark.parametrize("change", [{"temperature": 0.7}, {"profile_path": "/moved/profile.json"}])
    def test_synthetic_fields_outside_answers_leave_key(self, change):
        profile = make_profile(make_ontology(3), recall=0.5)
        base = {"provider": "SYNTHETIC", "model_name": "m"}
        assert _gateway_key({**base, **change}, profile) == _gateway_key(base, profile)

    def test_synthetic_key_follows_seed_and_profile_contents(self):
        ontology = make_ontology(3)
        base = {"provider": "SYNTHETIC", "model_name": "m"}
        key = _gateway_key(base, make_profile(ontology, recall=0.5))
        assert _gateway_key({**base, "seed": 1}, make_profile(ontology, recall=0.5)) != key
        assert _gateway_key(base, make_profile(ontology, recall=0.4)) != key
        assert _gateway_key(base, make_profile(ontology, recall=0.5, style=HallucinationStyle.NEAR_MISS)) != key


class TestResponseCache:
    def test_round_trip_byte_identical(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.ndjson")
        raw = 'GO:0001822 — "kidney"\n\ttail'
        cache.put("k1", "prompt", raw)
        cache.close()
        again = ResponseCache(tmp_path / "cache.ndjson")
        assert again.get("k1") == raw

    def test_put_skips_existing_key(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        cache.put("k1", "p", "first")
        cache.put("k1", "p", "second")
        cache.close()
        assert cache.get("k1") == "first"
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_partial_final_line_tolerated(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        cache.put("k1", "p", "one")
        cache.put("k2", "p", "two")
        cache.close()
        text = path.read_text(encoding="utf-8")
        path.write_text(text + '{"key_hash": "k3", "raw', encoding="utf-8")
        again = ResponseCache(path)
        assert again.get("k1") == "one"
        assert again.get("k2") == "two"
        assert again.get("k3") is None

    def test_corruption_not_on_final_line_is_error(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        path.write_text('not json\n{"key_hash": "k", "raw_text": "x"}\n', encoding="utf-8")
        with pytest.raises(Exception, match="corrupt"):
            ResponseCache(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert len(ResponseCache(tmp_path / "absent.ndjson")) == 0

    def test_torn_final_line_cut_before_first_append(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        cache.put("k1", "p", "one")
        cache.put("k2", "p", "two")
        cache.close()
        path.write_text(path.read_text(encoding="utf-8") + '{"key_hash": "k3", "raw', encoding="utf-8")
        resumed = ResponseCache(path)
        resumed.put("k3", "p", "three")
        resumed.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        again = ResponseCache(path)
        assert [again.get(k) for k in ("k1", "k2", "k3")] == ["one", "two", "three"]

    def test_torn_line_kept_when_file_grew_since_load(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        path.write_text('{"key_hash": "k1", "raw_text": "one"}\n{"key_h', encoding="utf-8")
        resumed = ResponseCache(path)
        other = '{"key_hash": "k2", "raw_text": "two"}\n'
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(other)
        resumed.put("k3", "p", "three")
        resumed.close()
        text = path.read_text(encoding="utf-8")
        assert text.startswith('{"key_hash": "k1", "raw_text": "one"}\n{"key_h' + other)
        assert text.count("\n") == 3

    def test_torn_line_left_alone_without_appends(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        path.write_text('{"key_hash": "k1", "raw_text": "one"}\n{"key_h', encoding="utf-8")
        ResponseCache(path).close()
        assert path.read_text(encoding="utf-8").endswith('{"key_h')

    def test_unicode_line_separators_in_text_round_trip(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        raw = "GO:0000001\u2028next\x85line\u2029end"
        cache.put("k1", "p", raw)
        cache.put("k2", "p", "two")
        cache.close()
        again = ResponseCache(path)
        assert again.get("k1") == raw
        assert again.get("k2") == "two"

    def test_concurrent_appends_share_one_handle_intact(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)

        def writer(w: int) -> None:
            for i in range(150):
                cache.put(f"k{w}-{i}", "p", f"answer {w} {i} " + "x" * (i % 40))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(worker.is_alive() for worker in workers)
        cache.close()
        again = ResponseCache(path)
        assert len(again) == len(path.read_text(encoding="utf-8").splitlines()) == 8 * 150
        assert again.get("k7-149") == "answer 7 149 " + "x" * 29

    @staticmethod
    def _counted_load(path, monkeypatch) -> tuple[ResponseCache, list[str]]:
        """The cache at `path`, and each line json.loads was called with while loading it."""
        calls = []
        real = json.loads

        def counting(text, *args, **kwargs):
            calls.append(text)
            return real(text, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(gateway_module.json, "loads", counting)
            cache = ResponseCache(path)
        return cache, calls

    def test_rows_written_by_put_load_without_json_loads(self, tmp_path, monkeypatch):
        ontology = make_ontology(5)
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology, recall=0.5), cache=cache)
        first = [gateway.complete(chat_prompt(c)) for c in ontology.concepts]
        cache.close()
        loaded, calls = self._counted_load(path, monkeypatch)
        assert calls == []
        second = ModelGateway(make_config(), profile=make_profile(ontology, recall=0.5), cache=loaded)
        again = [second.complete(chat_prompt(c)) for c in ontology.concepts]
        assert all(r.from_cache for r in again)
        assert [r.raw_text for r in again] == [r.raw_text for r in first]

    @pytest.mark.parametrize(
        "row",
        [
            '{"key_hash": "%s", "config_digest": "%s", "prompt": "p", "raw_text": "GO:0000007", "timestamp": 1.5}',
            '{"prompt": "p", "key_hash": "%s", "raw_text": "GO:0000007", "timestamp": 1.5}',
            '{"key_hash": "%s", "prompt": "p", "timestamp": 1.5, "raw_text": "GO:0000007"}',
            '{"key_hash": "%s", "prompt": "p", "raw_text": "GO:0000007", "timestamp": 1.5} ',
            '{"key_hash": "%s", "prompt": "p", "raw_text": "ignored", "timestamp": 1.5, "raw_text": "GO:0000007"}',
        ],
    )
    def test_other_row_layouts_take_json_loads_only_with_edge_whitespace(self, tmp_path, monkeypatch, row):
        # Any one JSON value is read by the scanner; a line with whitespace
        # around its value goes to json.loads.
        key = "ab" * 32
        line = row % ((key, "cd" * 32) if "config_digest" in row else key)
        path = tmp_path / "cache.ndjson"
        path.write_text(line + "\n" + line.replace(key, "ef" * 32) + "\n", encoding="utf-8")
        cache, calls = self._counted_load(path, monkeypatch)
        assert len(calls) == (2 if line != line.strip() else 0)
        assert (len(cache), cache.get(key), cache.get("ef" * 32)) == (2, "GO:0000007", "GO:0000007")

    @pytest.mark.parametrize(
        "bad",
        [
            '{"key_hash": "%s", "prompt": "p", "raw_text": "x", "timestamp": 1.0}x',
            '{"key_hash": "%s", "prompt": "p", "raw_text": "x", "timestamp": 1.0',
            '{"key_hash": "%s", "prompt": "p", "raw_text": "x", "timestamp": 1.}',
            '{"key_hash": "%s", "prompt": "p", "raw_text": "x\\q", "timestamp": 1.0}',
            '{"key_hash": "%s", "prompt": "p\x01", "raw_text": "x", "timestamp": 1.0}',
            '{"key_hash": "%s", "prompt": "p"}',
            '{"key_hash": "%s", "prompt": "p", "raw_texT": "x", "timestamp": 1.0}',
            '{"key_hash": "%s", "prompt": "p", "raw_text": 5, "timestamp": 1.0}',
            '{"key_hash": 7, "prompt": "p", "raw_text": "x", "timestamp": 1.0}',
            "[1]",
            '"%s"',
            b'{"key_hash": "%s", "prompt": "p\xff", "raw_text": "x", "timestamp": 1.0}',
        ],
    )
    def test_corrupt_row_is_an_error_mid_file_and_skipped_last(self, tmp_path, bad):
        good = b'{"key_hash": "%s", "prompt": "p", "raw_text": "GO:0000001", "timestamp": 1.0}' % (b"ab" * 32)
        bad = bad if isinstance(bad, bytes) else bad.encode("utf-8")
        line = bad % (b"cd" * 32) if b"%s" in bad else bad
        path = tmp_path / "cache.ndjson"
        path.write_bytes(b"%s\n%s\n%s\n" % (good, line, good))
        with pytest.raises(ParseError, match=r"line 2 is corrupt: "):
            ResponseCache(path)
        path.write_bytes(b"%s\n%s\n" % (good, line))
        cache = ResponseCache(path)
        assert (len(cache), cache.get("ab" * 32), cache.get("cd" * 32)) == (1, "GO:0000001", None)
        # The first append cuts the skipped line, so it never ends up mid-file.
        cache.put("ef" * 32, "p", "GO:0000002")
        cache.close()
        cache = ResponseCache(path)
        assert (len(cache), cache.get("ab" * 32), cache.get("ef" * 32)) == (2, "GO:0000001", "GO:0000002")

    def test_each_append_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResponseCache(path)
        cache.put("k1", "p", "one")
        assert ResponseCache(path).get("k1") == "one"
        cache.close()
        cache.close()
        cache.put("k2", "p", "two")
        cache.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2


class TestSyntheticRespond:
    def test_recall_one_always_gold(self):
        import random

        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=1.0)
        concept = ontology.concepts[0]
        for temp in (0.0, 0.5, 1.0):
            for seed in range(10):
                got = synthetic_respond(profile, chat_prompt(concept), temp, random.Random(seed))
                assert got == concept.id

    def test_recall_zero_invented_outside_universe(self):
        import random

        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=0.0, style=HallucinationStyle.INVENTED)
        concept = ontology.concepts[0]
        for seed in range(50):
            got = synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(seed))
            assert got not in ontology.universe
            assert ID_PATTERNS[OntologyKind.GO].fullmatch(got)

    def test_near_miss_single_digit_mutation(self):
        import random

        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=0.0, style=HallucinationStyle.NEAR_MISS)
        concept = ontology.concepts[0]
        for seed in range(50):
            got = synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(seed))
            assert len(got) == len(concept.id)
            diffs = sum(1 for a, b in zip(got, concept.id) if a != b)
            assert diffs == 1

    def test_popular_id_draws_from_popularity(self):
        import random

        ontology = make_ontology(5)
        popularity = {c.id: (1000 if c.id == "GO:0000005" else 1) for c in ontology.concepts}
        profile = make_profile(ontology, recall=0.0, style=HallucinationStyle.POPULAR_ID, popularity=popularity)
        concept = ontology.concepts[0]
        draws = [synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(s)) for s in range(200)]
        assert set(draws) <= set(popularity)
        assert all(d != concept.id for d in draws)
        assert draws.count("GO:0000005") > 150

    def test_popular_id_without_a_positive_popularity_draws_from_the_curve(self):
        import random

        ontology = make_ontology(4)
        popularity = {c.id: 0 for c in ontology.concepts}
        profile = make_profile(ontology, recall=0.0, style=HallucinationStyle.POPULAR_ID, popularity=popularity)
        assert profile.popular_table == ([c.id for c in ontology.concepts], [1, 2, 3, 4])
        concept = ontology.concepts[0]
        draws = {synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(s)) for s in range(100)}
        assert draws == {c.id for c in ontology.concepts[1:]}

    def test_popular_id_whose_only_popular_id_is_the_gold_mutates_one_digit(self):
        import random

        ontology = make_ontology(3)
        concept = ontology.concepts[0]
        popularity = {c.id: int(c is concept) for c in ontology.concepts}
        profile = make_profile(ontology, recall=0.0, style=HallucinationStyle.POPULAR_ID, popularity=popularity)
        for seed in range(20):
            got = synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(seed))
            assert len(got) == len(concept.id)
            assert sum(1 for a, b in zip(got, concept.id) if a != b) == 1

    def test_invented_icd10_ids_have_the_code_shape_outside_the_universe(self, icd_ontology):
        import random
        import re

        profile = make_profile(icd_ontology, recall=0.0, style=HallucinationStyle.INVENTED)
        concept = icd_ontology.concepts[0]
        for seed in range(50):
            got = synthetic_respond(profile, chat_prompt(concept), 0.0, random.Random(seed))
            assert re.fullmatch(r"[A-Z][0-9]{2}\.[0-9]", got)
            assert got not in icd_ontology.universe

    def test_icd10_universe_of_every_inventable_code_is_refused(self, icd_ontology):
        import random
        import string

        codes = frozenset(f"{letter}{n:02d}.{d}" for letter in string.ascii_uppercase for n in range(100) for d in range(10))
        assert len(codes) == 26_000
        profile = SyntheticProfile({c.id: 0.0 for c in icd_ontology.concepts}, HallucinationStyle.INVENTED, universe=codes)
        with pytest.raises(ConfigurationError) as raised:
            synthetic_respond(profile, chat_prompt(icd_ontology.concepts[0]), 0.0, random.Random(0))
        assert str(raised.value) == "could not invent an unused ICD10 ID; universe too dense"

    def test_request_temperature_outside_zero_to_one_is_refused(self):
        ontology = make_ontology(1)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology))
        with pytest.raises(ConfigurationError) as raised:
            gateway.complete(chat_prompt(ontology.concepts[0]), temperature=1.5)
        assert str(raised.value) == "temperature must be within [0,1], got 1.5"

    def test_unknown_concept_rejected(self):
        import random

        ontology = make_ontology(2)
        profile = make_profile(ontology, recall=1.0)
        foreign = Concept("GO:0009999", "not in profile", OntologyKind.GO)
        with pytest.raises(ValueError, match="profile"):
            synthetic_respond(profile, chat_prompt(foreign), 0.0, random.Random(0))

    def test_monte_carlo_recall_frequency(self):
        # 10,000 distinct prompts at recall 0.8, temperature 0.
        ontology = make_ontology(10000)
        profile = make_profile(ontology, recall=0.8)
        gateway = ModelGateway(make_config(seed=11), profile=profile)
        gold = 0
        for concept in ontology.concepts:
            if gateway.complete(chat_prompt(concept)).raw_text == concept.id:
                gold += 1
        assert abs(gold / 10000 - 0.8) <= 0.01

    def test_temperature_lowers_effective_recall(self):
        ontology = make_ontology(2000)
        profile = make_profile(ontology, recall=0.8, temperature_sensitivity=1.0)
        gateway = ModelGateway(make_config(seed=5, temperature=0.0), profile=profile)
        cold = sum(
            1 for c in ontology.concepts if gateway.complete(chat_prompt(c), temperature=0.0).raw_text == c.id
        )
        hot = sum(
            1 for c in ontology.concepts if gateway.complete(chat_prompt(c), temperature=1.0).raw_text == c.id
        )
        # p_eff drops from 0.8 to 0.0 at temperature 1 with delta 1.
        assert cold / 2000 > 0.75
        assert hot == 0


class TestGatewayDeterminism:
    def test_temp_zero_identical_across_tags(self):
        ontology = make_ontology(50)
        profile = make_profile(ontology, recall=0.5)
        gateway = ModelGateway(make_config(seed=3), profile=profile)
        for concept in ontology.concepts[:10]:
            prompt = chat_prompt(concept)
            answers = {gateway.complete(prompt, repetition_tag=tag).raw_text for tag in range(5)}
            assert len(answers) == 1

    def test_temp_positive_varies_with_tag(self):
        ontology = make_ontology(40)
        profile = make_profile(ontology, recall=0.5, temperature_sensitivity=0.5)
        gateway = ModelGateway(make_config(seed=3, temperature=0.8), profile=profile)
        varied = 0
        for concept in ontology.concepts:
            prompt = chat_prompt(concept)
            answers = {gateway.complete(prompt, repetition_tag=tag).raw_text for tag in range(6)}
            if len(answers) > 1:
                varied += 1
        assert varied > 0

    def test_same_seed_same_transcript(self):
        ontology = make_ontology(100)
        profile = make_profile(ontology, recall=0.4)
        first = ModelGateway(make_config(seed=9), profile=profile)
        second = ModelGateway(make_config(seed=9), profile=profile)
        for concept in ontology.concepts:
            prompt = chat_prompt(concept)
            assert first.complete(prompt).raw_text == second.complete(prompt).raw_text

    def test_different_seed_differs_somewhere(self):
        ontology = make_ontology(100)
        profile = make_profile(ontology, recall=0.5)
        a = ModelGateway(make_config(seed=1), profile=profile)
        b = ModelGateway(make_config(seed=2), profile=profile)
        transcripts = [
            [g.complete(chat_prompt(c)).raw_text for c in ontology.concepts] for g in (a, b)
        ]
        assert transcripts[0] != transcripts[1]


class TestGatewayCaching:
    def test_second_call_from_cache(self, tmp_path):
        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=1.0)
        cache = ResponseCache(tmp_path / "cache.ndjson")
        gateway = ModelGateway(make_config(), profile=profile, cache=cache)
        prompt = chat_prompt(ontology.concepts[0])
        first = gateway.complete(prompt)
        second = gateway.complete(prompt)
        cache.close()
        assert not first.from_cache
        assert second.from_cache
        assert second.raw_text == first.raw_text

    def test_repetition_tags_not_collapsed(self, tmp_path):
        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=1.0)
        cache = ResponseCache(tmp_path / "cache.ndjson")
        gateway = ModelGateway(make_config(), profile=profile, cache=cache)
        prompt = chat_prompt(ontology.concepts[0])
        first = gateway.complete(prompt, repetition_tag=0)
        second = gateway.complete(prompt, repetition_tag=1)
        cache.close()
        assert not first.from_cache and not second.from_cache
        assert len(cache) == 2

    def test_cache_rows_carry_no_config_digest(self, tmp_path):
        ontology = make_ontology(3)
        cache = ResponseCache(tmp_path / "cache.ndjson")
        gateway = ModelGateway(make_config(), profile=make_profile(ontology, recall=1.0), cache=cache)
        response = gateway.complete(chat_prompt(ontology.concepts[0]))
        cache.close()
        row = json.loads((tmp_path / "cache.ndjson").read_text(encoding="utf-8"))
        assert list(row) == ["key_hash", "prompt", "raw_text", "timestamp"]
        assert row["key_hash"] == response.request_id

    @pytest.mark.parametrize("provider", [Provider.SYNTHETIC, Provider.CHAT_HTTP])
    def test_prompt_with_lone_surrogate_is_cached_and_replayed(self, tmp_path, provider):
        # A label built in code can hold one; the row's prompt field gets U+FFFD.
        ontology = make_ontology(1)
        rendered = chat_prompt(ontology.concepts[0])
        prompt = RenderedPrompt(rendered.template_key, rendered.concept_id, rendered.text + " \ud800")
        config = make_config() if provider is Provider.SYNTHETIC else ModelConfig(
            provider, "m", endpoint="https://api.example.test"
        )

        def answer_once(path, transport):
            cache = ResponseCache(path)
            try:
                gateway = ModelGateway(
                    config, profile=make_profile(ontology, recall=1.0), cache=cache, transport=transport
                )
                return gateway.complete(prompt)
            finally:
                cache.close()

        path = tmp_path / "cache.ndjson"
        first = answer_once(path, ScriptedTransport([(200, _openai_chat_body("GO:0000001"))]))
        row = json.loads(path.read_text(encoding="utf-8"))
        assert (row["key_hash"], row["prompt"]) == (first.request_id, rendered.text + " \ufffd")
        assert not first.from_cache and first.raw_text == "GO:0000001"
        second = answer_once(path, ScriptedTransport([AssertionError("a cached prompt must not be sent")]))
        assert second.from_cache and second.raw_text == first.raw_text

    def test_old_row_layout_with_config_digest_still_hits(self, tmp_path):
        ontology = make_ontology(3)
        profile = make_profile(ontology, recall=1.0)
        prompt = chat_prompt(ontology.concepts[0])
        key = ModelGateway(make_config(), profile=profile).complete(prompt).request_id
        old_row = {
            "key_hash": key,
            "config_digest": "d0b9f82d24bf15bf480aeebdfb0df21f0a41309171fc4837a8b536fc482e4987",
            "prompt": prompt.text,
            "raw_text": "GO:0000042 from the old cache",
            "timestamp": 1700000000.25,
        }
        path = tmp_path / "cache.ndjson"
        path.write_text(json.dumps(old_row, ensure_ascii=False) + "\n", encoding="utf-8")
        cache = ResponseCache(path)
        hit = ModelGateway(make_config(), profile=profile, cache=cache).complete(prompt)
        cache.close()
        assert hit.from_cache
        assert hit.raw_text == "GO:0000042 from the old cache"
        assert path.read_text(encoding="utf-8").count("\n") == 1


def _openai_chat_body(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


def _openai_completion_body(text: str) -> dict:
    return {"choices": [{"text": text}]}


class ScriptedTransport:
    """Returns scripted (status, body) outcomes, then repeats the last one."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, url, payload, headers):
        with self._lock:
            self.calls.append((url, payload, headers))
            outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpDispatch:
    def _gateway(self, provider, transport, **kwargs):
        config = ModelConfig(
            provider,
            "test-model",
            endpoint="https://api.example.test/v1",
            backoff_base=0.25,
            max_attempts=kwargs.pop("max_attempts", 3),
            max_in_flight=1,
            **kwargs,
        )
        sleeps = []
        # A jitter draw of 1 waits the whole backoff step, so the waits are exact.
        gateway = ModelGateway(config, transport=transport, sleep_fn=sleeps.append, random_fn=lambda: 1.0)
        return gateway, sleeps

    def test_chat_wire_shape(self, monkeypatch):
        monkeypatch.delenv("ONTOPROBE_API_KEY", raising=False)
        transport = ScriptedTransport([(200, _openai_chat_body("GO:0000001"))])
        gateway, _ = self._gateway(Provider.CHAT_HTTP, transport)
        concept = make_ontology(1).concepts[0]
        response = gateway.complete(chat_prompt(concept))
        assert response.raw_text == "GO:0000001"
        url, payload, headers = transport.calls[0]
        assert url == "https://api.example.test/v1/chat/completions"
        # Key order too, as it sets the request body's bytes.
        assert list(payload.items()) == [
            ("model", "test-model"),
            ("temperature", 0.0),
            ("max_tokens", 10),
            ("messages", [{"role": "user", "content": chat_prompt(concept).text}]),
        ]
        assert "Authorization" not in headers

    def test_completion_wire_shape(self):
        transport = ScriptedTransport([(200, _openai_completion_body("0000001"))])
        gateway, _ = self._gateway(Provider.COMPLETION_HTTP, transport)
        concept = make_ontology(1).concepts[0]
        prompt = render(template_for(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN), concept)
        response = gateway.complete(prompt)
        assert response.raw_text == "0000001"
        url, payload, _headers = transport.calls[0]
        assert url == "https://api.example.test/v1/completions"
        assert list(payload.items()) == [
            ("model", "test-model"), ("temperature", 0.0), ("max_tokens", 10), ("prompt", prompt.text)
        ]

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("ONTOPROBE_API_KEY", "sk-test-123")
        transport = ScriptedTransport([(200, _openai_chat_body("x"))])
        gateway, _ = self._gateway(Provider.CHAT_HTTP, transport)
        gateway.complete(chat_prompt(make_ontology(1).concepts[0]))
        assert transport.calls[0][2]["Authorization"] == "Bearer sk-test-123"

    def test_retry_backoff_then_success(self):
        from ontoprobe.gateway import TransportFailure

        transport = ScriptedTransport(
            [TransportFailure("boom"), (429, None), (200, _openai_chat_body("ok"))]
        )
        gateway, sleeps = self._gateway(Provider.CHAT_HTTP, transport, max_attempts=5)
        response = gateway.complete(chat_prompt(make_ontology(1).concepts[0]))
        assert response.raw_text == "ok"
        assert len(transport.calls) == 3
        assert sleeps == [0.25, 0.5]

    def test_exhaustion_after_max_attempts(self):
        transport = ScriptedTransport([(503, None)])
        gateway, sleeps = self._gateway(Provider.CHAT_HTTP, transport, max_attempts=4)
        with pytest.raises(TransportExhausted, match="4 attempts"):
            gateway.complete(chat_prompt(make_ontology(1).concepts[0]))
        assert len(transport.calls) == 4
        assert sleeps == [0.25, 0.5, 1.0]

    def test_backoff_waits_are_fully_jittered(self):
        # Each retry without Retry-After waits a uniform draw below its step,
        # so workers that fail together spread out instead of retrying at once.
        config = ModelConfig(
            Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", backoff_base=0.25, max_attempts=4, max_in_flight=1
        )
        sleeps = []
        gateway = ModelGateway(config, transport=ScriptedTransport([(503, None)]), sleep_fn=sleeps.append)
        for concept in make_ontology(30).concepts:
            with pytest.raises(TransportExhausted):
                gateway.complete(chat_prompt(concept))
        assert len(sleeps) == 30 * 3
        for retry in range(3):
            waits = sleeps[retry::3]
            assert all(0.0 <= wait < 0.25 * 2**retry for wait in waits)
            assert len(set(waits)) == 30

    def test_retry_after_wait_is_not_jittered(self):
        transport = ScriptedTransport([(429, None, "2"), (200, _openai_chat_body("ok"))])
        sleeps = []
        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        gateway = ModelGateway(config, transport=transport, sleep_fn=sleeps.append)
        assert gateway.complete(chat_prompt(make_ontology(1).concepts[0])).raw_text == "ok"
        assert sleeps == [2.0]

    def test_authentication_failure_fatal(self):
        transport = ScriptedTransport([(401, None)])
        gateway, _ = self._gateway(Provider.CHAT_HTTP, transport)
        with pytest.raises(ConfigurationError, match="ONTOPROBE_API_KEY"):
            gateway.complete(chat_prompt(make_ontology(1).concepts[0]))
        assert len(transport.calls) == 1

    def test_unexpected_status_fatal(self):
        transport = ScriptedTransport([(404, None)])
        gateway, _ = self._gateway(Provider.CHAT_HTTP, transport)
        with pytest.raises(ConfigurationError, match="404"):
            gateway.complete(chat_prompt(make_ontology(1).concepts[0]))

    def test_malformed_body_fatal(self):
        transport = ScriptedTransport([(200, {"unexpected": True})])
        gateway, _ = self._gateway(Provider.CHAT_HTTP, transport)
        with pytest.raises(ConfigurationError, match="shape"):
            gateway.complete(chat_prompt(make_ontology(1).concepts[0]))


class TestBatch:
    def test_results_in_input_order(self):
        ontology = make_ontology(30)
        profile = make_profile(ontology, recall=1.0)
        gateway = ModelGateway(make_config(), profile=profile)
        items = [(chat_prompt(c), 0, None) for c in ontology.concepts]
        responses = gateway.complete_batch(items)
        assert [r.raw_text for r in responses] == [c.id for c in ontology.concepts]

    def test_exhausted_item_becomes_none(self):
        from ontoprobe.gateway import TransportFailure

        ontology = make_ontology(4)

        def transport(url, payload, headers):
            content = payload["messages"][0]["content"]
            if "0000002" in content:
                raise TransportFailure("always down")
            return 200, _openai_chat_body("GO:0000001")

        config = ModelConfig(
            Provider.CHAT_HTTP,
            "m",
            endpoint="https://api.example.test",
            max_attempts=2,
            backoff_base=0.01,
            max_in_flight=2,
        )
        gateway = ModelGateway(config, transport=transport, sleep_fn=lambda s: None)
        responses = gateway.complete_batch([(chat_prompt(c), 0, None) for c in ontology.concepts])
        assert responses[1] is None
        assert all(r is not None for i, r in enumerate(responses) if i != 1)

    def test_configuration_error_aborts_batch(self):
        ontology = make_ontology(4)
        transport = ScriptedTransport([(401, None)])
        config = ModelConfig(
            Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=2
        )
        gateway = ModelGateway(config, transport=transport, sleep_fn=lambda s: None)
        with pytest.raises(ConfigurationError):
            gateway.complete_batch([(chat_prompt(c), 0, None) for c in ontology.concepts])

    def test_bounded_parallelism(self):
        ontology = make_ontology(24)
        state = {"active": 0, "max_active": 0}
        lock = threading.Lock()

        def transport(url, payload, headers):
            with lock:
                state["active"] += 1
                state["max_active"] = max(state["max_active"], state["active"])
            time.sleep(0.005)
            with lock:
                state["active"] -= 1
            return 200, _openai_chat_body("GO:0000001")

        config = ModelConfig(
            Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=3
        )
        gateway = ModelGateway(config, transport=transport, sleep_fn=lambda s: None)
        gateway.complete_batch([(chat_prompt(c), 0, None) for c in ontology.concepts])
        assert 1 <= state["max_active"] <= 3


    def test_http_batch_starts_the_pool_class_bound_on_the_module(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        assert gateway_module.ThreadPoolExecutor is ThreadPoolExecutor
        with pytest.raises(AttributeError):
            gateway_module.NoSuchName
        started = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", CountingPool)
        ontology = make_ontology(6)
        transport = ScriptedTransport([(200, _openai_chat_body("GO:0000001"))])
        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=3)
        gateway = ModelGateway(config, transport=transport, sleep_fn=lambda s: None)
        responses = gateway.complete_batch([(chat_prompt(c), 0, None) for c in ontology.concepts])
        assert started == [3]
        assert [r.raw_text for r in responses] == ["GO:0000001"] * 6

    def test_synthetic_batch_never_uses_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a SYNTHETIC batch must not start worker threads")

        monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", no_pool)
        ontology = make_ontology(30)
        profile = make_profile(ontology, recall=1.0)
        cache = ResponseCache(tmp_path / "cache.ndjson")
        config = ModelConfig(Provider.SYNTHETIC, "m", max_in_flight=4)
        gateway = ModelGateway(config, profile=profile, cache=cache)
        items = [(chat_prompt(c), 0, None) for c in ontology.concepts]
        first = gateway.complete_batch(items)
        second = gateway.complete_batch(items)
        cache.close()
        assert [r.raw_text for r in first] == [c.id for c in ontology.concepts]
        assert not any(r.from_cache for r in first)
        assert all(r.from_cache for r in second)

    def test_all_hits_make_no_provider_calls(self, tmp_path, monkeypatch):
        ontology = make_ontology(12)
        transport = ScriptedTransport([(200, _openai_chat_body("GO:0000001"))])
        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=3)
        cache = ResponseCache(tmp_path / "cache.ndjson")
        gateway = ModelGateway(config, cache=cache, transport=transport, sleep_fn=lambda s: None)
        items = [(chat_prompt(c), 0, None) for c in ontology.concepts]
        gateway.complete_batch(items)
        assert len(transport.calls) == 12

        def no_pool(*args, **kwargs):
            raise AssertionError("an all-hit batch must not start worker threads")

        monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", no_pool)
        responses = gateway.complete_batch(items)
        cache.close()
        assert len(transport.calls) == 12
        assert all(r.from_cache and r.raw_text == "GO:0000001" for r in responses)

    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_repeated_key_is_dispatched_once_and_served_as_a_hit(self, max_in_flight):
        from ontoprobe.gateway import TransportFailure

        ontology = make_ontology(3)
        prompts = [chat_prompt(c) for c in ontology.concepts]
        sent = []

        def transport(url, payload, headers):
            content = payload["messages"][0]["content"]
            sent.append(content)
            if "0000002" in content:
                raise TransportFailure("always down")
            return 200, _openai_chat_body(f"answer {len(sent)}")

        config = ModelConfig(
            Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_attempts=1, max_in_flight=max_in_flight
        )
        gateway = ModelGateway(config, transport=transport, sleep_fn=lambda s: None)
        order = [0, 1, 0, 2, 1, 0]
        responses = gateway.complete_batch([(prompts[i], 0, None) for i in order])
        assert sorted(sent) == sorted(p.text for p in prompts)
        first, repeats = responses[0], [responses[2], responses[5]]
        assert not first.from_cache
        assert repeats == [first._replace(latency=0.0, from_cache=True)] * 2
        assert responses[1] is None and responses[4] is None
        assert responses[3] is not None and not responses[3].from_cache


class TestThrottle:
    def test_sliding_window_cap(self):
        ontology = make_ontology(10)
        clock = {"now": 0.0}
        stamps = []

        def transport(url, payload, headers):
            stamps.append(clock["now"])
            return 200, _openai_chat_body("x")

        def fake_sleep(duration):
            clock["now"] += duration

        config = ModelConfig(
            Provider.CHAT_HTTP,
            "m",
            endpoint="https://api.example.test",
            requests_per_minute=4,
            max_in_flight=1,
        )
        gateway = ModelGateway(
            config,
            transport=transport,
            time_fn=lambda: clock["now"],
            sleep_fn=fake_sleep,
        )
        for concept in ontology.concepts:
            gateway.complete(chat_prompt(concept))
        assert len(stamps) == 10
        for i, start in enumerate(stamps):
            in_window = [s for s in stamps if start <= s < start + 60.0]
            assert len(in_window) <= 4

    def test_no_cap_means_no_sleeps(self):
        ontology = make_ontology(5)
        sleeps = []
        transport = ScriptedTransport([(200, _openai_chat_body("x"))])
        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        gateway = ModelGateway(config, transport=transport, sleep_fn=sleeps.append)
        for concept in ontology.concepts:
            gateway.complete(chat_prompt(concept))
        assert sleeps == []


def _report_reader(path):
    return run_report(path, Path(path).parent / "report")


@pytest.mark.parametrize(
    ("read", "what", "invalid"),
    [
        (ModelConfig.from_file, "model config", ConfigurationError),
        (SyntheticProfile.from_file, "synthetic profile", ConfigurationError),
        (_report_reader, "analysis file", ParseError),
    ],
)
def test_json_file_readers_share_messages(tmp_path, read, what, invalid):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError) as syntax:
        json.loads("{not json")
    with pytest.raises(invalid) as raised:
        read(bad)
    assert type(raised.value) is invalid
    assert str(raised.value) == f"{what} {bad} is not valid JSON: {syntax.value}"

    absent = tmp_path / "absent.json"
    with pytest.raises(OSError) as missing:
        absent.read_text(encoding="utf-8")
    with pytest.raises(ConfigurationError) as raised:
        read(absent)
    assert str(raised.value) == f"cannot read {what} {absent}: {missing.value}"


class TestSyntheticProfileIO:
    def test_round_trip(self, tmp_path):
        ontology = make_ontology(4)
        profile = make_profile(ontology, recall=0.3, style=HallucinationStyle.NEAR_MISS)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile.to_dict()), encoding="utf-8")
        from ontoprobe import SyntheticProfile

        again = SyntheticProfile.from_file(path)
        assert again.memorization_curve == profile.memorization_curve
        assert again.hallucination_style is HallucinationStyle.NEAR_MISS
        assert again.popularity == profile.popularity

    def test_gateway_loads_profile_from_config_path(self, tmp_path):
        ontology = make_ontology(2)
        profile = make_profile(ontology, recall=1.0)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(profile.to_dict()), encoding="utf-8")
        config = ModelConfig(Provider.SYNTHETIC, "m", profile_path=str(profile_path))
        gateway = ModelGateway(config)
        assert gateway.complete(chat_prompt(ontology.concepts[0])).raw_text == "GO:0000001"

    def test_synthetic_without_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="profile"):
            ModelGateway(make_config())

    def test_invalid_probability_rejected(self):
        from ontoprobe import SyntheticProfile

        with pytest.raises(ConfigurationError, match=r"\[0,1\]"):
            SyntheticProfile.from_dict(
                {"concepts": [{"id": "GO:0000001", "recall": 1.7}], "hallucination_style": "INVENTED"}
            )

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"id": "GO:0000001"}, "invalid synthetic profile: 'recall'"),
            ({"id": "GO:0000001", "recall": 0.5, "popularity": -1}, "negative popularity for GO:0000001"),
        ],
    )
    def test_bad_concept_row_rejected(self, row, message):
        from ontoprobe import SyntheticProfile

        with pytest.raises(ConfigurationError) as raised:
            SyntheticProfile.from_dict({"concepts": [row]})
        assert str(raised.value) == message

    @pytest.mark.parametrize("sensitivity", [-0.5, float("inf"), float("nan")])
    def test_sensitivity_must_be_finite_and_non_negative(self, sensitivity):
        # At temperature 0 an infinite one made p_eff NaN: recall 1.0 never answered gold.
        with pytest.raises(ConfigurationError, match=r"^temperature_sensitivity must be finite and non-negative, got"):
            SyntheticProfile({"GO:0000001": 1.0}, temperature_sensitivity=sensitivity)
