"""Model access behind a provider abstraction.

Three providers: an OpenAI-compatible chat endpoint, an OpenAI-compatible
text-completion endpoint, and a built-in synthetic memorizer used to
validate the whole pipeline offline. All providers sit behind the same
append-only response cache, keyed by (provider, model, temperature,
prompt text, repetition tag, model identity) so that deliberate repeats
bypass earlier answers, a cache shared between configs never replays
answers given by another model, and everything else is resumable.

The synthetic memorizer answers the gold ID with a per-concept recall
probability that decays linearly with temperature, and otherwise
hallucinates in a configurable style. Its randomness is a pure function
of (seed, prompt text, temperature) at temperature zero, so repeating a
prompt is deterministic, exactly like greedy decoding; above zero the
repetition tag enters the hash and answers vary between repeats.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
import re
import string
import sys
import threading
import time
from collections import deque
from enum import Enum
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple
from urllib.parse import SplitResult, unquote, urlsplit

from .errors import ConfigurationError, ParseError, TransportExhausted
from .ontology import OntologyKind, _checked_make, _json_line, _read_input
from .prompts import RenderedPrompt

API_KEY_ENV = "ONTOPROBE_API_KEY"

# json.loads joins an escaped pair, so a surrogate left in a str is unpaired.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def __getattr__(name: str):
    """`ThreadPoolExecutor` is imported on first access (PEP 562): only a
    pooled HTTP batch needs it, and concurrent.futures imports logging. It
    stays a module attribute, read when a pool starts, so it can be rebound."""
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Provider(str, Enum):
    CHAT_HTTP = "CHAT_HTTP"
    COMPLETION_HTTP = "COMPLETION_HTTP"
    SYNTHETIC = "SYNTHETIC"


class HallucinationStyle(str, Enum):
    NEAR_MISS = "NEAR_MISS"
    POPULAR_ID = "POPULAR_ID"
    INVENTED = "INVENTED"


class TransportFailure(Exception):
    """A single transport attempt failed; the gateway retries these."""


class _ModelConfigFields(NamedTuple):
    provider: Provider
    model_name: str
    temperature: float = 0.0
    max_new_tokens: int = 10
    endpoint: str | None = None
    seed: int = 0
    profile_path: str | None = None
    max_in_flight: int = 4
    requests_per_minute: float | None = None
    max_attempts: int = 5
    backoff_base: float = 0.5


# The JSON type each field after `provider` must hold, and its wording. A
# JSON boolean is no number here, though Python's bool is an int.
_CONFIG_TYPES = (
    ("model_name", (str,), "a string"),
    ("temperature", (int, float), "a number"),
    ("max_new_tokens", (int,), "an integer"),
    ("endpoint", (str, type(None)), "a string or null"),
    ("seed", (int,), "an integer"),
    ("profile_path", (str, os.PathLike, type(None)), "a string or null"),
    ("max_in_flight", (int,), "an integer"),
    ("requests_per_minute", (int, float, type(None)), "a number or null"),
    ("max_attempts", (int,), "an integer"),
    ("backoff_base", (int, float), "a number"),
)

# The fields only a request to an endpoint reads: SYNTHETIC refuses any
# value but the default, which it would silently ignore.
_HTTP_ONLY = ("max_new_tokens", "endpoint", "max_in_flight", "requests_per_minute", "max_attempts", "backoff_base")


class ModelConfig(_ModelConfigFields):
    """Which model answers and how it is paced. `provider` may be given by
    name, in any case; it is stored as a Provider."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if not isinstance(config.provider, str):
            raise ConfigurationError(f"provider must be a string, got {config.provider!r}")
        for name, types, expected in _CONFIG_TYPES:
            value = getattr(config, name)
            if type(value) is bool or not isinstance(value, types):
                raise ConfigurationError(f"{name} must be {expected}, got {value!r}")
        provider = Provider(config.provider.upper())
        if not (0.0 <= config.temperature <= 1.0):
            raise ConfigurationError(f"temperature must be within [0,1], got {config.temperature}")
        if config.max_new_tokens < 1:
            raise ConfigurationError("max_new_tokens must be at least 1")
        http = provider is not Provider.SYNTHETIC
        if http and not config.endpoint:
            raise ConfigurationError(f"{provider.value} requires an endpoint")
        for name in () if http else _HTTP_ONLY:
            if getattr(config, name) != cls._field_defaults[name]:
                raise ConfigurationError(f"{name} applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC")
        if http and config.profile_path is not None:
            raise ConfigurationError(f"profile_path applies only to SYNTHETIC, not {provider.value}")
        if config.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")
        if config.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if config.requests_per_minute is not None and not config.requests_per_minute > 0:
            raise ConfigurationError("requests_per_minute must be positive")
        if not 0.0 <= config.backoff_base < math.inf:
            raise ConfigurationError(f"backoff_base must be finite and non-negative, got {config.backoff_base}")
        return tuple.__new__(cls, (provider, *config[1:]))

    _make = classmethod(_checked_make)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        unknown = set(data).difference(cls._fields)
        if unknown:
            raise ConfigurationError(f"unknown model config fields: {sorted(unknown)}")
        if "provider" not in data or "model_name" not in data:
            raise ConfigurationError("model config requires provider and model_name")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid model config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ModelConfig":
        config = cls.from_dict(_read_json(path, "model config")[0])
        if config.profile_path is not None and not os.path.isabs(config.profile_path):
            config = config._replace(profile_path=str((Path(path).parent / config.profile_path).resolve()))
        return config


def _read_json(path: str | Path, what: str, invalid: type[Exception] = ConfigurationError) -> tuple[dict, str]:
    """The JSON object in `path` and the sha256 of its bytes, both from
    `_read_input`. Invalid JSON or another JSON value raises `invalid`; the
    messages name `what` and `path` as given."""
    text, sha256 = _read_input(path, what)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise invalid(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise invalid(f"{what} {path} is not a JSON object")
    return data, sha256


class ModelResponse(NamedTuple):
    request_id: str
    raw_text: str
    latency: float
    from_cache: bool


class _SyntheticProfileFields(NamedTuple):
    memorization_curve: dict[str, float]
    hallucination_style: HallucinationStyle = HallucinationStyle.INVENTED
    popularity: dict[str, int] | None = None  # None: no counts, stored as {}
    temperature_sensitivity: float = 0.0
    universe: frozenset[str] | None = None


class SyntheticProfile(_SyntheticProfileFields):
    """Deterministic stand-in model with a planted memorization curve.

    `hallucination_style` may be given by name, in any case. Unlike the
    other records it keeps an instance dictionary, for the tables it
    derives on first use; its fields are read-only all the same.
    """

    def __new__(cls, *args, **kwargs):
        curve, style, popularity, sensitivity, universe = super().__new__(cls, *args, **kwargs)
        if isinstance(style, str):
            style = HallucinationStyle(style.upper())
        popularity = {} if popularity is None else popularity
        for concept_id, p in curve.items():
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"recall probability for {concept_id} outside [0,1]: {p}")
        for concept_id, c in popularity.items():
            if c < 0:
                raise ConfigurationError(f"negative popularity for {concept_id}")
        # 0 * inf is NaN: an infinite sensitivity would void recall even at temperature 0.
        if not 0.0 <= sensitivity < math.inf:
            raise ConfigurationError(f"temperature_sensitivity must be finite and non-negative, got {sensitivity}")
        return tuple.__new__(cls, (curve, style, popularity, sensitivity, universe))

    _make = classmethod(_checked_make)

    @functools.cached_property
    def effective_universe(self) -> frozenset[str]:
        return self.universe if self.universe is not None else frozenset(self.memorization_curve)

    @functools.cached_property
    def popular_table(self) -> tuple[list[str], list[int]]:
        items = sorted((cid, c) for cid, c in self.popularity.items() if c > 0)
        if not items:
            items = [(cid, 1) for cid in sorted(self.memorization_curve)]
        return [cid for cid, _ in items], list(itertools.accumulate(c for _, c in items))

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticProfile":
        try:
            concepts = data["concepts"]
            curve = {row["id"]: float(row["recall"]) for row in concepts}
            popularity = {row["id"]: int(row.get("popularity", 0)) for row in concepts}
            universe = frozenset(data["universe"]) if "universe" in data else None
            return cls(
                memorization_curve=curve,
                hallucination_style=HallucinationStyle(data.get("hallucination_style", "INVENTED")),
                popularity=popularity,
                temperature_sensitivity=float(data.get("temperature_sensitivity", 0.0)),
                universe=universe,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid synthetic profile: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "SyntheticProfile":
        return cls.from_dict(_read_json(path, "synthetic profile")[0])

    def to_dict(self) -> dict:
        rows = [
            {"id": cid, "recall": self.memorization_curve[cid], "popularity": self.popularity.get(cid, 0)}
            for cid in sorted(self.memorization_curve)
        ]
        out = {
            "hallucination_style": self.hallucination_style.value,
            "temperature_sensitivity": self.temperature_sensitivity,
            "concepts": rows,
        }
        if self.universe is not None:
            out["universe"] = sorted(self.universe)
        return out


def _key_function(provider: Provider, model_name: str, identity: str):
    """The response-cache key of a request to one model, as a function of
    the request's temperature, prompt text and repetition tag. `identity`
    is the answering gateway's `ModelGateway.identity`.

    The key is the sha256 of the UTF-8 JSON list [provider, model name,
    repr(temperature), prompt text, repetition tag, identity], as
    `json.dumps(..., ensure_ascii=False)` writes it, a lone surrogate as its
    code point's three bytes. Its head and tail are encoded once here; each
    request encodes only its own three fields.
    """
    head = json.dumps([provider.value, model_name], ensure_ascii=False)[:-1] + ", "
    tail = ", " + json.dumps(identity, ensure_ascii=False) + "]"

    def key(temperature: float, prompt_text: str, repetition_tag: int) -> str:
        material = (
            f"{head}{encode_basestring(repr(float(temperature)))}, "
            f"{encode_basestring(prompt_text)}, {int(repetition_tag)}{tail}"
        )
        return hashlib.sha256(material.encode("utf-8", "surrogatepass")).hexdigest()

    return key


class ResponseCache:
    """Append-only newline-delimited JSON store of raw responses.

    A line counts once its newline is written. A torn final line (crash
    mid-append) or a corrupt one (bad JSON or bad UTF-8) is ignored on
    load and cut off before the first append; corruption anywhere else
    is an error. Appends go through one handle, flushed after every line
    and released by close().
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        self._handle = None
        self._torn_at: int | None = None
        self._loaded_size = 0
        if self.path.exists():
            data = self.path.read_bytes()
            self._loaded_size = len(data)
            end = data.rfind(b"\n") + 1
            last = data.rfind(b"\n", 0, end - 1) + 1  # where the final complete line starts
            # Split on newlines only: str.splitlines() also breaks at
            # U+2028 and U+0085, which json.dumps leaves unescaped.
            try:
                lines = data[:end].decode("utf-8").split("\n")[:-1]
            except UnicodeDecodeError as exc:
                if exc.start < last:
                    line_no = data.count(b"\n", 0, exc.start) + 1
                    raise ParseError(f"response cache {self.path}: line {line_no} is corrupt: {exc}") from exc
                # The final line is cut; the "" kept after the others is last, so none of them is skipped.
                end, lines = last, data[:last].decode("utf-8").split("\n")
            if end < len(data):
                self._torn_at = end
            for idx, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    row = _json_line(line)
                    key_hash, raw_text = row["key_hash"], row["raw_text"]
                    if type(key_hash) is not str or type(raw_text) is not str:
                        raise ValueError("key_hash and raw_text must be strings")
                    self._entries[key_hash] = raw_text
                except (KeyError, TypeError, ValueError) as exc:
                    if idx < len(lines) - 1:
                        raise ParseError(f"response cache {self.path}: line {idx + 1} is corrupt: {exc}") from exc
                    self._torn_at = last

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key_hash: str) -> str | None:
        with self._lock:
            return self._entries.get(key_hash)

    def put(self, key_hash: str, prompt_text: str, raw_text: str) -> None:
        with self._lock:
            if key_hash in self._entries:
                return
            self._entries[key_hash] = raw_text
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # Cut only if nobody appended since load; otherwise the
                # cut would drop their lines, and the loader skips ours.
                if self._torn_at is not None and os.stat(self.path).st_size == self._loaded_size:
                    os.truncate(self.path, self._torn_at)
                self._torn_at = None
                self._handle = open(self.path, "a", encoding="utf-8")
            # What json.dumps(..., ensure_ascii=False) writes for the row. UTF-8
            # cannot hold a lone surrogate of the prompt: U+FFFD stands in.
            prompt_text = _LONE_SURROGATE.sub("\ufffd", prompt_text)
            self._handle.write(
                f'{{"key_hash": {encode_basestring(key_hash)}, "prompt": {encode_basestring(prompt_text)}, '
                f'"raw_text": {encode_basestring(raw_text)}, "timestamp": {time.time()!r}}}\n'
            )
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def _mutate_one_digit(concept_id: str, rng: random.Random) -> str:
    positions = [i for i, ch in enumerate(concept_id) if ch.isdigit()]
    pos = positions[rng.randrange(len(positions))]
    old = concept_id[pos]
    new = rng.choice([d for d in string.digits if d != old])
    return concept_id[:pos] + new + concept_id[pos + 1:]


def _invent_id(kind: OntologyKind, universe: frozenset[str], rng: random.Random) -> str:
    for _ in range(64):
        if kind in (OntologyKind.GO, OntologyKind.UBERON):
            candidate = f"{kind.value}:{rng.randrange(10**7):07d}"
        elif kind is OntologyKind.ICD10:
            candidate = f"{rng.choice(string.ascii_uppercase)}{rng.randrange(100):02d}.{rng.randrange(10)}"
        else:
            candidate = f"Q{rng.randrange(1, 10**9)}"
        if candidate not in universe:
            return candidate
    raise ConfigurationError(f"could not invent an unused {kind.value} ID; universe too dense")


def synthetic_respond(profile: SyntheticProfile, prompt: RenderedPrompt, temperature: float, rng: random.Random) -> str:
    """One synthetic answer: gold with probability p_eff, otherwise a
    hallucination in the profile's style. p_eff = recall * (1 - t*delta)."""
    gold = prompt.concept_id
    recall = profile.memorization_curve.get(gold)
    if recall is None:
        raise ValueError(f"concept {gold} is not in the synthetic profile")
    p_eff = recall * (1.0 - temperature * profile.temperature_sensitivity)
    p_eff = min(max(p_eff, 0.0), 1.0)
    if rng.random() < p_eff:
        return gold

    kind = prompt.template_key[0]
    style = profile.hallucination_style
    if style is HallucinationStyle.NEAR_MISS:
        return _mutate_one_digit(gold, rng)
    if style is HallucinationStyle.POPULAR_ID:
        ids, cumulative = profile.popular_table
        for _ in range(16):
            pick = rng.choices(ids, cum_weights=cumulative, k=1)[0]
            if pick != gold:
                return pick
        return _mutate_one_digit(gold, rng)
    return _invent_id(kind, profile.effective_universe, rng)


TIMEOUT_S = 120  # per connect, send or receive on an HTTP socket


class _Connections:
    """The kept-alive HTTP connections of one gateway, for its whole run.

    An attempt takes an idle connection to its origin, or opens one, and
    gives it back once the response is read, so there is at most one idle
    connection per request that was in flight at once. A connection the
    server closed while it sat idle is replaced before use. close() closes
    the idle connections and keeps none given back later.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, str], list[tuple]] = {}
        self._closed = False
        self._tls = None

    def take(self, target: SplitResult) -> tuple:
        """(connection, request-target prefix, extra headers) for `target`."""
        import select

        with self._lock:
            idle = self._idle.get((target.scheme, target.netloc), [])
            while idle:
                route = idle.pop()
                # Readable while idle means end-of-file or bytes nobody asked
                # for: either way the connection cannot carry a request. poll,
                # unlike select, takes a descriptor numbered 1024 or more.
                if route[0].sock is not None:
                    poller = select.poll()
                    poller.register(route[0].sock, select.POLLIN)
                    if not poller.poll(0):
                        return route
                route[0].close()
            if target.scheme == "https" and self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
        return _connect(target, self._tls)

    def give(self, target: SplitResult, route: tuple) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault((target.scheme, target.netloc), []).append(route)
                return
        route[0].close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for routes in idle.values():
            for route in routes:
                route[0].close()


def _connect(target: SplitResult, tls) -> tuple:
    """A new connection to `target`, through the proxy the environment names
    for its scheme unless NO_PROXY exempts it: plain HTTP sends the absolute
    URL to the proxy, HTTPS tunnels through it with CONNECT."""
    import http.client
    import urllib.request

    secure = target.scheme == "https"
    port = target.port or (443 if secure else 80)
    proxy = urllib.request.getproxies().get(target.scheme)
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}") if proxy else None
    if via is not None and urllib.request.proxy_bypass(target.netloc):
        via = None
    host, host_port = (target.hostname, port) if via is None else (via.hostname, via.port or 80)
    if secure:
        conn = http.client.HTTPSConnection(host, host_port, timeout=TIMEOUT_S, context=tls)
    else:
        conn = http.client.HTTPConnection(host, host_port, timeout=TIMEOUT_S)
    if via is None:
        return conn, "", {}
    auth = {}
    if via.username is not None:
        import base64

        user = f"{unquote(via.username)}:{unquote(via.password or '')}".encode("utf-8")
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user).decode("ascii")
    if not secure:
        return conn, f"http://{target.netloc}", auth
    conn.set_tunnel(target.hostname, port, headers=auth)
    return conn, "", {}


def _requests_transport(connections: _Connections, url: str, payload: dict, headers: dict) -> tuple[int, dict | None, str | None]:
    """POST `payload` as JSON over a kept-alive connection from `connections`.

    Returns the status, the JSON body (None if it is not JSON) and the
    Retry-After header (None if absent). Any socket or protocol error
    discards the connection and raises TransportFailure. A `transport`
    passed to ModelGateway replaces this function with the same arguments
    minus `connections`; it may return just (status, body).
    """
    import http.client

    target = urlsplit(url)
    path = (target.path or "/") + (f"?{target.query}" if target.query else "")
    conn, prefix, extra = route = connections.take(target)
    try:
        conn.request("POST", prefix + path, json.dumps(payload).encode("utf-8"), {**headers, **extra})
        response = conn.getresponse()
        data = response.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        raise TransportFailure(str(exc) or type(exc).__name__) from exc
    except BaseException:
        conn.close()
        raise
    if response.will_close:
        conn.close()
    else:
        connections.give(target, route)
    try:
        body = json.loads(data)
    except ValueError:
        body = None
    return response.status, body, response.getheader("Retry-After")


def _delta_seconds(retry_after: str | None) -> float | None:
    """A Retry-After value in delta-seconds; None when absent or an HTTP-date."""
    if retry_after is None:
        return None
    retry_after = retry_after.strip()
    return float(retry_after) if retry_after.isascii() and retry_after.isdigit() else None


def _profile_json(profile: SyntheticProfile, indent: bool = False) -> str:
    """What `json.dumps(profile.to_dict(), sort_keys=True)` writes; with
    `indent`, what `simulate` writes to profile.json: the same with indent=2
    and a trailing newline.

    Each concept row and universe ID is built from one template. That writes
    what json.dumps does only for a str ID, a float recall (finite, being
    within [0,1]) and an int popularity; a profile holding other types is
    dumped whole. The two scalars outside the rows go through json.dumps.
    """
    curve = profile.memorization_curve
    ids = sorted(curve)
    popularity = [profile.popularity.get(cid, 0) for cid in ids]
    universe = None if profile.universe is None else sorted(profile.universe)
    newline = "\n" if indent else ""
    if not (
        set(map(type, ids)) <= {str}
        and set(map(type, curve.values())) <= {float}
        and set(map(type, popularity)) <= {int}
        and set(map(type, universe or ())) <= {str}
    ):
        return json.dumps(profile.to_dict(), indent=2 if indent else None, sort_keys=True) + newline
    # What opens a value's items at each nesting depth, and what separates them.
    opens = ["\n" + "  " * depth for depth in range(4)] if indent else [""] * 4
    seps = ["," + pad for pad in opens] if indent else [", "] * 4
    head, mid, tail = f'{{{opens[3]}"id": ', f'{seps[3]}"popularity": ', f'{seps[3]}"recall": '
    end = f"{opens[2]}}}"

    def array(items: list[str]) -> str:
        return f"[{opens[2]}{seps[2].join(items)}{opens[1]}]" if items else "[]"

    rows = array([
        f"{head}{encode_basestring_ascii(cid)}{mid}{count!r}{tail}{curve[cid]!r}{end}"
        for cid, count in zip(ids, popularity)
    ])
    fields = [
        f'"concepts": {rows}',
        f'"hallucination_style": {json.dumps(profile.hallucination_style.value)}',
        f'"temperature_sensitivity": {json.dumps(profile.temperature_sensitivity)}',
    ]
    if universe is not None:
        fields.append(f'"universe": {array(list(map(encode_basestring_ascii, universe)))}')
    return f"{{{opens[1]}{seps[1].join(fields)}{opens[0]}}}{newline}"


def _synthetic_inputs_json(seed, profile: SyntheticProfile) -> str:
    """What `json.dumps({"seed": seed, "profile": profile.to_dict()},
    sort_keys=True)` writes."""
    return f'{{"profile": {_profile_json(profile)}, "seed": {json.dumps(seed, sort_keys=True)}}}'


class ModelGateway:
    """Dispatches rendered prompts to the configured provider.

    Responses are served from the cache when the same request was made
    before by the same model (same identity), with the same repetition
    tag. HTTP errors are retried within the attempt budget, after the
    delta-seconds of a Retry-After header or else an exponential backoff
    with full jitter: the n-th retry waits `random_fn()` (uniform in [0, 1)
    by default) times backoff_base * 2**(n-1). A request that exhausts the
    budget surfaces as TransportExhausted, which batch completion records
    as a missing response rather than aborting the run.
    HTTP connections are kept alive until close().
    """

    def __init__(
        self,
        config: ModelConfig,
        profile: SyntheticProfile | None = None,
        cache: ResponseCache | None = None,
        transport=None,
        time_fn=time.monotonic,
        sleep_fn=time.sleep,
        random_fn=random.random,
    ):
        self.config = config
        self.cache = cache
        self._connections = _Connections()
        # Looked up per gateway, so a rebound module attribute (as in
        # perfbench/tracing.py) applies to gateways built after it.
        self._transport = transport or functools.partial(_requests_transport, self._connections)
        self._time_fn = time_fn
        self._sleep_fn = sleep_fn
        self._random_fn = random_fn
        self._rate_lock = threading.Lock()
        self._stamps: deque[float] = deque()
        if config.provider is Provider.SYNTHETIC:
            if profile is None:
                if config.profile_path is None:
                    raise ConfigurationError("SYNTHETIC provider requires a profile or profile_path")
                profile = SyntheticProfile.from_file(config.profile_path)
            answer_inputs = _synthetic_inputs_json(config.seed, profile)
        else:
            answer_inputs = json.dumps(
                {"endpoint": config.endpoint, "max_new_tokens": config.max_new_tokens}, sort_keys=True
            )
        self.profile = profile
        # What decides the answers besides the cache key's own provider,
        # model name, temperature, prompt and tag. Pacing and retry fields
        # are left out, so tuning them keeps the cache.
        self.identity = hashlib.sha256(answer_inputs.encode("utf-8")).hexdigest()
        self._cache_key = _key_function(config.provider, config.model_name, self.identity)

    def close(self) -> None:
        """Close the kept-alive HTTP connections; later requests keep none open."""
        self._connections.close()

    def complete(self, prompt: RenderedPrompt, repetition_tag: int = 0, temperature: float | None = None) -> ModelResponse:
        key, temp, hit = self._lookup(prompt, repetition_tag, temperature)
        return hit or self._dispatch(key, prompt, repetition_tag, temp)

    def complete_batch(self, items: list[tuple[RenderedPrompt, int, float | None]]) -> list[ModelResponse | None]:
        """Complete many requests, answering cache hits first.

        Hits and the CPU-bound synthetic model run in the calling thread;
        only HTTP misses go to a pool of at most max_in_flight workers.
        Each distinct missed key is dispatched once: a later request with
        the same key (two concepts sharing a label) gets the first one's
        answer as a cache hit, as a resumed run would. Returns responses in
        input order; an entry is None when that request exhausted its
        transport retries. Configuration errors abort the whole batch.
        """
        results: list[ModelResponse | None] = [None] * len(items)
        misses: dict[str, tuple] = {}  # missed key -> its first request, as work() takes it
        repeats = []  # (index, index of the first request with its key)
        for index, (prompt, tag, temperature) in enumerate(items):
            key, temp, results[index] = self._lookup(prompt, tag, temperature)
            if results[index] is None:
                if key in misses:
                    repeats.append((index, misses[key][0]))
                else:
                    misses[key] = (index, key, prompt, tag, temp)

        def work(index: int, key: str, prompt: RenderedPrompt, tag: int, temp: float) -> None:
            try:
                results[index] = self._dispatch(key, prompt, tag, temp)
            except TransportExhausted:
                pass

        if self.config.provider is Provider.SYNTHETIC or self.config.max_in_flight == 1 or len(misses) <= 1:
            for miss in misses.values():
                work(*miss)
        else:
            from concurrent.futures import as_completed

            with sys.modules[__name__].ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
                futures = [pool.submit(work, *miss) for miss in misses.values()]
                for future in as_completed(futures):
                    future.result()
        for index, first in repeats:
            if results[first] is not None:
                results[index] = results[first]._replace(latency=0.0, from_cache=True)
        return results

    def _lookup(
        self, prompt: RenderedPrompt, repetition_tag: int, temperature: float | None
    ) -> tuple[str, float, ModelResponse | None]:
        """The request's cache key and temperature, and its cached response if any."""
        config = self.config
        temp = config.temperature if temperature is None else float(temperature)
        if not (0.0 <= temp <= 1.0):
            raise ConfigurationError(f"temperature must be within [0,1], got {temp}")
        key = self._cache_key(temp, prompt.text, repetition_tag)
        hit = self.cache.get(key) if self.cache is not None else None
        return key, temp, None if hit is None else ModelResponse(key, hit, 0.0, True)

    def _dispatch(self, key: str, prompt: RenderedPrompt, repetition_tag: int, temperature: float) -> ModelResponse:
        """Ask the provider, then record the answer in the cache."""
        started = self._time_fn()
        if self.config.provider is Provider.SYNTHETIC:
            raw_text = self._dispatch_synthetic(prompt, temperature, repetition_tag)
        else:
            raw_text = self._dispatch_http(prompt, temperature)
        latency = self._time_fn() - started
        if self.cache is not None:
            self.cache.put(key, prompt.text, raw_text)
        return ModelResponse(key, raw_text, latency, False)

    def _dispatch_synthetic(self, prompt: RenderedPrompt, temperature: float, repetition_tag: int) -> str:
        assert self.profile is not None
        material = f"{self.config.seed}|{prompt.text}|{repr(float(temperature))}"
        if temperature > 0.0:
            material += f"|{repetition_tag}"
        digest = hashlib.sha256(material.encode("utf-8", "surrogatepass")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        return synthetic_respond(self.profile, prompt, temperature, rng)

    def _dispatch_http(self, prompt: RenderedPrompt, temperature: float) -> str:
        assert self.config.endpoint is not None
        base = self.config.endpoint.rstrip("/")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {"model": self.config.model_name, "temperature": temperature, "max_tokens": self.config.max_new_tokens}
        if self.config.provider is Provider.CHAT_HTTP:
            url = f"{base}/chat/completions"
            payload["messages"] = [{"role": "user", "content": prompt.text}]
        else:
            url = f"{base}/completions"
            payload["prompt"] = prompt.text

        last_failure = "no attempt made"
        retry_after = None
        for attempt in range(self.config.max_attempts):
            if attempt > 0:
                wait = retry_after
                if wait is None:
                    # Full jitter (M. Brooker, "Exponential Backoff and Jitter", 2015):
                    # workers that fail together do not all retry together.
                    wait = self._random_fn() * self.config.backoff_base * 2 ** (attempt - 1)
                if wait > 0:
                    self._sleep_fn(wait)
            self._throttle()
            retry_after = None
            try:
                status, body, *retry_header = self._transport(url, payload, headers)
            except TransportFailure as exc:
                last_failure = str(exc)
                continue
            if status in (401, 403):
                raise ConfigurationError(f"authentication failed ({status}); check {API_KEY_ENV}")
            if status == 429 or 500 <= status < 600:
                last_failure = f"HTTP {status}"
                retry_after = _delta_seconds(retry_header[0] if retry_header else None)
                continue
            if status != 200:
                raise ConfigurationError(f"endpoint returned HTTP {status}")
            return self._parse_body(body)
        raise TransportExhausted(
            f"request failed after {self.config.max_attempts} attempts; last failure: {last_failure}"
        )

    def _parse_body(self, body: dict | None) -> str:
        if body is None:
            raise ConfigurationError("unexpected response shape from endpoint: the body is not JSON")
        try:
            choice = body["choices"][0]
            if self.config.provider is Provider.CHAT_HTTP:
                content = choice["message"]["content"]
            else:
                content = choice["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ConfigurationError(f"unexpected response shape from endpoint: {exc!r}") from exc
        # UTF-8 cannot hold a lone surrogate ("\ud800" in the body): U+FFFD stands in.
        return _LONE_SURROGATE.sub("\ufffd", content) if isinstance(content, str) else ""

    def _throttle(self) -> None:
        cap = self.config.requests_per_minute
        if cap is None:
            return
        while True:
            with self._rate_lock:
                now = self._time_fn()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < cap:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            self._sleep_fn(max(wait, 0.01))
