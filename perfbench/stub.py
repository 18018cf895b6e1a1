"""Loopback OpenAI-style chat endpoint that answers like the SYNTHETIC provider.

Run as its own process:

    PYTHONPATH=src python3 perfbench/stub.py --sim DIR --seed N

It binds 127.0.0.1 on a free port and prints `READY <port>` once it
serves. Each answer is what a SYNTHETIC gateway with the simulated profile
and model seed gives for the same prompt and temperature, so a CHAT_HTTP
probe against the stub must score exactly like a SYNTHETIC probe.

Every request waits a fixed service delay, so the client's in-flight pool
has something to overlap. A seeded share of first attempts per request
fails transiently (429 or 503 with Retry-After, or a dropped connection);
every later attempt succeeds, so retries run but no request fails.
`POST /reset` forgets the attempts seen, so the next run meets the same
faults again. The stub exits when its stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ontoprobe import (
    Language,
    ModelConfig,
    ModelGateway,
    PromptStyle,
    SyntheticProfile,
    load_ontology,
    render,
    template_for,
)
from workloads import STUB_DELAY_S, STUB_FAULTS


def fault_for(seed: int, text: str, temperature: float) -> str | None:
    """The seeded transient fault of a request's first attempt, if any."""
    digest = hashlib.sha256(f"{seed}|{text}|{temperature!r}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    for kind, share in STUB_FAULTS.items():
        if u < share:
            return kind
        u -= share
    return None


def build_server(sim_dir: Path, seed: int) -> ThreadingHTTPServer:
    config = ModelConfig.from_file(sim_dir / "model_config.json")
    gateway = ModelGateway(config, profile=SyntheticProfile.from_file(sim_dir / "profile.json"))
    ontology = load_ontology(sim_dir / "concepts.csv")
    prompts = {}
    for language in Language:
        template = template_for(ontology.kind, PromptStyle.CHAT, language)
        for concept in ontology.concepts:
            prompt = render(template, concept)
            prompts[prompt.text] = prompt
    attempts: dict[tuple[str, float], int] = {}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffered writes: an unbuffered wfile sends headers and body in
        # separate segments and keep-alive clients stall on delayed ACK.
        wbufsize = 1 << 16

        def do_POST(self) -> None:
            if self.path.endswith("/reset"):
                with lock:
                    attempts.clear()
                self._send(200, {}, {})
                return
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            text = body["messages"][0]["content"]
            temperature = float(body["temperature"])
            time.sleep(STUB_DELAY_S)
            with lock:
                attempt = attempts.get((text, temperature), 0)
                attempts[(text, temperature)] = attempt + 1
            fault = fault_for(seed, text, temperature) if attempt == 0 else None
            if fault == "drop":
                self.close_connection = True
                return
            if fault is not None:
                self._send(int(fault), {"error": "transient"}, {"Retry-After": "0"})
                return
            raw = gateway.complete(prompts[text], 0, temperature).raw_text
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": raw}}]}, {})

        def _send(self, status: int, payload: dict, headers: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sim", required=True, type=Path, help="simulate output directory")
    parser.add_argument("--seed", required=True, type=int, help="fault schedule seed")
    args = parser.parse_args()
    server = build_server(args.sim, args.seed)
    # Serve until stdin closes, so the stub cannot outlive the benchmark.
    threading.Thread(target=lambda: (sys.stdin.buffer.read(), server.shutdown()), daemon=True).start()
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
