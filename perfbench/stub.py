"""Loopback stand-in for the generation and embedding services.

Run as ``python3 perfbench/stub.py --seed N --marker TEXT``. It binds
127.0.0.1 on a port the OS chooses, prints that port on its first stdout
line and serves until killed:

    POST /embed     {"texts": [...]}   -> {"vectors": [...]} from corpus.Embedder
    POST /generate  {"prompt", "request_id", ...}
                    -> {"text", "token_count"} after a fixed sleep; the text
                       echoes the prompt's last "Input:" line, token-shuffled
                       for a seeded half of the request ids
    POST /reset     zero the counters and forget attempts
    GET  /stats     the counters as JSON

A seeded share of first attempts at /generate is closed with no response,
so the client's retry path runs; no request id is dropped twice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from corpus import Embedder

SERVICE_DELAY_S = 0.004
DROP_SHARE = 0.05
SHUFFLE_SHARE = 0.5


class Service:
    def __init__(self, seed: int, marker: str) -> None:
        self.seed = seed
        self.marker = marker
        self.embedder = Embedder()
        self.embed_lock = threading.Lock()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts_by_id: dict[str, int] = {}
            self.stats = {
                "attempts": 0, "dropped": 0, "connections": 0, "in_flight_max": 0,
                "response_bytes": 0, "busy_s": 0.0, "prompts": 0, "prompts_with_marker": 0,
            }
            self.in_flight = 0

    def _draw(self, tag: str, request_id: str) -> float:
        digest = hashlib.sha256(f"{self.seed}:{tag}:{request_id}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def should_drop(self, request_id: str) -> bool:
        with self.lock:
            attempt = self.attempts_by_id.get(request_id, 0) + 1
            self.attempts_by_id[request_id] = attempt
        return attempt == 1 and self._draw("drop", request_id) < DROP_SHARE

    def completion(self, prompt: str, request_id: str) -> str:
        idx = prompt.rfind("Input:")
        line = prompt[idx + len("Input:"):].split("\n", 1)[0].strip() if idx >= 0 else ""
        tokens = line.split()
        if self._draw("shuffle", request_id) < SHUFFLE_SHARE:
            random.Random(self._draw("order", request_id)).shuffle(tokens)
        return " ".join(tokens)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service: Service

    def log_message(self, format, *args):  # noqa: A002 - quiet access log
        pass

    def _reply(self, obj: dict) -> int:
        body = json.dumps(obj).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def do_GET(self):
        if self.path != "/stats":
            self.send_error(404)
            return
        with self.service.lock:
            stats = dict(self.service.stats)
        self._reply(stats)

    def do_POST(self):
        svc = self.service
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")
        if self.path == "/reset":
            svc.reset()
            self._reply({"ok": True})
            return
        if self.path not in ("/generate", "/embed"):
            self.send_error(404)
            return
        started = time.perf_counter()
        with svc.lock:
            if not getattr(self, "_counted", False):
                self._counted = True
                svc.stats["connections"] += 1
            svc.stats["attempts"] += 1
            svc.in_flight += 1
            svc.stats["in_flight_max"] = max(svc.stats["in_flight_max"], svc.in_flight)
        sent = 0
        try:
            if self.path == "/embed":
                with svc.embed_lock:
                    vectors = svc.embedder.embed(list(payload["texts"])).tolist()
                sent = self._reply({"vectors": vectors})
            elif svc.should_drop(str(payload["request_id"])):
                self.close_connection = True
                with svc.lock:
                    svc.stats["dropped"] += 1
            else:
                time.sleep(SERVICE_DELAY_S)
                prompt = payload["prompt"]
                text = svc.completion(prompt, str(payload["request_id"]))
                sent = self._reply({"text": " " + text, "token_count": len(text.split())})
                with svc.lock:
                    svc.stats["prompts"] += 1
                    svc.stats["prompts_with_marker"] += prompt.endswith(svc.marker)
        finally:
            with svc.lock:
                svc.in_flight -= 1
                svc.stats["response_bytes"] += sent
                svc.stats["busy_s"] += time.perf_counter() - started


def _exit_with_parent(parent: int) -> None:
    """End the stub if the benchmark that started it dies without stopping it."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--marker", required=True)
    args = parser.parse_args()
    Handler.service = Service(args.seed, args.marker)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdout.close()
    server.serve_forever()


if __name__ == "__main__":
    main()
