"""Open- and closed-loop HTTP load for ``serve_open``, independent of the
program under test.

The open loop computes its whole seeded Poisson schedule up front and
dispatches it in due order over a few keep-alive connections. Each
request is timed from when it was *due*, not from when it was sent, so a
stall charges its delay to every request queued behind it; how late the
dispatcher itself ran (a free connection waking after the due time) is
reported separately as generator lag.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Per-request client timeout; a timed-out request counts as a failure.
TIMEOUT_S = 5.0

#: The default study the server prewarms (``ServeConfig`` defaults).
HOT_STUDY = {"study": "trees", "methods": 40, "trees": 30, "seed": 7,
             "max_nodes": 2000}
ANALYTIC_PERCENTILES = (90.0, 95.0, 99.0)

#: The five cache-hot endpoints, most popular first, and the share of
#: requests that are ``study_miss`` (a never-seen seed, so it computes
#: and writes the cache).
HOT_ENDPOINTS = ("study_hot", "whatif_analytic", "whatif_des", "metrics",
                 "healthz")
MISS_SHARE = 0.05
#: Popularity exponent: Zipf(1.2), the default of the repo's own serve
#: load generator (``serve.loadgen.LoadGenConfig.zipf_alpha``), which
#: anchors it to the paper's Fig. 7 (per-method call counts are Zipfian).
ZIPF_ALPHA = 1.2


def _zipf_mix() -> Tuple[Tuple[str, float], ...]:
    """Endpoint -> share: rank k gets ``k**-ZIPF_ALPHA`` of the hot 95%."""
    weights = [1.0 / k ** ZIPF_ALPHA
               for k in range(1, len(HOT_ENDPOINTS) + 1)]
    total = sum(weights)
    hot = tuple((name, (1.0 - MISS_SHARE) * w / total)
                for name, w in zip(HOT_ENDPOINTS, weights))
    return hot + (("study_miss", MISS_SHARE),)


#: About 46.6 / 20.3 / 12.5 / 8.8 / 6.8 % hot, plus 5 % misses.
MIX = _zipf_mix()
ENDPOINTS = tuple(name for name, _w in MIX)


@dataclass(frozen=True)
class Request:
    endpoint: str
    method: str
    target: str
    body: bytes
    due_s: float  # offset from the start of the schedule


@dataclass
class Sample:
    """One request's timeline (loop-clock seconds) and response."""

    endpoint: str
    due_s: float
    sent_s: float
    done_s: float
    lag_s: float
    status: Optional[int]  # None: timed out or connection failed
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done_s - self.due_s


def make_request(endpoint: str, rng: random.Random, due_s: float,
                 miss_seed: int) -> Request:
    if endpoint in ("study_hot", "study_miss"):
        params = dict(HOT_STUDY)
        if endpoint == "study_miss":
            params["seed"] = miss_seed
        return Request(endpoint, "POST", "/v1/study",
                       json.dumps(params, sort_keys=True).encode(), due_s)
    if endpoint == "whatif_analytic":
        pct = rng.choice(ANALYTIC_PERCENTILES)
        return Request(endpoint, "GET",
                       f"/v1/whatif?mode=analytic&percentile={pct:g}", b"",
                       due_s)
    if endpoint == "whatif_des":
        return Request(endpoint, "GET", "/v1/whatif", b"", due_s)
    if endpoint == "metrics":
        return Request(endpoint, "GET", "/metrics", b"", due_s)
    if endpoint == "healthz":
        return Request(endpoint, "GET", "/healthz", b"", due_s)
    raise ValueError(f"unknown endpoint {endpoint!r}")


def poisson_schedule(seed: int, rate_rps: float, duration_s: float,
                     first_miss_seed: int) -> List[Request]:
    """Seeded Poisson arrivals with endpoints drawn from ``MIX``.

    Miss seeds count up from ``first_miss_seed`` so no two misses in a
    run share a cache key.
    """
    rng = random.Random(seed)
    names = [name for name, _w in MIX]
    weights = [w for _n, w in MIX]
    out: List[Request] = []
    t = rng.expovariate(rate_rps)
    miss_seed = first_miss_seed
    while t < duration_s:
        endpoint = rng.choices(names, weights)[0]
        out.append(make_request(endpoint, rng, t, miss_seed))
        if endpoint == "study_miss":
            miss_seed += 1
        t += rng.expovariate(rate_rps)
    return out


def fixed_batch(seed: int, n: int, first_miss_seed: int = 0,
                hot_only: bool = True) -> List[Request]:
    """``n`` requests of the mix, all due at once (for a closed loop).

    Each endpoint gets its exact share of ``n`` (largest remainder), in
    seeded order, so the batch's cost does not swing with how many
    misses a seed happens to draw. ``hot_only`` drops ``study_miss``.
    """
    mix = [(name, w) for name, w in MIX
           if not (hot_only and name == "study_miss")]
    total = sum(w for _n, w in mix)
    quotas = {name: n * w / total for name, w in mix}
    counts = {name: int(q) for name, q in quotas.items()}
    by_remainder = sorted(quotas, key=lambda k: counts[k] - quotas[k])
    for name in by_remainder[:n - sum(counts.values())]:
        counts[name] += 1
    endpoints = [name for name, _w in mix for _ in range(counts[name])]
    rng = random.Random(seed)
    rng.shuffle(endpoints)
    out: List[Request] = []
    miss_seed = first_miss_seed
    for endpoint in endpoints:
        out.append(make_request(endpoint, rng, 0.0, miss_seed))
        if endpoint == "study_miss":
            miss_seed += 1
    return out


class _Connection:
    """One keep-alive HTTP/1.1 connection (reconnects after a failure)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def call(self, req: Request) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        head = (f"{req.method} {req.target} HTTP/1.1\r\n"
                f"host: {self.host}:{self.port}\r\n"
                f"content-length: {len(req.body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + req.body)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


async def _drive(host: str, port: int, requests: Sequence[Request],
                 n_connections: int, open_loop: bool) -> List[Sample]:
    loop = asyncio.get_running_loop()
    results: List[Optional[Sample]] = [None] * len(requests)
    cursor = {"next": 0}
    start_s = loop.time() + 0.05

    async def worker() -> None:
        conn = _Connection(host, port)
        try:
            while cursor["next"] < len(requests):
                i = cursor["next"]
                cursor["next"] += 1
                req = requests[i]
                due_s = start_s + req.due_s if open_loop else loop.time()
                lag_s = 0.0
                now_s = loop.time()
                if now_s < due_s:
                    await asyncio.sleep(due_s - now_s)
                    lag_s = loop.time() - due_s
                sent_s = loop.time()
                try:
                    status, body = await asyncio.wait_for(conn.call(req),
                                                          TIMEOUT_S)
                except (asyncio.TimeoutError, ConnectionError, OSError,
                        asyncio.IncompleteReadError, ValueError):
                    await conn.close()
                    status, body = None, b""
                results[i] = Sample(req.endpoint, due_s, sent_s,
                                     loop.time(), lag_s, status, body)
        finally:
            await conn.close()

    workers = [asyncio.ensure_future(worker())
               for _ in range(max(1, n_connections))]
    try:
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
    return [r for r in results if r is not None]


def run_open_loop(host: str, port: int, requests: Sequence[Request],
                  n_connections: int) -> List[Sample]:
    """Dispatch a schedule on time; latency counts from each due time."""
    return asyncio.run(_drive(host, port, requests, n_connections, True))


def run_closed_loop(host: str, port: int, requests: Sequence[Request],
                    n_connections: int) -> Tuple[List[Sample], float]:
    """Send back to back on each connection; ``(outcomes, wall_s)``."""
    async def main():
        loop = asyncio.get_running_loop()
        start_s = loop.time()
        out = await _drive(host, port, requests, n_connections, False)
        return out, loop.time() - start_s
    return asyncio.run(main())


def get_json(host: str, port: int, target: str) -> Dict[str, object]:
    """One GET on a fresh connection, decoded as JSON."""
    async def main():
        conn = _Connection(host, port)
        try:
            status, body = await asyncio.wait_for(
                conn.call(Request("query", "GET", target, b"", 0.0)),
                TIMEOUT_S)
        finally:
            await conn.close()
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}")
        return json.loads(body)
    return asyncio.run(main())
