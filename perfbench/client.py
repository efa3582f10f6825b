"""Closed-loop HTTP client of the service workload.

Holds one keep-alive connection.  Phase one submits distinct cold
``analyze figure6`` jobs, each polled to ``done`` before the next is sent,
until ``--cold-seconds`` have passed.  Phase two resubmits the finished
jobs 800 times, each resubmit followed by a result fetch.  Prints
one JSON summary line; standard library only, so it starts fast.

    python3 perfbench/client.py --port 8137 --seed-base 1000 --cold-seconds 10
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from typing import Any, Dict, List, Tuple

from pace import Pacer

TERMINAL = ("done", "failed", "cancelled")
JOB_TIMEOUT_S = 120.0
#: Cached submit + result round trips, in blocks whose rates give
#: ``cached_rps`` (the p98 of 800 round trips keeps 16 beyond it).
CACHED_REQUESTS = 800
CACHED_BLOCKS = 8
#: Status-poll period; small next to a ~1.7 s cold job.
POLL_S = 0.02


class Client:
    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def spec(seed: int) -> Dict[str, Any]:
    return {"kind": "analyze", "experiment": "figure6", "seed": seed}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--cold-seconds", type=float, required=True)
    args = parser.parse_args(argv)

    client = Client(args.port)
    out: Dict[str, Any] = {
        "attempted": 0, "failed": 0, "failures": [],
        "raw": {"cold_job_p50_s": [], "cached_rps": []},
        "scaled": {"cold_job_p50_s": [], "cached_rps": []},
        "submit_ms": [], "queue_wait_s": [], "execute_s": [], "polls": [],
        "cached_rtt_ms": [], "result_bytes": 0,
        "first_seed": args.seed_base, "first_text": None,
    }

    def fail(what: str) -> None:
        out["failed"] += 1
        out["failures"].append(what)

    keys: List[Tuple[int, str]] = []
    pacer = Pacer()
    start = time.perf_counter()
    seed = args.seed_base
    while (time.perf_counter() - start < args.cold_seconds
           or (not keys and out["attempted"] < 3)):
        out["attempted"] += 1
        t0 = time.perf_counter()
        status, body = client.request("POST", "/jobs", spec(seed))
        out["submit_ms"].append(1e3 * (time.perf_counter() - t0))
        reply = json.loads(body)
        if status != 202 or reply.get("disposition") != "created":
            fail(f"cold seed {seed}: submit gave {status} {reply.get('disposition')}")
            seed += 1
            continue
        key = reply["job"]["key"]
        polls = 0
        job: Dict[str, Any] = {}
        while time.perf_counter() - t0 < JOB_TIMEOUT_S:
            _, body = client.request("GET", f"/jobs/{key}")
            polls += 1
            job = json.loads(body)["job"]
            if job["status"] in TERMINAL:
                break
            time.sleep(POLL_S)
        latency = time.perf_counter() - t0
        scaled = pacer.scale(latency)
        if job.get("status") != "done":
            fail(f"cold seed {seed}: ended {job.get('status')}")
        else:
            out["raw"]["cold_job_p50_s"].append(latency)
            out["scaled"]["cold_job_p50_s"].append(scaled)
            out["polls"].append(polls)
            out["queue_wait_s"].append(job["started_at"] - job["submitted_at"])
            out["execute_s"].append(job["finished_at"] - job["started_at"])
            keys.append((seed, key))
            if out["first_text"] is None:
                _, body = client.request("GET", f"/jobs/{key}/result")
                out["first_seed"] = seed
                out["first_text"] = json.loads(body)["result"]["text"]
        seed += 1

    if not keys:
        fail("no cold job finished; cached phase skipped")
    per_block = CACHED_REQUESTS // CACHED_BLOCKS
    pacer.restart()
    block_start = time.perf_counter()
    for i in range(CACHED_REQUESTS if keys else 0):
        job_seed, key = keys[i % len(keys)]
        out["attempted"] += 1
        t0 = time.perf_counter()
        status, body = client.request("POST", "/jobs", spec(job_seed))
        disposition = json.loads(body).get("disposition")
        result_status, result_body = client.request("GET", f"/jobs/{key}/result")
        out["cached_rtt_ms"].append(1e3 * (time.perf_counter() - t0))
        out["result_bytes"] = len(result_body)
        if status != 200 or disposition != "cached" or result_status != 200:
            fail(f"cached seed {job_seed}: {status} {disposition} {result_status}")
        if (i + 1) % per_block == 0:
            elapsed = time.perf_counter() - block_start
            out["raw"]["cached_rps"].append(per_block / elapsed)
            out["scaled"]["cached_rps"].append(per_block / pacer.scale(elapsed))
            block_start = time.perf_counter()
    client.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
