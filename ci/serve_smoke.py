#!/usr/bin/env python3
"""Concurrent smoke client for the CI serve-smoke job.

Usage: serve_smoke.py ADDR_FILE DB_FILE EXPECT_HH_SEED0 EXPECT_RR_SEED7 \
                      EXPECT_STRING_SUB [PHASE] [TENANT_TOKEN]

Hammers a running `seqhide serve` instance with concurrent sanitize
requests and asserts every answered release is byte-identical to the CLI
ground-truth files — both shipping the database inline and referencing
it as an interned dataset — that the `op` wire field round-trips
(string-mode substitute parity plus the mark-only rejection), that
health and metrics stay responsive while the pool is loaded, and that a
shutdown request is acknowledged as draining.

PHASE is "initial" (default) or "restart". The initial phase loads the
database once as dataset "smoke"; the restart phase expects a fresh
server over the same --data-dir to have re-attached it from disk
(origin "reattach") without any reload. The caller owns process-level
checks (exit status, summary line, store-file presence).

TENANT_TOKEN, when given, is stamped as the `tenant` field on every
request. Against a default-mode server (no --tenants) the token is
accepted and ignored — the responses must stay byte-identical — and
against a --tenants config it must resolve, so the same script
exercises both the permissive single-tenant default and an explicit
tenant end-to-end.
"""
import json
import socket
import sys
import threading

CLIENTS = 8
PATTERN = "X2Y7 X3Y7"
PSI = 50
DATASET = "smoke"
TENANT = None  # optional token stamped on every request (argv[7])


def rpc(addr, *requests):
    """One connection, N pipelined request lines, N response objects."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=60) as sock:
        f = sock.makefile("rw", encoding="utf-8", newline="\n")
        for req in requests:
            if TENANT is not None:
                req = dict(req, tenant=TENANT)
            f.write(json.dumps(req) + "\n")
        f.flush()
        return [json.loads(f.readline()) for _ in requests]


def main():
    global TENANT
    addr_file, db_file, expect_hh, expect_rr, expect_string = sys.argv[1:6]
    phase = sys.argv[6] if len(sys.argv) > 6 else "initial"
    assert phase in ("initial", "restart"), phase
    if len(sys.argv) > 7:
        TENANT = sys.argv[7]
    with open(addr_file) as fh:
        # first line is the wire address; a second line (the Prometheus
        # scrape address) appears when --metrics-addr is set
        addr = fh.read().splitlines()[0].strip()
    with open(db_file) as fh:
        db = fh.read()
    expected = {}
    with open(expect_hh) as fh:
        expected[("hh", 0)] = fh.read()
    with open(expect_rr) as fh:
        expected[("rr", 7)] = fh.read()
    with open(expect_string) as fh:
        expected_string = fh.read()

    # Dataset registry: the initial phase interns the database once; the
    # restart phase finds it re-attached from --data-dir instead. Either
    # way, clients below reference it by name and a duplicate load is
    # refused (the registry never silently replaces).
    if phase == "initial":
        (resp,) = rpc(addr, {"type": "load", "name": DATASET, "db": db})
        assert resp.get("status") == "ok", resp
        assert resp["bytes"] == len(db.encode("utf-8")), resp
    (resp,) = rpc(addr, {"type": "datasets"})
    assert resp.get("status") == "ok", resp
    rows = {row["name"]: row for row in resp["datasets"]}
    assert DATASET in rows, resp
    want_origin = "inline" if phase == "initial" else "reattach"
    assert rows[DATASET]["origin"] == want_origin, rows[DATASET]
    (resp,) = rpc(addr, {"type": "load", "name": DATASET, "db": db})
    assert resp.get("status") == "error", resp
    assert "already loaded" in resp.get("error", ""), resp

    failures = []
    ok_count = [0]

    def client(tid):
        try:
            for (algo, seed), release in sorted(expected.items()):
                base = {
                    "type": "sanitize",
                    "patterns": [PATTERN],
                    "psi": PSI,
                    "algorithm": algo,
                    "seed": seed,
                }
                for transport, db_field in (
                    ("inline", {"db": db}),
                    ("dataset", {"dataset": DATASET}),
                ):
                    req = dict(base, **db_field)
                    req["id"] = "%d-%s-%d-%s" % (tid, algo, seed, transport)
                    (resp,) = rpc(addr, req)
                    if resp.get("status") == "overloaded":
                        # A legitimate shed under the deliberately small
                        # CI queue; parity is asserted on every answered
                        # request.
                        continue
                    assert resp.get("status") == "ok", resp
                    assert resp["release"] == release, (
                        "client %d: %s/seed %d via %s release diverged "
                        "from the CLI" % (tid, algo, seed, transport)
                    )
                    ok_count[0] += 1
        except Exception as exc:  # collected for the main thread
            failures.append("client %d: %r" % (tid, exc))

    threads = [
        threading.Thread(target=client, args=(t,)) for t in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    # Health is answered inline on the connection thread — it must come
    # back promptly even while every worker is busy.
    (health,) = rpc(addr, {"type": "health"})
    assert health["status"] == "ok" and health["workers"] >= 1, health
    for t in threads:
        t.join()
    if failures:
        sys.exit("\n".join(failures))
    assert ok_count[0] > 0, "every request was shed; nothing verified"

    # The DistortOp wire field: a string-mode substitute release matches
    # the CLI's `--mode string --op substitute` run byte for byte, and
    # an edit op on a mark-only mode is shed with a pointed error.
    (resp,) = rpc(
        addr,
        {
            "id": "string-sub",
            "type": "sanitize",
            "db": db,
            "mode": "string",
            "patterns": [PATTERN],
            "psi": PSI,
            "op": "substitute",
        },
    )
    assert resp.get("status") == "ok", resp
    assert resp["release"] == expected_string, (
        "string-mode substitute release diverged from the CLI"
    )
    (resp,) = rpc(
        addr,
        {
            "id": "op-reject",
            "type": "sanitize",
            "db": db,
            "patterns": [PATTERN],
            "psi": PSI,
            "op": "delete",
        },
    )
    assert resp.get("status") == "error", resp
    assert '"mode":"string"' in resp.get("error", ""), resp

    (metrics,) = rpc(addr, {"type": "metrics"})
    assert metrics["status"] == "ok", metrics
    snap = metrics["metrics"]
    assert "schema_version" in snap, snap
    if snap.get("obs_enabled"):
        # 4 sanitize requests per client plus the health probe above.
        assert snap["counters"]["serve_requests"] >= 2 * CLIENTS, snap

    (bye,) = rpc(addr, {"type": "shutdown"})
    assert bye["status"] == "ok" and bye["draining"] is True, bye
    print(
        "serve smoke (%s%s): %d/%d releases byte-identical to the CLI "
        "(inline and dataset '%s'); string-mode op parity, health, "
        "metrics and shutdown all OK"
        % (
            phase,
            ", tenant %r" % TENANT if TENANT else "",
            ok_count[0],
            4 * CLIENTS,
            DATASET,
        )
    )


if __name__ == "__main__":
    main()
