#!/usr/bin/env python3
"""Sanity checks for the CI serve-load-smoke and fairness-smoke jobs.

Usage: check_bench_serve.py BENCH_SERVE_JSON [PROM_FILE]
       check_bench_serve.py fairness CONTENDED_JSON SOLO_JSON

Default mode asserts BENCH_serve.json (written by `seqhide loadgen`)
carries the named fields with sane values: some traffic was served, the
shed rate is a fraction, the latency quantiles are ordered, and the
accounting adds up — including the per-tenant rows and Jain fairness
index a `--tenants` run records. It also gates the latency breakdown:
every template whose replies carry server `timings` reports p50/p99 per
stage plus `unaccounted_ns` (client latency minus the stages' sum), and
the check fails when a template's unaccounted p50 exceeds both 1 ms and
half of that template's client p50 — time lost outside the server's
stages, such as a reply stalled by Nagle's algorithm and delayed ACK
(~40 ms per request on Linux). With PROM_FILE (a saved `GET /metrics`
scrape body), also runs a minimal Prometheus text-format check over
every line.

Fairness mode compares a contended 1-hog run (tenant "t0" is the hog)
against a hog-free solo baseline over the same light tenants and
asserts the admission-control contract: every light tenant's p99 stays
within 3x its solo p99, the hog absorbed every shed (light tenants shed
nothing), and the Jain index over the equal-weight lights is >= 0.9.
The unaccounted gate does not apply there: the hog's sanitizes carry a
`delay_ms` that the server sleeps outside every stage.
"""
import json
import sys

HOG = "t0"  # loadgen's tenant-0 token; hog traffic lands here
P99_SLACK = 3.0
JAIN_FLOOR = 0.9
STAGES = ("queue_wait_ns", "parse_ns", "sanitize_ns", "serialize_ns", "unaccounted_ns")
UNACCOUNTED_FLOOR_NS = 1_000_000
UNACCOUNTED_SHARE = 0.5


def check_bench(path):
    with open(path) as fh:
        bench = json.load(fh)
    assert bench["bench"] == "serve", bench
    for key in (
        "clients",
        "duration_secs",
        "requests",
        "ok",
        "overloaded",
        "errors",
        "throughput_rps",
        "shed_rate",
        "drain_ms",
        "latency_ns",
        "mix",
    ):
        assert key in bench, "missing %s in %s" % (key, path)
    assert bench["requests"] > 0, "loadgen sent no requests"
    tenants = bench.get("tenants", [])
    quota_sheds = sum(t["quota_exceeded"] for t in tenants)
    assert (
        bench["requests"]
        == bench["ok"] + bench["overloaded"] + quota_sheds + bench["errors"]
    ), "request accounting does not add up: %s" % bench
    assert bench["errors"] == 0, "loadgen saw error responses: %s" % bench
    if tenants:
        check_tenants(bench, tenants)
    else:
        assert "jain_fairness" not in bench, (
            "jain_fairness without a tenants section: %s" % bench
        )
    assert 0.0 <= bench["shed_rate"] <= 1.0, bench["shed_rate"]
    assert bench["throughput_rps"] > 0, bench["throughput_rps"]
    assert bench["drain_ms"] >= 0, bench["drain_ms"]
    lat = bench["latency_ns"]
    for key in ("count", "mean", "p50", "p95", "p99", "max"):
        assert key in lat, "missing latency_ns.%s" % key
    assert lat["count"] == bench["requests"], lat
    assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"], lat
    assert lat["p50"] > 0, lat
    sent = sum(t["sent"] for t in bench["mix"])
    assert sent == bench["requests"], "mix counts disagree with total"
    print(
        "BENCH_serve.json OK: %d requests, %.1f req/s, p50 %dus p99 %dus, "
        "shed rate %.4f, drain %dms"
        % (
            bench["requests"],
            bench["throughput_rps"],
            lat["p50"] // 1000,
            lat["p99"] // 1000,
            bench["shed_rate"],
            bench["drain_ms"],
        )
    )
    return bench


def check_unaccounted(bench):
    """Client latency reconciles with the server's stages: no timed
    template loses more than UNACCOUNTED_FLOOR_NS *and* more than
    UNACCOUNTED_SHARE of its client p50 outside them."""
    timed = [row for row in bench["mix"] if row.get("timed", 0) > 0]
    assert timed, "no template carries server timings: %s" % bench["mix"]
    for row in timed:
        for key in STAGES + ("client_ns",):
            assert key in row, "missing mix[].%s: %s" % (key, row)
            assert row[key]["p50"] <= row[key]["p99"], (key, row)
        client = row["client_ns"]["p50"]
        lost = row["unaccounted_ns"]["p50"]
        assert lost <= UNACCOUNTED_FLOOR_NS or lost <= UNACCOUNTED_SHARE * client, (
            "%s: unaccounted p50 %dns of client p50 %dns is outside every "
            "server stage (a stalled socket write?): %s"
            % (row["template"], lost, client, row)
        )
    print(
        "latency reconciles: %s"
        % ", ".join(
            "%s unaccounted p50 %dus of %dus"
            % (
                row["template"],
                row["unaccounted_ns"]["p50"] // 1000,
                row["client_ns"]["p50"] // 1000,
            )
            for row in timed
        )
    )


def check_tenants(bench, tenants):
    """Per-tenant rows of a `--tenants` run: complete fields, per-row
    accounting, ordered quantiles, and totals that match the globals."""
    for row in tenants:
        for key in (
            "tenant",
            "clients",
            "requests",
            "ok",
            "overloaded",
            "quota_exceeded",
            "p50_ns",
            "p99_ns",
        ):
            assert key in row, "missing tenants[].%s: %s" % (key, row)
        assert (
            row["requests"]
            >= row["ok"] + row["overloaded"] + row["quota_exceeded"]
        ), "tenant accounting does not add up: %s" % row
        if row["requests"] > 0:
            assert row["p50_ns"] <= row["p99_ns"], row
    tokens = [t["tenant"] for t in tenants]
    assert len(tokens) == len(set(tokens)), "duplicate tenant rows: %s" % tokens
    assert sum(t["clients"] for t in tenants) == bench["clients"], tenants
    assert sum(t["requests"] for t in tenants) == bench["requests"], tenants
    assert 0.0 <= bench["jain_fairness"] <= 1.0, bench["jain_fairness"]


def check_fairness(contended_path, solo_path):
    """1-hog-vs-lights contract: lights keep their solo latency (within
    P99_SLACK), the hog absorbs every shed, Jain >= JAIN_FLOOR."""
    with open(contended_path) as fh:
        contended = json.load(fh)
    with open(solo_path) as fh:
        solo = json.load(fh)
    rows = {t["tenant"]: t for t in contended.get("tenants", [])}
    solo_rows = {t["tenant"]: t for t in solo.get("tenants", [])}
    assert rows, "%s has no tenants section" % contended_path
    assert HOG in rows, "no hog row %r in %s" % (HOG, sorted(rows))
    hog = rows[HOG]
    assert hog["requests"] > 0, "the hog sent no traffic: %s" % hog
    hog_sheds = hog["overloaded"] + hog["quota_exceeded"]
    assert hog_sheds > 0, "the hog was never shed: %s" % hog
    lights = {tok: row for tok, row in rows.items() if tok != HOG}
    assert lights, "no light tenants in %s" % contended_path
    for tok, row in sorted(lights.items()):
        assert row["requests"] > 0, "light %s sent no traffic: %s" % (tok, row)
        assert row["overloaded"] == 0 and row["quota_exceeded"] == 0, (
            "light tenant %s was shed: %s" % (tok, row)
        )
        base = solo_rows.get(tok)
        assert base and base["requests"] > 0, (
            "no solo baseline traffic for %s in %s" % (tok, solo_path)
        )
        assert row["p99_ns"] <= P99_SLACK * base["p99_ns"], (
            "light %s p99 %dns exceeds %.1fx solo p99 %dns"
            % (tok, row["p99_ns"], P99_SLACK, base["p99_ns"])
        )
    jain = contended["jain_fairness"]
    assert jain >= JAIN_FLOOR, "Jain fairness %.4f below %.1f" % (
        jain,
        JAIN_FLOOR,
    )
    print(
        "fairness OK: %d light tenant(s) within %.0fx solo p99, hog shed "
        "%d time(s) (lights 0), Jain %.4f"
        % (len(lights), P99_SLACK, hog_sheds, jain)
    )


def check_prometheus(path):
    """Minimal line-format check: comments are HELP/TYPE, samples are
    `name[{labels}] value` with a float value and a seqhide_ prefix."""
    samples = 0
    with open(path) as fh:
        for line in fh.read().splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE ")), line
                continue
            series, _, value = line.rpartition(" ")
            float(value)  # raises on malformed samples
            name = series.split("{", 1)[0]
            assert name.startswith("seqhide_"), line
            assert all(
                c.isalnum() or c in "_:" for c in name
            ), "bad metric name: %s" % line
            samples += 1
    assert samples > 0, "scrape body has no samples"
    print("Prometheus scrape OK: %d samples" % samples)


def main():
    if sys.argv[1] == "fairness":
        contended, solo = sys.argv[2], sys.argv[3]
        check_bench(contended)
        check_bench(solo)
        check_fairness(contended, solo)
        return
    check_unaccounted(check_bench(sys.argv[1]))
    if len(sys.argv) > 2:
        check_prometheus(sys.argv[2])


if __name__ == "__main__":
    main()
