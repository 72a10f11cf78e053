#!/usr/bin/env python3
"""Validate machine-readable run artifacts.

Usage: check_bench_json.py <file.json> [more.json ...]

Two document shapes are recognized:
  * bench artifacts ("bench": <name>), every one written by
    bench/bench_common.hpp's finish_bench in one envelope:
        {"bench", "schema_version": 2, <body>, "gates": {name: bool},
         "pass"}
    The envelope is checked once: the bench's gate names in order, each
    gate a bool, `pass` equal to every gate passing, and every gate
    passing. Then the bench's body checks run: key types, internal
    consistency, and each gate re-derived from the evidence in the body,
    which must agree with the gate's bool. Gates that record an exact
    in-process comparison (results bit-identical to an oracle) have no
    separate evidence. The benches:
      perf_driver   — phase timings, fingerprints against their pins,
                      and the zero-overhead trace guard;
      codec_pruning — DESIGN.md §13: block-packed ratio, block-max
                      results identical to exhaustive DAAT, share of
                      postings pruned;
      ext_faults    — DESIGN.md §10: per-cell fault/breaker accounting,
                      fingerprints identical across fault rates, the
                      breaker demo trips and recovers, the cluster
                      cell's fault books balance at full coverage;
      ext_ingest    — DESIGN.md §12: per-cell churn/coherence
                      accounting, an idle live system fingerprints like
                      a frozen one, churned results match the rebuild
                      oracle mid-segment and post-merge;
      ext_traffic   — DESIGN.md §14: calibration, the offered-load sweep
                      with SLO verdicts and tail attribution,
                      conservation and determinism;
      ext_replica   — DESIGN.md §15: the replication-factor x fault x
                      load sweep with per-cell broker accounting
                      (retries + hedges <= dispatches, routing changes
                      <= 2 x failovers, coverage in [0, 1]), the
                      monotone capped backoff schedule, and the three
                      tail-tolerance gates;
  * telemetry run reports ("report": "telemetry") — DESIGN.md §9: the
    registry dump, per-stage trace quantiles, situation census, per-tier
    cache accounting, flash counters, the fault/breaker section, the
    ingest/coherence section when the live index is enabled, the
    traffic/windows/slo/attribution sections when the run was driven by
    the open-loop harness, and the replication section on cluster runs.

Exits non-zero (with a message) on any missing key, wrong type,
implausible value, or gate its evidence contradicts. Internal
consistency is checked too (per-tier hits + misses == probes, situation
counts sum to the query count, quantiles ordered), not just key
presence.
"""
import json
import sys

EXPECTED_PHASES = ["daat", "cache", "ssd"]

TRACE_STAGES = {
    "result_probe", "list_fetch_mem", "list_fetch_ssd", "list_fetch_hdd",
    "score", "write_buffer_flush", "ftl_gc", "broker_merge",
    "ingest_apply", "segment_merge", "daat_skip", "broker_retry",
}

# Tail-attribution axis: tracer stages plus the harness pseudo-stages
# (admission-queue delay and untraced service time).
ATTR_STAGES = TRACE_STAGES | {"queue_wait", "other"}

SLO_STATES = {"ok", "warn", "breach"}


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_counters(obj, ctx):
    require(isinstance(obj.get("queries"), int) and obj["queries"] > 0,
            f"{ctx}: 'queries' must be a positive integer")
    require(is_num(obj.get("wall_ms")) and obj["wall_ms"] > 0,
            f"{ctx}: 'wall_ms' must be a positive number")
    require(is_num(obj.get("qps")) and obj["qps"] > 0,
            f"{ctx}: 'qps' must be a positive number")
    # qps must be consistent with queries/wall_ms (1 % tolerance for the
    # writer's fixed-precision formatting).
    derived = 1000.0 * obj["queries"] / obj["wall_ms"]
    require(abs(derived - obj["qps"]) <= 0.01 * derived + 0.1,
            f"{ctx}: qps {obj['qps']} inconsistent with "
            f"queries/wall_ms ({derived:.1f})")


def check_quantiles(obj, ctx):
    for key in ("p50_us", "p90_us", "p99_us"):
        require(is_num(obj.get(key)) and obj[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative number")
    require(obj["p50_us"] <= obj["p90_us"] <= obj["p99_us"],
            f"{ctx}: quantiles must be ordered p50 <= p90 <= p99 "
            f"({obj['p50_us']}, {obj['p90_us']}, {obj['p99_us']})")


def check_tier(tier, ctx):
    require(isinstance(tier, dict), f"{ctx}: must be an object")
    for key in ("probes", "l1_hits", "l2_hits", "misses"):
        require(isinstance(tier.get(key), int) and tier[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    require(tier["l1_hits"] + tier["l2_hits"] + tier["misses"]
            == tier["probes"],
            f"{ctx}: l1_hits + l2_hits + misses must equal probes")
    ratio = tier.get("hit_ratio")
    require(is_num(ratio) and 0.0 <= ratio <= 1.0,
            f"{ctx}: 'hit_ratio' must be in [0, 1]")
    if tier["probes"]:
        derived = (tier["l1_hits"] + tier["l2_hits"]) / tier["probes"]
        require(abs(derived - ratio) <= 1e-6,
                f"{ctx}: hit_ratio {ratio} inconsistent with counts "
                f"({derived:.6f})")


def check_perf_driver(doc):
    phases = doc.get("phases")
    require(isinstance(phases, list), "'phases' must be a list")
    names = [p.get("name") for p in phases]
    require(names == EXPECTED_PHASES,
            f"phase names must be {EXPECTED_PHASES}, got {names}")
    for p in phases:
        ctx = f"phase '{p.get('name')}'"
        check_counters(p, ctx)
        require(isinstance(p.get("fingerprint"), int) and
                p["fingerprint"] >= 0,
                f"{ctx}: 'fingerprint' must be a non-negative integer")
        require(isinstance(p.get("pin"), int) and p["pin"] > 0,
                f"{ctx}: 'pin' must be a positive integer")
        require(isinstance(p.get("pin_enforced"), bool),
                f"{ctx}: 'pin_enforced' must be a bool")

    # Zero-overhead trace guard: the daat loop with spans compiled out
    # and idle-instrumented must fingerprint identically, and (on
    # optimized builds) the instrumented loop stays within 10 %.
    guard = doc.get("trace_guard")
    require(isinstance(guard, dict), "'trace_guard' must be an object")
    for key in ("fingerprint_off", "fingerprint_on"):
        require(isinstance(guard.get(key), int) and guard[key] >= 0,
                f"trace_guard: '{key}' must be a non-negative integer")
    require(is_num(guard.get("wall_ratio")) and guard["wall_ratio"] > 0,
            "trace_guard: 'wall_ratio' must be a positive number")
    require(isinstance(guard.get("enforced"), bool),
            "trace_guard: 'enforced' must be a bool")

    total = doc.get("total")
    require(isinstance(total, dict), "'total' must be an object")
    check_counters(total, "total")
    require(total["queries"] == sum(p["queries"] for p in phases),
            "total queries must equal the sum over phases")

    return {
        "pins": all(p["fingerprint"] == p["pin"]
                    for p in phases if p["pin_enforced"]),
        "trace_guard": (guard["fingerprint_off"] == guard["fingerprint_on"]
                        and (not guard["enforced"]
                             or guard["wall_ratio"] <= 1.10)),
    }


BREAKER_STATES = {"closed", "open", "half_open"}


def check_breaker(br, ctx):
    require(isinstance(br, dict), f"{ctx}: must be an object")
    require(br.get("state") in BREAKER_STATES,
            f"{ctx}: state must be one of {sorted(BREAKER_STATES)}")
    for key in ("trips", "closes", "reopens", "bypassed_ops"):
        require(isinstance(br.get(key), int) and br[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    # A breaker can only half-open (and hence re-close or reopen) after
    # a trip put it in the open state.
    if br["trips"] == 0:
        require(br["closes"] == 0 and br["reopens"] == 0,
                f"{ctx}: closes/reopens without any trip")


def check_faults(faults, ctx="faults"):
    require(isinstance(faults, dict), f"'{ctx}' must be an object")
    for key in ("ssd_read_errors", "hdd_read_errors"):
        require(isinstance(faults.get(key), int) and faults[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    check_breaker(faults.get("breaker"), f"{ctx}.breaker")
    for key in ("bypassed_probes", "bypassed_inserts"):
        require(isinstance(faults["breaker"].get(key), int)
                and faults["breaker"][key] >= 0,
                f"{ctx}.breaker: '{key}' must be a non-negative integer")
    if "flash" in faults:
        fl = faults["flash"]
        for key in ("read_retries", "uncorrectable_reads",
                    "program_failures", "remapped_writes",
                    "grown_bad_blocks"):
            require(isinstance(fl.get(key), int) and fl[key] >= 0,
                    f"{ctx}.flash: '{key}' must be a non-negative integer")
        # BBM invariant: every injected program failure is salvaged by
        # exactly one remap and retires exactly one block.
        require(fl["program_failures"] == fl["remapped_writes"]
                == fl["grown_bad_blocks"],
                f"{ctx}.flash: program_failures ({fl['program_failures']}) "
                f"!= remapped_writes ({fl['remapped_writes']}) or "
                f"grown_bad_blocks ({fl['grown_bad_blocks']})")
    if "hdd" in faults:
        for key in ("read_uncs", "read_retries", "write_fails",
                    "latency_spikes"):
            require(isinstance(faults["hdd"].get(key), int)
                    and faults["hdd"][key] >= 0,
                    f"{ctx}.hdd: '{key}' must be a non-negative integer")


# The ext_faults cell whose error burst must trip the breaker and let
# probe successes re-close it.
BREAKER_DEMO_CELL = "severe"


def check_ext_faults(doc):
    require(isinstance(doc.get("queries"), int) and doc["queries"] > 0,
            "'queries' must be a positive integer")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 2,
            "'cells' must be a list with at least a baseline and one "
            "faulty cell")
    by_name = {}
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        by_name[c["name"]] = c
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        require(is_num(c.get("mean_response_ms"))
                and c["mean_response_ms"] > 0,
                f"{ctx}: 'mean_response_ms' must be positive")
        for key in ("ssd_read_errors", "hdd_read_errors", "read_retries",
                    "grown_bad_blocks"):
            require(isinstance(c.get(key), int) and c[key] >= 0,
                    f"{ctx}: '{key}' must be a non-negative integer")
        check_breaker(c.get("breaker"), f"{ctx}.breaker")
    require(BREAKER_DEMO_CELL in by_name,
            f"missing breaker demo cell '{BREAKER_DEMO_CELL}'")
    demo = by_name[BREAKER_DEMO_CELL]["breaker"]

    # Cluster cell (DESIGN.md §15): a faulty HDD on one shard must be
    # observed identically by the broker and the shard-side counters,
    # stay confined to the faulty shard, and never cost coverage.
    cl = doc.get("cluster")
    require(isinstance(cl, dict), "'cluster' must be an object")
    for key in ("queries", "broker_observed_faults", "shard_side_faults",
                "faulty_shard_errors", "clean_shard_errors",
                "shards_dropped"):
        require(isinstance(cl.get(key), int) and cl[key] >= 0,
                f"cluster: '{key}' must be a non-negative integer")
    require(cl["queries"] > 0, "cluster: 'queries' must be positive")
    require(is_num(cl.get("coverage_mean"))
            and 0.0 <= cl["coverage_mean"] <= 1.0,
            "cluster: 'coverage_mean' must be in [0, 1]")

    return {
        # Faults must never change results.
        "fingerprints_identical":
            len({c["fingerprint"] for c in cells}) == 1,
        "breaker_recovers": demo["trips"] >= 1 and demo["closes"] >= 1,
        "cluster_books_balance":
            (cl["broker_observed_faults"] == cl["shard_side_faults"]
             and cl["faulty_shard_errors"] > 0
             and cl["clean_shard_errors"] == 0),
        "cluster_full_coverage":
            cl["coverage_mean"] == 1.0 and cl["shards_dropped"] == 0,
    }


STALE_KEYS = ("result_invalidations", "list_invalidations",
              "ssd_result_misses", "ssd_list_misses", "ssd_list_marks")


def check_stale(stale, ctx):
    require(isinstance(stale, dict), f"{ctx}: must be an object")
    for key in STALE_KEYS:
        require(isinstance(stale.get(key), int) and stale[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")


def check_ext_ingest(doc):
    queries = doc.get("queries")
    require(isinstance(queries, int) and queries > 0,
            "'queries' must be a positive integer")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 4,
            "'cells' must list the disabled/idle baselines plus at "
            "least two churn mixes")
    by_name = {}
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        by_name[c["name"]] = c
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        require(is_num(c.get("mean_response_ms"))
                and c["mean_response_ms"] > 0,
                f"{ctx}: 'mean_response_ms' must be positive")
        require(is_num(c.get("hit_ratio")) and 0.0 <= c["hit_ratio"] <= 1.0,
                f"{ctx}: 'hit_ratio' must be in [0, 1]")
        require(isinstance(c.get("result_probes"), int)
                and c["result_probes"] >= 0,
                f"{ctx}: 'result_probes' must be a non-negative integer")
        check_stale(c.get("stale"), f"{ctx}.stale")
        # A result entry must be probed before it can be found stale.
        require(c["stale"]["result_invalidations"] <= c["result_probes"],
                f"{ctx}: more stale result invalidations than probes")
        ing = c.get("ingest")
        require(isinstance(ing, dict), f"{ctx}.ingest: must be an object")
        for key in ("docs", "deletes", "merges", "merged_postings",
                    "segment_postings", "deleted_docs"):
            require(isinstance(ing.get(key), int) and ing[key] >= 0,
                    f"{ctx}.ingest: '{key}' must be a non-negative integer")
        require(ing["deleted_docs"] <= ing["deletes"],
                f"{ctx}.ingest: deleted_docs exceeds deletes issued")
        if ing["merges"] == 0 and ing["docs"] == 0:
            require(ing["segment_postings"] == 0,
                    f"{ctx}.ingest: segment postings without any ingest")

    for name in ("disabled", "enabled_idle"):
        require(name in by_name, f"missing baseline cell '{name}'")
        frozen = by_name[name]
        require(frozen["ingest"]["docs"] == 0
                and frozen["ingest"]["deletes"] == 0
                and frozen["stale"]["result_invalidations"] == 0,
                f"cell '{name}': baseline cell performed mutations")
    churned = [c for c in cells if c["ingest"]["docs"] > 0]
    require(churned, "no churn cell actually ingested documents")
    require(any(c["ingest"]["merges"] > 0 for c in churned),
            "no churn cell reached a segment merge")

    require(isinstance(doc.get("oracle_probes"), int)
            and doc["oracle_probes"] > 0,
            "'oracle_probes' must be a positive integer")

    # Liveness gate 1: an idle live system is bit-identical to a frozen
    # one (the zero-churn invariant). The oracle and block-max gates are
    # exact per-probe comparisons made in the bench.
    return {
        "idle_matches_disabled": (by_name["disabled"]["fingerprint"]
                                  == by_name["enabled_idle"]["fingerprint"]),
    }


MIN_PACKED_RATIO = 2.5
MIN_PRUNED_FRACTION = 0.10


def check_codec_pruning(doc):
    comp = doc.get("compression")
    require(isinstance(comp, dict), "'compression' must be an object")
    for key in ("raw_bytes", "packed_bytes", "svb_bytes", "blocks"):
        require(isinstance(comp.get(key), int) and comp[key] > 0,
                f"compression: '{key}' must be a positive integer")
    for key, denom in (("packed_ratio", "packed_bytes"),
                       ("svb_ratio", "svb_bytes")):
        require(is_num(comp.get(key)) and comp[key] > 0,
                f"compression: '{key}' must be positive")
        derived = comp["raw_bytes"] / comp[denom]
        require(abs(derived - comp[key]) <= 0.01 * derived,
                f"compression: {key} {comp[key]} inconsistent with "
                f"byte counts ({derived:.3f})")

    pr = doc.get("pruning")
    require(isinstance(pr, dict), "'pruning' must be an object")
    require(isinstance(pr.get("queries"), int) and pr["queries"] > 0,
            "pruning: 'queries' must be a positive integer")
    for key in ("oracle_qps", "pruned_qps", "oracle_wall_ms",
                "pruned_wall_ms"):
        require(is_num(pr.get(key)) and pr[key] > 0,
                f"pruning: '{key}' must be positive")
    for key in ("blocks_decoded", "blocks_skipped", "prune_jumps",
                "postings_pruned"):
        require(isinstance(pr.get(key), int) and pr[key] >= 0,
                f"pruning: '{key}' must be a non-negative integer")
    frac = pr.get("postings_pruned_fraction")
    require(is_num(frac) and 0.0 <= frac <= 1.0,
            "pruning: 'postings_pruned_fraction' must be in [0, 1]")
    # The mechanism must demonstrably fire: a pass with zero jumps
    # would validate nothing.
    require(pr["prune_jumps"] > 0, "pruning: no prune jumps recorded")

    # The block-packed index must be several-fold smaller, and the bound
    # checks leave a deterministic share of the postings unevaluated.
    # Throughput is reported, not gated: wall time on a shared machine
    # is noise. results_identical is the bench's per-query comparison
    # against the exhaustive oracle.
    return {
        "packed_ratio": comp["packed_ratio"] >= MIN_PACKED_RATIO,
        "pruned_fraction": frac >= MIN_PRUNED_FRACTION,
    }


def check_slo_entry(s, ctx):
    require(isinstance(s.get("name"), str) and s["name"],
            f"{ctx}: 'name' must be a non-empty string")
    require(s.get("state") in SLO_STATES,
            f"{ctx}: state must be one of {sorted(SLO_STATES)}")
    require(isinstance(s.get("windows"), int) and s["windows"] > 0,
            f"{ctx}: 'windows' must be a positive integer")
    require(isinstance(s.get("breach_windows"), int)
            and 0 <= s["breach_windows"] <= s["windows"],
            f"{ctx}: 'breach_windows' must be in [0, windows]")
    fb = s.get("first_breach_window")
    require(isinstance(fb, int) and -1 <= fb < s["windows"],
            f"{ctx}: 'first_breach_window' must be -1 or a window ordinal")
    require((fb == -1) == (s["breach_windows"] == 0),
            f"{ctx}: first_breach_window {fb} inconsistent with "
            f"breach_windows {s['breach_windows']}")
    for key in ("burn_slow", "max_burn_fast"):
        require(is_num(s.get(key)) and s[key] >= 0,
                f"{ctx}: '{key}' must be non-negative")


def check_slo_full(s, ctx):
    """The run report carries the full error-budget arithmetic."""
    check_slo_entry(s, ctx)
    require(is_num(s.get("quantile")) and 0.0 < s["quantile"] < 1.0,
            f"{ctx}: 'quantile' must be in (0, 1)")
    require(is_num(s.get("threshold_us")) and s["threshold_us"] >= 0,
            f"{ctx}: 'threshold_us' must be non-negative")
    require(isinstance(s.get("compliance_windows"), int)
            and s["compliance_windows"] > 0,
            f"{ctx}: 'compliance_windows' must be a positive integer")
    for key in ("good", "bad", "trailing_events", "trailing_bad"):
        require(isinstance(s.get(key), int) and s[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    require(s["trailing_bad"] <= s["trailing_events"],
            f"{ctx}: trailing_bad exceeds trailing_events")
    require(isinstance(s.get("transitions"), int) and s["transitions"] >= 0,
            f"{ctx}: 'transitions' must be a non-negative integer")
    # Error-budget arithmetic: budget = (1 - q) * trailing events, so it
    # can never exceed the trailing window's event count.
    budget = s.get("budget_events")
    require(is_num(budget) and 0 <= budget <= s["trailing_events"],
            f"{ctx}: budget_events {budget} outside "
            f"[0, trailing_events={s['trailing_events']}]")
    derived = (1.0 - s["quantile"]) * s["trailing_events"]
    require(abs(budget - derived) <= 1e-6 * max(derived, 1.0),
            f"{ctx}: budget_events {budget} inconsistent with "
            f"(1-q)*trailing_events ({derived:.6f})")


def check_latency_block(obj, ctx):
    require(isinstance(obj, dict), f"{ctx}: must be an object")
    require(is_num(obj.get("mean_us")) and obj["mean_us"] >= 0,
            f"{ctx}: 'mean_us' must be non-negative")
    check_quantiles(obj, ctx)
    require(is_num(obj.get("p999_us")) and obj["p999_us"] >= obj["p99_us"],
            f"{ctx}: quantiles must be ordered p99 <= p999")


def check_traffic_sections(doc, ctx="traffic"):
    """The run report's traffic/windows/slo/attribution sections."""
    tr = doc["traffic"]
    require(isinstance(tr, dict), f"'{ctx}' must be an object")
    for key in ("offered", "served", "shed", "outliers"):
        require(isinstance(tr.get(key), int) and tr[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    require(tr["served"] + tr["shed"] == tr["offered"],
            f"{ctx}: served ({tr['served']}) + shed ({tr['shed']}) "
            f"!= offered ({tr['offered']})")
    require(isinstance(tr.get("servers"), int) and tr["servers"] >= 1,
            f"{ctx}: 'servers' must be a positive integer")
    require(isinstance(tr.get("queue_capacity"), int)
            and tr["queue_capacity"] >= 0,
            f"{ctx}: 'queue_capacity' must be a non-negative integer")
    require(is_num(tr.get("horizon_us")) and tr["horizon_us"] >= 0,
            f"{ctx}: 'horizon_us' must be non-negative")
    for key in ("response", "queue_wait", "service"):
        check_latency_block(tr.get(key), f"{ctx}.{key}")

    win = doc.get("windows")
    require(isinstance(win, dict), "'windows' must be an object")
    require(is_num(win.get("width_us")) and win["width_us"] > 0,
            "windows: 'width_us' must be positive")
    for key in ("count", "emitted", "total_samples"):
        require(isinstance(win.get(key), int) and win[key] >= 0,
                f"windows: '{key}' must be a non-negative integer")
    require(win["emitted"] <= win["count"],
            "windows: emitted exceeds count (truncation must only shrink)")
    series = win.get("series")
    require(isinstance(series, list) and len(series) == win["emitted"],
            "windows: 'series' length must equal 'emitted'")
    prev_index = -1
    completed_sum = 0
    for i, cell in enumerate(series):
        wctx = f"windows.series[{i}]"
        require(isinstance(cell.get("index"), int)
                and cell["index"] > prev_index,
                f"{wctx}: window indices must be strictly increasing")
        prev_index = cell["index"]
        for key in ("offered", "shed", "completed"):
            require(isinstance(cell.get(key), int) and cell[key] >= 0,
                    f"{wctx}: '{key}' must be a non-negative integer")
        require(cell["shed"] <= cell["offered"],
                f"{wctx}: shed exceeds offered in this window")
        require(cell["completed"] > 0,
                f"{wctx}: an emitted window must have completions "
                "(empty windows are gaps, not cells)")
        completed_sum += cell["completed"]
        check_latency_block(cell, wctx)
    if win["emitted"] == win["count"]:
        require(completed_sum == win["total_samples"],
                f"windows: per-window completions sum to {completed_sum}, "
                f"expected total_samples {win['total_samples']}")
        require(completed_sum == tr["served"],
                f"windows: completions ({completed_sum}) != served "
                f"({tr['served']})")

    slos = doc.get("slo")
    require(isinstance(slos, list), "'slo' must be a list")
    for s in slos:
        check_slo_full(s, f"slo '{s.get('name')}'")

    attr = doc.get("attribution")
    require(isinstance(attr, dict), "'attribution' must be an object")
    samples = attr.get("samples")
    require(isinstance(samples, int) and samples >= 0,
            "attribution: 'samples' must be a non-negative integer")
    guilty = attr.get("guilty_stage")
    require(isinstance(guilty, str), "attribution: 'guilty_stage' missing")
    if samples > 0:
        require(guilty in ATTR_STAGES,
                f"attribution: unknown guilty stage {guilty!r}")
    stages = attr.get("stages")
    require(isinstance(stages, list), "attribution: 'stages' must be a list")
    for st in stages:
        sctx = f"attribution stage '{st.get('stage')}'"
        require(st.get("stage") in ATTR_STAGES,
                f"attribution: unknown stage {st.get('stage')!r}")
        require(isinstance(st.get("count"), int) and st["count"] > 0,
                f"{sctx}: 'count' must be a positive integer")
        check_latency_block(st, sctx)
    worst = attr.get("worst")
    require(isinstance(worst, list) and len(worst) <= min(samples, 8),
            "attribution: 'worst' must be a list of at most "
            "min(samples, 8) entries")
    prev_response = None
    for i, s in enumerate(worst):
        wctx = f"attribution.worst[{i}]"
        require(isinstance(s.get("query"), int) and s["query"] >= 0,
                f"{wctx}: 'query' must be a non-negative integer")
        require(isinstance(s.get("outlier"), bool),
                f"{wctx}: 'outlier' must be a bool")
        for key in ("arrival_us", "wait_us", "service_us", "response_us"):
            require(is_num(s.get(key)) and s[key] >= 0,
                    f"{wctx}: '{key}' must be non-negative")
        derived = s["wait_us"] + s["service_us"]
        require(abs(s["response_us"] - derived)
                <= 0.01 * max(derived, 1.0) + 0.1,
                f"{wctx}: response_us {s['response_us']} != wait + service "
                f"({derived:.1f})")
        if prev_response is not None:
            require(s["response_us"] <= prev_response + 1e-6,
                    f"{wctx}: worst list must be sorted by descending "
                    "response")
        prev_response = s["response_us"]
        spans = s.get("stages")
        require(isinstance(spans, dict), f"{wctx}: 'stages' must be an object")
        for name, us in spans.items():
            require(name in ATTR_STAGES,
                    f"{wctx}: unknown span stage {name!r}")
            require(is_num(us) and us > 0,
                    f"{wctx}: span '{name}' must be positive")


EXT_TRAFFIC_EXPECTS = {"met", "breach", "none"}


def check_ext_traffic(doc):
    require(isinstance(doc.get("offered_per_cell"), int)
            and doc["offered_per_cell"] > 0,
            "'offered_per_cell' must be a positive integer")
    require(isinstance(doc.get("servers"), int) and doc["servers"] >= 1,
            "'servers' must be a positive integer")
    require(isinstance(doc.get("queue_capacity"), int)
            and doc["queue_capacity"] >= 0,
            "'queue_capacity' must be a non-negative integer")
    require(is_num(doc.get("window_us")) and doc["window_us"] > 0,
            "'window_us' must be positive")

    cal = doc.get("calibration")
    require(isinstance(cal, dict), "'calibration' must be an object")
    require(isinstance(cal.get("queries"), int) and cal["queries"] > 0,
            "calibration: 'queries' must be a positive integer")
    for key in ("mean_service_us", "p99_service_us", "capacity_qps"):
        require(is_num(cal.get(key)) and cal[key] > 0,
                f"calibration: '{key}' must be positive")
    require(cal["p99_service_us"] >= cal["mean_service_us"] * 0.5,
            "calibration: p99 service implausibly below the mean")
    require(is_num(cal.get("utilization_target"))
            and 0.0 < cal["utilization_target"] <= 1.0,
            "calibration: 'utilization_target' must be in (0, 1]")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 3,
            "'cells' must sweep at least under-capacity, at-capacity "
            "and over-capacity")
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        require(is_num(c.get("multiplier")) and c["multiplier"] > 0,
                f"{ctx}: 'multiplier' must be positive")
        require(c.get("expect") in EXT_TRAFFIC_EXPECTS,
                f"{ctx}: 'expect' must be one of "
                f"{sorted(EXT_TRAFFIC_EXPECTS)}")
        for key in ("offered", "served", "shed", "outliers"):
            require(isinstance(c.get(key), int) and c[key] >= 0,
                    f"{ctx}: '{key}' must be a non-negative integer")
        require(c.get("conservation")
                == (c["served"] + c["shed"] == c["offered"]),
                f"{ctx}: 'conservation' disagrees with served + shed "
                "vs offered")
        require(isinstance(c.get("windows"), int) and c["windows"] > 0,
                f"{ctx}: 'windows' must be a positive integer")
        p50 = c.get("response_p50_us")
        p99 = c.get("response_p99_us")
        p999 = c.get("response_p999_us")
        for key, v in (("response_p50_us", p50), ("response_p99_us", p99),
                       ("response_p999_us", p999)):
            require(is_num(v) and v >= 0,
                    f"{ctx}: '{key}' must be non-negative")
        require(p50 <= p99 <= p999,
                f"{ctx}: response quantiles must be ordered "
                f"p50 <= p99 <= p999 ({p50}, {p99}, {p999})")
        require(is_num(c.get("wait_p99_us")) and c["wait_p99_us"] >= 0,
                f"{ctx}: 'wait_p99_us' must be non-negative")
        require(c.get("guilty_stage") in ATTR_STAGES,
                f"{ctx}: unknown guilty stage {c.get('guilty_stage')!r}")
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        slos = c.get("slo")
        require(isinstance(slos, list) and slos,
                f"{ctx}: 'slo' must be a non-empty list")
        for s in slos:
            check_slo_entry(s, f"{ctx}.slo '{s.get('name')}'")
    met = [c for c in cells if c["expect"] == "met"]
    breach = [c for c in cells if c["expect"] == "breach"]
    require(met and breach,
            "'cells' must expect the SLO met in one cell and breached in "
            "another")

    det = doc.get("determinism")
    require(isinstance(det, dict), "'determinism' must be an object")
    require(isinstance(det.get("cell"), str) and det["cell"],
            "determinism: 'cell' must name the repeated cell")
    for key in ("fingerprint_a", "fingerprint_b"):
        require(isinstance(det.get(key), int) and det[key] > 0,
                f"determinism: '{key}' must be a positive integer")

    return {
        # No SLO spec breaches in a cell expected to meet its SLO.
        "slo_met_at_1x": all(
            s["breach_windows"] == 0 and s["state"] != "breach"
            for c in met for s in c["slo"]),
        # Past saturation the SLO breaches, and the tail is queueing.
        "breach_at_2x": all(
            any(s["breach_windows"] > 0 for s in c["slo"]) for c in breach),
        "attributed_queue_wait_at_2x": all(
            c["guilty_stage"] == "queue_wait" for c in breach),
        "conservation": all(c["conservation"] for c in cells),
        "determinism": det["fingerprint_a"] == det["fingerprint_b"],
    }


def check_backoff_schedule(sched, ctx):
    require(isinstance(sched, list),
            f"{ctx}: must be a list of pause durations")
    for i, pause in enumerate(sched):
        require(is_num(pause) and pause >= 0,
                f"{ctx}[{i}]: must be a non-negative number")
    for i in range(1, len(sched)):
        require(sched[i] >= sched[i - 1],
                f"{ctx}: schedule must be monotone non-decreasing "
                f"({sched[i - 1]} -> {sched[i]} at index {i})")


REPLICA_COUNTERS = ("dispatches", "retries", "hedges", "hedge_wins")


def check_failovers(obj, ctx):
    """failovers counts shard requests whose first replica was not 0;
    routing_changes counts requests whose first replica differs from
    the previous request's. Each change starts a request on a
    non-primary replica or ends a run of them, so changes <= 2 x
    failovers."""
    for key in ("failovers", "routing_changes"):
        require(isinstance(obj.get(key), int) and obj[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    require(obj["routing_changes"] <= 2 * obj["failovers"],
            f"{ctx}: routing_changes ({obj['routing_changes']}) exceed "
            f"2 x failovers ({obj['failovers']})")


def check_replica_counters(obj, ctx, factor):
    for key in REPLICA_COUNTERS:
        require(isinstance(obj.get(key), int) and obj[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    check_failovers(obj, ctx)
    require(obj["retries"] + obj["hedges"] <= obj["dispatches"],
            f"{ctx}: retries ({obj['retries']}) + hedges "
            f"({obj['hedges']}) exceed dispatches ({obj['dispatches']}); "
            "every retry and hedge is itself a dispatch")
    require(obj["hedge_wins"] <= obj["hedges"],
            f"{ctx}: hedge_wins ({obj['hedge_wins']}) exceed hedges "
            f"({obj['hedges']})")
    # A failover counts one shard request whose first attempt went to a
    # replica other than 0, and that attempt is itself a dispatch.
    require(obj["failovers"] <= obj["dispatches"],
            f"{ctx}: failovers ({obj['failovers']}) exceed dispatches "
            f"({obj['dispatches']})")
    if factor == 1:
        require(obj["hedges"] == 0 and obj["failovers"] == 0
                and obj["routing_changes"] == 0,
                f"{ctx}: hedges/failovers/routing changes recorded with "
                "a single replica")
    require(is_num(obj.get("coverage_mean"))
            and 0.0 <= obj["coverage_mean"] <= 1.0,
            f"{ctx}: 'coverage_mean' must be in [0, 1]")


def check_replication_section(rep):
    ctx = "replication"
    require(isinstance(rep, dict), f"'{ctx}' must be an object")
    for key in ("groups", "replication_factor", "queries"):
        require(isinstance(rep.get(key), int) and rep[key] > 0,
                f"{ctx}: '{key}' must be a positive integer")
    require(isinstance(rep.get("policy_active"), bool),
            f"{ctx}: 'policy_active' must be a bool")
    for key in ("shards_dropped", "shards_failed", "observed_faults"):
        require(isinstance(rep.get(key), int) and rep[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative integer")
    check_replica_counters(rep, ctx, rep["replication_factor"])
    require(rep["dispatches"] >= rep["queries"],
            f"{ctx}: dispatches ({rep['dispatches']}) below queries "
            f"({rep['queries']}); every query dispatches each group at "
            "least once")
    check_backoff_schedule(rep.get("backoff_schedule_us"),
                           f"{ctx}.backoff_schedule_us")
    slots = rep.get("replicas")
    require(isinstance(slots, list)
            and len(slots) == rep["replication_factor"],
            f"{ctx}: 'replicas' must list one slot per replica "
            f"(factor {rep['replication_factor']})")
    attempts = 0
    for i, slot in enumerate(slots):
        sctx = f"{ctx}.replicas[{i}]"
        require(slot.get("slot") == i, f"{sctx}: 'slot' must be {i}")
        for key in ("attempts", "faults", "breaker_trips",
                    "breaker_reopens", "breaker_closes", "breakers_open"):
            require(isinstance(slot.get(key), int) and slot[key] >= 0,
                    f"{sctx}: '{key}' must be a non-negative integer")
        require(is_num(slot.get("ewma_us_mean"))
                and slot["ewma_us_mean"] >= 0,
                f"{sctx}: 'ewma_us_mean' must be non-negative")
        attempts += slot["attempts"]
    require(attempts == rep["dispatches"],
            f"{ctx}: per-slot attempts sum to {attempts}, expected "
            f"dispatches ({rep['dispatches']})")


def check_ext_replica(doc):
    require(isinstance(doc.get("offered_per_cell"), int)
            and doc["offered_per_cell"] > 0,
            "'offered_per_cell' must be a positive integer")
    require(isinstance(doc.get("servers"), int) and doc["servers"] > 0,
            "'servers' must be a positive integer")
    require(is_num(doc.get("window_us")) and doc["window_us"] > 0,
            "'window_us' must be positive")

    cal = doc.get("calibration")
    require(isinstance(cal, dict), "'calibration' must be an object")
    require(isinstance(cal.get("queries"), int) and cal["queries"] > 0,
            "calibration: 'queries' must be a positive integer")
    for key in ("mean_service_us", "p99_service_us",
                "median_slowest_shard_us", "capacity_qps",
                "fault_spike_us"):
        require(is_num(cal.get(key)) and cal[key] > 0,
                f"calibration: '{key}' must be positive")
    require(cal["mean_service_us"] <= cal["p99_service_us"],
            "calibration: mean service exceeds its own p99")

    check_backoff_schedule(doc.get("backoff_schedule_us"),
                           "backoff_schedule_us")
    require(len(doc["backoff_schedule_us"]) > 0,
            "backoff_schedule_us: retry policy must publish a non-empty "
            "schedule")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 6,
            "'cells' must sweep replication factor x fault x load "
            "(at least 6 cells)")
    by_name = {}
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        by_name[c["name"]] = c
        require(isinstance(c.get("replication_factor"), int)
                and c["replication_factor"] >= 1,
                f"{ctx}: 'replication_factor' must be >= 1")
        require(isinstance(c.get("faulty"), bool),
                f"{ctx}: 'faulty' must be a bool")
        require(is_num(c.get("multiplier")) and c["multiplier"] > 0,
                f"{ctx}: 'multiplier' must be positive")
        for key in ("offered", "served", "shed", "shards_failed",
                    "breach_windows"):
            require(isinstance(c.get(key), int) and c[key] >= 0,
                    f"{ctx}: '{key}' must be a non-negative integer")
        require(c.get("conservation")
                == (c["served"] + c["shed"] == c["offered"]),
                f"{ctx}: 'conservation' disagrees with served + shed "
                "vs offered")
        for key in ("response_p50_us", "response_p99_us"):
            require(is_num(c.get(key)) and c[key] >= 0,
                    f"{ctx}: '{key}' must be non-negative")
        require(c["response_p50_us"] <= c["response_p99_us"],
                f"{ctx}: p50 exceeds p99")
        check_replica_counters(c, ctx, c["replication_factor"])
        require(c.get("slo_state") in SLO_STATES,
                f"{ctx}: 'slo_state' must be one of {sorted(SLO_STATES)}")
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")

    det = doc.get("determinism")
    require(isinstance(det, dict), "'determinism' must be an object")
    require(isinstance(det.get("cell"), str) and det["cell"] in by_name,
            "determinism: 'cell' must name a swept cell")
    for key in ("fingerprint_a", "fingerprint_b"):
        require(isinstance(det.get(key), int) and det[key] > 0,
                f"determinism: '{key}' must be a positive integer")
    require(det["fingerprint_a"] == by_name[det["cell"]]["fingerprint"],
            "determinism: repeat fingerprint differs from the swept "
            "cell's fingerprint")

    # Gate evidence: (a) hedging vs no-hedge under a spiky primary,
    # (b) retries vs the deadline drop path, (c) failover vs
    # primary-only at 1x load.
    hg = doc.get("hedge")
    require(isinstance(hg, dict), "'hedge' must be an object")
    for key in ("p99_no_hedge_us", "p99_hedge_us"):
        require(is_num(hg.get(key)) and hg[key] > 0,
                f"hedge: '{key}' must be positive")
    for key in ("hedges", "hedge_wins"):
        require(isinstance(hg.get(key), int) and hg[key] >= 0,
                f"hedge: '{key}' must be a non-negative integer")
    rg = doc.get("retry")
    require(isinstance(rg, dict), "'retry' must be an object")
    require(is_num(rg.get("deadline_us")) and rg["deadline_us"] > 0,
            "retry: 'deadline_us' must be positive")
    for key in ("coverage_no_retry", "coverage_retry"):
        require(is_num(rg.get(key)) and 0.0 <= rg[key] <= 1.0,
                f"retry: '{key}' must be in [0, 1]")
    require(isinstance(rg.get("retries"), int) and rg["retries"] >= 0,
            "retry: 'retries' must be a non-negative integer")
    fg = doc.get("failover")
    require(isinstance(fg, dict), "'failover' must be an object")
    for key in ("primary_only_state", "failover_state"):
        require(fg.get(key) in SLO_STATES,
                f"failover: '{key}' must be one of {sorted(SLO_STATES)}")
    for key in ("primary_only_breach_windows", "failover_breach_windows"):
        require(isinstance(fg.get(key), int) and fg[key] >= 0,
                f"failover: '{key}' must be a non-negative integer")
    check_failovers(fg, "failover")
    require(fg["primary_only_state"] == "breach",
            "failover: the primary-only arm must end in breach")

    return {
        "hedge_cuts_p99": (hg["p99_hedge_us"] < hg["p99_no_hedge_us"]
                           and hg["hedges"] > 0 and hg["hedge_wins"] > 0),
        "retries_restore_coverage": (rg["coverage_no_retry"] < 1.0
                                     and rg["coverage_retry"] == 1.0
                                     and rg["retries"] > 0),
        "failover_keeps_slo": (fg["primary_only_breach_windows"] > 0
                               and fg["failover_breach_windows"] == 0
                               and fg["failover_state"] != "breach"
                               and fg["failovers"] > 0),
        "conservation": all(c["conservation"] for c in cells),
        "determinism": det["fingerprint_a"] == det["fingerprint_b"],
    }


def check_telemetry(doc, path):
    require(doc.get("schema_version") == 1,
            f"unsupported schema_version {doc.get('schema_version')!r}")
    require(isinstance(doc.get("run"), str) and doc["run"],
            "'run' must be a non-empty string")
    queries = doc.get("queries")
    require(isinstance(queries, int) and queries > 0,
            "'queries' must be a positive integer")
    require(isinstance(doc.get("tracing"), bool), "'tracing' must be a bool")

    sim = doc.get("simulated")
    require(isinstance(sim, dict), "'simulated' must be an object")
    require(is_num(sim.get("mean_response_us"))
            and sim["mean_response_us"] >= 0,
            "simulated: 'mean_response_us' must be non-negative")
    require(is_num(sim.get("throughput_qps")) and sim["throughput_qps"] > 0,
            "simulated: 'throughput_qps' must be positive")
    check_quantiles(sim, "simulated")

    stages = doc.get("stages")
    require(isinstance(stages, dict), "'stages' must be an object")
    if doc["tracing"]:
        require(stages, "tracing is on but 'stages' is empty")
    for name, st in stages.items():
        require(name in TRACE_STAGES, f"unknown trace stage {name!r}")
        ctx = f"stage '{name}'"
        require(isinstance(st.get("count"), int) and st["count"] > 0,
                f"{ctx}: 'count' must be a positive integer")
        require(is_num(st.get("total_us")) and st["total_us"] >= 0,
                f"{ctx}: 'total_us' must be non-negative")
        require(is_num(st.get("mean_us")) and st["mean_us"] >= 0,
                f"{ctx}: 'mean_us' must be non-negative")
        check_quantiles(st, ctx)

    situations = doc.get("situations")
    require(isinstance(situations, list) and len(situations) == 9,
            "'situations' must be a list of 9 entries (Table I S1-S9)")
    census = 0
    for i, s in enumerate(situations):
        ctx = f"situation {i + 1}"
        require(s.get("key") == f"s{i + 1}", f"{ctx}: key must be s{i + 1}")
        require(isinstance(s.get("name"), str) and s["name"],
                f"{ctx}: 'name' must be a non-empty string")
        require(isinstance(s.get("count"), int) and s["count"] >= 0,
                f"{ctx}: 'count' must be a non-negative integer")
        require(is_num(s.get("mean_us")) and s["mean_us"] >= 0,
                f"{ctx}: 'mean_us' must be non-negative")
        census += s["count"]
    require(census == queries,
            f"situation counts sum to {census}, expected {queries}")

    cache = doc.get("cache")
    require(isinstance(cache, dict), "'cache' must be an object")
    check_tier(cache.get("result"), "cache.result")
    check_tier(cache.get("list"), "cache.list")
    require(is_num(cache.get("combined_hit_ratio"))
            and 0.0 <= cache["combined_hit_ratio"] <= 1.0,
            "cache: 'combined_hit_ratio' must be in [0, 1]")
    require(is_num(cache.get("request_coverage"))
            and 0.0 <= cache["request_coverage"] <= 1.0,
            "cache: 'request_coverage' must be in [0, 1]")

    flash = doc.get("flash")
    require(isinstance(flash, dict), "'flash' must be an object")
    require(isinstance(flash.get("present"), bool),
            "flash: 'present' must be a bool")
    if flash["present"]:
        for key in ("host_reads", "host_writes", "host_trims",
                    "gc_invocations", "gc_page_copies", "page_reads",
                    "page_programs", "block_erases", "max_erase_count"):
            require(isinstance(flash.get(key), int) and flash[key] >= 0,
                    f"flash: '{key}' must be a non-negative integer")
        for key in ("gc_busy_us", "write_amplification",
                    "mean_erase_count"):
            require(is_num(flash.get(key)) and flash[key] >= 0,
                    f"flash: '{key}' must be non-negative")
        if flash["host_writes"] > 0:
            require(flash["write_amplification"] >= 1.0,
                    "flash: write_amplification below 1 with host writes "
                    "present")

    if "faults" in doc:
        check_faults(doc["faults"])

    if "ingest" in doc:
        ing = doc["ingest"]
        require(isinstance(ing, dict), "'ingest' must be an object")
        for key in ("docs", "deletes", "delete_misses", "merges",
                    "merged_terms", "merged_postings", "replayed_records",
                    "replay_torn_bytes", "segment_postings",
                    "segment_arena_bytes", "deleted_docs"):
            require(isinstance(ing.get(key), int) and ing[key] >= 0,
                    f"ingest: '{key}' must be a non-negative integer")
        for key in ("apply_us", "merge_us"):
            require(is_num(ing.get(key)) and ing[key] >= 0,
                    f"ingest: '{key}' must be non-negative")
        require(ing["deleted_docs"] <= ing["deletes"] + ing["docs"],
                "ingest: more tombstones than documents ever touched")
        if ing["merges"] == 0:
            require(ing["merged_postings"] == 0,
                    "ingest: merged postings without any merge")
        check_stale(ing.get("stale"), "ingest.stale")
        # Stale results are found by probing; the probe totals bound it.
        cache = doc.get("cache", {})
        result_probes = cache.get("result", {}).get("probes", 0)
        require(ing["stale"]["result_invalidations"] <= result_probes,
                "ingest.stale: more result invalidations than result "
                "probes")

    # Optional open-loop traffic sections (runs driven by run_traffic):
    # all four travel together.
    traffic_keys = [k for k in ("traffic", "windows", "slo", "attribution")
                    if k in doc]
    if traffic_keys:
        require(len(traffic_keys) == 4,
                f"traffic sections must travel together; found only "
                f"{traffic_keys}")
        check_traffic_sections(doc)

    # Optional replication section (cluster runs; DESIGN.md §15).
    if "replication" in doc:
        check_replication_section(doc["replication"])

    metrics = doc.get("metrics")
    require(isinstance(metrics, dict) and metrics,
            "'metrics' must be a non-empty object (registry dump)")

    print(f"check_bench_json: OK ({path}: telemetry report "
          f"'{doc['run']}', {queries} queries, {len(stages)} stages, "
          f"{len(metrics)} metrics)")


# Per bench: the body check, which returns the gates it can re-derive
# from the body's evidence, and the gate names in envelope order.
BENCHES = {
    "perf_driver": (check_perf_driver, ("pins", "trace_guard")),
    "codec_pruning": (check_codec_pruning,
                      ("packed_ratio", "results_identical",
                       "pruned_fraction")),
    "ext_faults": (check_ext_faults,
                   ("fingerprints_identical", "breaker_recovers",
                    "cluster_books_balance", "cluster_full_coverage")),
    "ext_ingest": (check_ext_ingest,
                   ("idle_matches_disabled", "oracle_pre_merge",
                    "oracle_post_merge", "pruned_pre_merge",
                    "pruned_post_merge")),
    "ext_traffic": (check_ext_traffic,
                    ("slo_met_at_1x", "breach_at_2x",
                     "attributed_queue_wait_at_2x", "conservation",
                     "determinism")),
    "ext_replica": (check_ext_replica,
                    ("hedge_cuts_p99", "retries_restore_coverage",
                     "failover_keeps_slo", "conservation", "determinism")),
}

BENCH_SCHEMA_VERSION = 2


def check_bench(doc, path):
    name = doc["bench"]
    check_body, gate_names = BENCHES[name]
    require(doc.get("schema_version") == BENCH_SCHEMA_VERSION,
            f"{name}: unsupported schema_version "
            f"{doc.get('schema_version')!r}")
    gates = doc.get("gates")
    require(isinstance(gates, dict) and list(gates) == list(gate_names),
            f"{name}: 'gates' must hold {list(gate_names)} in order")
    for gate, ok in gates.items():
        require(isinstance(ok, bool), f"{name}: gate '{gate}' must be a bool")
    require(doc.get("pass") is all(gates.values()),
            f"{name}: 'pass' disagrees with the gates")
    failed = [gate for gate, ok in gates.items() if not ok]
    require(not failed, f"{name}: gates failed: {failed}")

    for gate, evidence in check_body(doc).items():
        require(gates[gate] == evidence,
                f"{name}: gate '{gate}' is {gates[gate]} but the evidence "
                f"in the body says {evidence}")
    print(f"check_bench_json: OK ({path}: {name}, gates "
          f"{', '.join(gates)} pass)")


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")

    if doc.get("report") == "telemetry":
        check_telemetry(doc, path)
    elif doc.get("bench") in BENCHES:
        check_bench(doc, path)
    else:
        fail(f"{path}: not a bench artifact ({', '.join(BENCHES)}) or a "
             "telemetry report")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_bench_json.py <file.json> [more.json ...]")
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
