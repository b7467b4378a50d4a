//! What the benchmark measures: every workload and metric with its unit,
//! direction, workloads and — for a per-layer metric — the end-to-end
//! metric it should move. `--describe` prints this as JSON; `spec.json`
//! is that output, kept in step by a test.

use std::fmt::Write as _;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub working_set: &'static str,
    pub load: &'static str,
    pub flush: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    pub workloads: &'static str,
    /// Per workload, what the value is (end-to-end) or which end-to-end
    /// metric it should move (per layer).
    pub meaning: &'static str,
}

const LOAD: &str = "closed loop, zero think time: nproc client threads, each replaying its own seeded op stream through the blocking Server calls; server ServeConfig::with_workers(nproc), every other setting default";

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "hot-read",
        why: "skewed in-memory reads (80% query, 20% connected; 85% on 6 hot routes) so admission, queueing, the answer cache and the reach-index fast path do the work",
        working_set: "6 hot routes plus ~15% uniform pairs out of 1600^2 = 2.56M: the hot set is 6 of the 65,536 answer-cache entries per epoch, the uniform tail mostly misses",
        load: LOAD,
        flush: "none (memory only)",
    },
    WorkloadSpec {
        name: "cold-mixed",
        why: "durable uniform reads with 5% updates, so the planner, phase-one kernel and final join serve reads and the writer and WAL serve writes",
        working_set: "uniform pairs over 1600^2 = 2.56M, 39x the 65,536-entry answer cache, which every publication drops",
        load: LOAD,
        flush: "WAL on SystemBuilder::durable(fresh dir), fsync on, default checkpoint thresholds (4096 records / 4 MiB); the dir's filesystem is printed by each run",
    },
    WorkloadSpec {
        name: "batch-closure",
        why: "no serve tier: a fixed 500-pair batch on the one-thread-per-site machine and full materialization, so ds_machine and ds_relation::bulk do the work",
        working_set: "500 fixed uniform pairs per query_batch; materialize produces all 2.56M closure tuples",
        load: "one caller: query_batch on a Backend::SiteThreads system for 30% of the run, then System::materialize repeatedly for the rest",
        flush: "none (memory only)",
    },
];

/// The end-to-end metrics of an untraced run, in JSON order: the ones
/// steady enough on a small shared machine to gate a change on.
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        workloads: "all",
        meaning: "median of 25 SystemBuilder::build() calls: fragmenter, precompute and reach index, plus the site deploy on batch-closure (the WAL attach happens when serving starts and is printed as serve_start_s)",
    },
    Metric {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        workloads: "all",
        meaning: "process CPU time (user + system, all threads) per op completed in the timed window: per read on hot-read, per read or update on cold-mixed, per closure tuple of System::materialize on batch-closure",
    },
];

/// Printed by every untraced run as lines, with units and sample
/// counts, outside the JSON object. Their wall-clock values swing with
/// how the host schedules the machine's virtual CPUs, so they inform
/// rather than gate.
pub const REPORTED: &[Metric] = &[
    Metric { name: "read_ops_per_s", unit: "ops/s", better: "higher", workloads: "hot-read, cold-mixed", meaning: "reads answered per second of the timed window" },
    Metric { name: "read_p50_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed", meaning: "per-read time, submit to reply" },
    Metric { name: "read_p99_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed", meaning: "as read_p50_us; unsupported with fewer than 10 samples beyond" },
    Metric { name: "uniform_read_p50_us", unit: "us", better: "lower", workloads: "hot-read", meaning: "uniform-endpoint queries only: the answer-cache miss path" },
    Metric { name: "write_ops_per_s", unit: "ops/s", better: "higher", workloads: "cold-mixed", meaning: "updates acknowledged durably per second" },
    Metric { name: "write_p50_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "update submit to durable acknowledgement" },
    Metric { name: "write_p99_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "as write_p50_us; unsupported with fewer than 10 samples beyond" },
    Metric { name: "recover_s", unit: "s", better: "lower", workloads: "cold-mixed", meaning: "System::open wall time on the directory the load left" },
    Metric { name: "batch_queries_per_s", unit: "q/s", better: "higher", workloads: "batch-closure", meaning: "pairs answered per second of query_batch" },
    Metric { name: "materialize_s", unit: "s", better: "lower", workloads: "batch-closure", meaning: "median System::materialize wall time" },
    Metric { name: "batch_cpu_us_per_pair", unit: "us", better: "lower", workloads: "batch-closure", meaning: "process CPU time per pair of query_batch" },
    Metric { name: "materialize_cpu_s", unit: "s", better: "lower", workloads: "batch-closure", meaning: "process CPU time per System::materialize call" },
    Metric { name: "serve_start_s", unit: "s", better: "lower", workloads: "hot-read, cold-mixed", meaning: "System::serve_with until the server is up: worker spawn, plus the WAL attach and its first fsync'd checkpoint on cold-mixed" },
    Metric { name: "failed_frac", unit: "ratio", better: "lower", workloads: "all", meaning: "share of attempted ops that failed, were refused or answered wrong; the JSON carries it as failed / attempted" },
    Metric { name: "peak_rss_mb", unit: "MiB", better: "lower", workloads: "all", meaning: "process high-water RSS (VmHWM); on hot-read it grows with the reads served as the answer cache fills" },
];

/// Layers whose calls the traced run wraps in spans; each gets
/// `self_s.<layer>` (self time) and `calls.<layer>` (count).
pub const SPANS: &[&str] = &[
    "fragment",
    "precompute",
    "reach.build",
    "read",
    "plan",
    "phase1.chain",
    "join",
    "connected",
    "reach.connected",
    "write",
    "wal.append",
    "maintain",
    "checkpoint",
    "recover",
    "recover.precompute",
    "recover.replay",
    "machine.query_batch",
    "materialize",
];

/// The per-layer metrics of a traced run, in JSON order (followed by
/// `self_s.*` and `calls.*` for every entry of [`SPANS`]). A metric of a
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    Metric { name: "fragment.build_s", unit: "s", better: "lower", workloads: "all", meaning: "median semantic::by_labels time -> setup_s on all workloads" },
    Metric { name: "fragment.ds_nodes", unit: "count", better: "lower", workloads: "all", meaning: "nodes in two or more fragments -> read_p50_us on cold-mixed and materialize_s and cpu_us_per_op (per closure tuple) on batch-closure" },
    Metric { name: "precompute.build_s", unit: "s", better: "lower", workloads: "all", meaning: "median build_parts time (complementary information) -> setup_s on all workloads and recover_s" },
    Metric { name: "precompute.shortcuts", unit: "count", better: "lower", workloads: "all", meaning: "shortcut tuples over all sites -> read_p50_us on cold-mixed" },
    Metric { name: "reach.build_us", unit: "us", better: "lower", workloads: "all", meaning: "median ReachIndex::build -> setup_s, and write_p50_us on cold-mixed where a stale index is rebuilt before publishing" },
    Metric { name: "reach.connected_ns", unit: "ns", better: "lower", workloads: "hot-read", meaning: "mean ReachIndex::reaches -> read_p50_us on hot-read" },
    Metric { name: "reach.fast_path_frac", unit: "ratio", better: "higher", workloads: "hot-read", meaning: "ServeStats::reach_fast_path / connected calls -> read_p50_us on hot-read" },
    Metric { name: "planner.plan_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "mean Planner::plan -> read_p50_us on cold-mixed" },
    Metric { name: "planner.chains_per_query", unit: "ratio", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "chains planned per query -> read_p50_us on cold-mixed" },
    Metric { name: "phase1.chain_p50_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "median executor::run_chain over augmented_handle graphs -> read_p50_us on cold-mixed; little effect on hot-read" },
    Metric { name: "phase1.chain_tail_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "highest of p99/p95/p90/p75 of run_chain with 10 samples beyond (printed with its rank) -> read_p99_us on cold-mixed" },
    Metric { name: "phase1.site_queries_per_query", unit: "ratio", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "site subqueries per query -> read_p50_us on cold-mixed" },
    Metric { name: "phase1.tuples_shipped_per_query", unit: "ratio", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "segment tuples per query -> read_p50_us on cold-mixed" },
    Metric { name: "phase1.max_site_share", unit: "ratio", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "sum of max_site_busy / sum of total_site_busy, the paper's speed-up bound -> batch_queries_per_s and batch_cpu_us_per_pair on batch-closure" },
    Metric { name: "join.us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed, batch-closure", meaning: "mean assemble::chain_cost -> read_p50_us on cold-mixed" },
    Metric { name: "serve.overhead_p50_us", unit: "us", better: "lower", workloads: "hot-read, cold-mixed", meaning: "served query p50 minus direct EngineSnapshot::shortest_path p50 on the same requests (negative when answer-cache hits beat direct evaluation) -> read_p50_us on hot-read" },
    Metric { name: "serve.cache_hit_frac", unit: "ratio", better: "higher", workloads: "hot-read, cold-mixed", meaning: "answer-cache hits / lookups -> read_p50_us, read_ops_per_s and cpu_us_per_op on hot-read; ~0 and unmoved on cold-mixed" },
    Metric { name: "serve.coalesced_frac", unit: "ratio", better: "higher", workloads: "hot-read, cold-mixed", meaning: "requests coalesced onto an in-flight twin -> read_p50_us, read_ops_per_s and cpu_us_per_op on hot-read; ~0 on cold-mixed" },
    Metric { name: "serve.batch_size_mean", unit: "ratio", better: "higher", workloads: "hot-read, cold-mixed", meaning: "jobs per worker micro-batch -> read_p99_us" },
    Metric { name: "serve.queue_high_water", unit: "count", better: "lower", workloads: "hot-read, cold-mixed", meaning: "deepest submission queue -> read_p99_us" },
    Metric { name: "serve.worker_busy_frac", unit: "ratio", better: "lower", workloads: "hot-read, cold-mixed", meaning: "worker busy time / (workers x elapsed) -> read_ops_per_s" },
    Metric { name: "serve.writer_busy_frac", unit: "ratio", better: "lower", workloads: "cold-mixed", meaning: "writer busy time / elapsed -> write_p50_us, write_ops_per_s and read_p99_us on cold-mixed" },
    Metric { name: "serve.updates_per_publication", unit: "ratio", better: "higher", workloads: "cold-mixed", meaning: "updates folded per publication -> write_ops_per_s and write_p50_us on cold-mixed" },
    Metric { name: "maintain.p50_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "median EngineSnapshot::maintain -> write_p50_us and recover_s on cold-mixed" },
    Metric { name: "maintain.tail_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "highest of p99/p95/p90/p75 of maintain with 10 samples beyond (printed with its rank) -> write_p99_us" },
    Metric { name: "maintain.full_recompute_frac", unit: "ratio", better: "lower", workloads: "cold-mixed", meaning: "updates that fell back to a full recompute (0 by construction) -> write_p99_us" },
    Metric { name: "wal.append_p50_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "median DurableStore::append_batch (one record, fsync on) -> write_p50_us on cold-mixed" },
    Metric { name: "wal.append_tail_us", unit: "us", better: "lower", workloads: "cold-mixed", meaning: "highest of p99/p95/p90/p75 of append_batch with 10 samples beyond -> write_p99_us" },
    Metric { name: "wal.records_per_commit", unit: "ratio", better: "higher", workloads: "cold-mixed", meaning: "ServeStats wal_records / wal_commits (group commit) -> write_ops_per_s" },
    Metric { name: "wal.bytes_per_update", unit: "B", better: "lower", workloads: "cold-mixed", meaning: "WAL bytes appended per record -> recover_s" },
    Metric { name: "checkpoint.s", unit: "s", better: "lower", workloads: "cold-mixed", meaning: "DurableStore::checkpoint of the replay's end state -> write_p99_us" },
    Metric { name: "checkpoint.count", unit: "count", better: "lower", workloads: "cold-mixed", meaning: "threshold checkpoints the serving writer took (ServeStats) -> write_p99_us" },
    Metric { name: "recover.precompute_s", unit: "s", better: "lower", workloads: "cold-mixed", meaning: "EngineSnapshot::build on the checkpoint's inputs, the first part of recover_s" },
    Metric { name: "recover.replay_s", unit: "s", better: "lower", workloads: "cold-mixed", meaning: "read_suffix then maintain per record, the second part of recover_s" },
    Metric { name: "recover.records", unit: "count", better: "lower", workloads: "cold-mixed", meaning: "WAL records replayed -> recover_s" },
    Metric { name: "machine.query_us", unit: "us", better: "lower", workloads: "batch-closure", meaning: "median query_batch call / pairs -> batch_queries_per_s and batch_cpu_us_per_pair" },
    Metric { name: "machine.messages_per_query", unit: "ratio", better: "lower", workloads: "batch-closure", meaning: "messages sent and received per query -> batch_queries_per_s and batch_cpu_us_per_pair" },
    Metric { name: "machine.tuples_shipped_per_query", unit: "ratio", better: "lower", workloads: "batch-closure", meaning: "tuples shipped to the coordinator per query -> batch_queries_per_s and batch_cpu_us_per_pair" },
    Metric { name: "machine.balance_ratio", unit: "ratio", better: "lower", workloads: "batch-closure", meaning: "max over mean site busy time -> batch_queries_per_s and batch_cpu_us_per_pair" },
    Metric { name: "bulk.rounds", unit: "count", better: "lower", workloads: "batch-closure", meaning: "exchange rounds to the fixpoint -> materialize_s and cpu_us_per_op (per closure tuple)" },
    Metric { name: "bulk.exchanged_tuples", unit: "count", better: "lower", workloads: "batch-closure", meaning: "tuple copies shipped between fragments -> materialize_s and cpu_us_per_op (per closure tuple)" },
    Metric { name: "bulk.kept_local_frac", unit: "ratio", better: "higher", workloads: "batch-closure", meaning: "kept_local / (kept_local + exchanged_tuples) -> materialize_s and cpu_us_per_op (per closure tuple)" },
    Metric { name: "bulk.balance_ratio", unit: "ratio", better: "lower", workloads: "batch-closure", meaning: "max over mean fragment-worker busy time -> materialize_s and cpu_us_per_op (per closure tuple)" },
    Metric { name: "bulk.busy_s", unit: "s", better: "lower", workloads: "batch-closure", meaning: "summed fragment-worker busy time -> materialize_s and cpu_us_per_op (per closure tuple)" },
    Metric { name: "trace.coverage", unit: "ratio", better: "higher", workloads: "all", meaning: "share of replayed op time (read, connected, write spans) covered by layer self times; reported, not gated" },
    Metric { name: "trace.overhead_frac", unit: "ratio", better: "lower", workloads: "all", meaning: "traced replay time / the same ops replayed untraced, minus 1" },
];

/// Every per-layer JSON name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    out.extend(SPANS.iter().map(|s| (format!("self_s.{s}"), "s")));
    out.extend(SPANS.iter().map(|s| (format!("calls.{s}"), "count")));
    out
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(out: &mut String, key: &str, metrics: &[Metric], last: bool) {
    let _ = writeln!(out, "  {}: [", quote(key));
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"workloads\": {}, \"meaning\": {}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            quote(m.workloads),
            quote(m.meaning),
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
}

/// The whole specification as JSON.
pub fn describe() -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}, \"working_set\": {}, \"load\": {}, \"flush\": {}}}{}",
            quote(w.name),
            quote(w.why),
            quote(w.working_set),
            quote(w.load),
            quote(w.flush),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    metrics_json(&mut out, "end_to_end", END_TO_END, false);
    metrics_json(&mut out, "reported", REPORTED, false);
    metrics_json(&mut out, "per_layer", PER_LAYER, false);
    let spans: Vec<String> = SPANS.iter().map(|s| quote(s)).collect();
    let _ = writeln!(out, "  \"spans\": [{}]", spans.join(", "));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_is_the_describe_output() {
        assert_eq!(
            include_str!("../spec.json"),
            describe(),
            "regenerate with --describe"
        );
    }

    #[test]
    fn benchmark_json_lists_the_spec_metrics() {
        let bench = include_str!("../../BENCHMARK.json");
        for m in END_TO_END {
            assert!(
                bench.contains(&format!("\"name\": \"{}\"", m.name)),
                "{}",
                m.name
            );
        }
        for (name, _) in per_layer_names() {
            assert!(bench.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for w in WORKLOADS {
            assert!(
                bench.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }
}
