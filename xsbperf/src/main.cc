// Benchmark runner: runs one seeded workload through the public
// xsb::Engine / xsb::QueryService API and prints its metrics.
//
//   xsb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR] [--ops N] [--tiny]
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The line before it is a detail object with the
// sample counts and generator parameters. NOTES.md describes every metric.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

namespace xsbperf {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Printed by a traced run; a metric a workload does not exercise reads 0.
// Counts are per query unless NOTES.md states another base.
const Metric kLayerMetrics[] = {
    {"parser.program_parse_ms", "ms"},
    {"parser.goal_parse_us", "us"},
    {"parser.render_us", "us"},
    {"analysis.analyze_ms", "ms"},
    {"db.consult_ms", "ms"},
    {"db.clauses", "count"},
    {"engine.user_calls", "count"},
    {"engine.builtin_calls", "count"},
    {"engine.head_unifications", "count"},
    {"engine.choice_points", "count"},
    {"tabling.subgoals_created", "count"},
    {"tabling.answers_inserted", "count"},
    {"tabling.duplicate_answers", "count"},
    {"tabling.answer_useful_ratio", "ratio"},
    {"tabling.consumer_suspensions", "count"},
    {"tabling.consumer_resumptions", "count"},
    {"tabling.resumptions_per_answer", "ratio"},
    {"tabling.batches", "count"},
    {"tabling.generator_episodes", "count"},
    {"tabling.answer_insert_ns", "ns"},
    {"tabling.abolish_ms", "ms"},
    {"tabling.call_probe_us", "us"},
    {"tabling.answer_read_ns", "ns"},
    {"tabling.tables_invalidated", "count"},
    {"tabling.tables_reevaluated", "count"},
    {"tabling.table_bytes", "bytes"},
    {"tabling.answer_trie_nodes", "count"},
    {"tabling.call_trie_nodes", "count"},
    {"term.interned_terms", "count"},
    {"term.intern_hit_ratio", "ratio"},
    {"term.intern_ns", "ns"},
    {"server.submit_us", "us"},
    {"server.shared_table_hits", "count"},
    {"server.warm_hit_ratio", "ratio"},
    {"server.waits_on_inprogress", "count"},
    {"server.parallel_batches", "count"},
    {"server.shard_escalations", "count"},
    {"server.coarse_fallbacks", "count"},
    {"server.epochs_retired", "count"},
    {"server.worker_imbalance", "ratio"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: xsb_perfbench --workload "
               "closure_cold|chart_parse|sld_prolog|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--ops N] "
               "[--tiny]\n");
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tiny") {
      config->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (value.empty()) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (config->seconds <= 0) return false;
    } else if (arg == "--trace") {
      config->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--ops") {
      config->fixed_ops = std::strtol(value.c_str(), &end, 10);
    } else if (arg == "--trace-dir") {
      config->trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace
}  // namespace xsbperf

int main(int argc, char** argv) {
  using namespace xsbperf;
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    Usage();
    return 2;
  }
  Tracer tracer(config.trace);
  Report report;
  if (config.workload == "closure_cold") {
    RunClosureCold(config, &tracer, &report);
  } else if (config.workload == "chart_parse") {
    RunChartParse(config, &tracer, &report);
  } else if (config.workload == "sld_prolog") {
    RunSldProlog(config, &tracer, &report);
  } else if (config.workload == "serve_mixed") {
    RunServeMixed(config, &tracer, &report);
  } else {
    Usage();
    return 2;
  }

  std::string trace_file;
  if (config.trace && !config.trace_dir.empty()) {
    trace_file = config.trace_dir + "/" + config.workload + "-seed" +
                 std::to_string(config.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      trace_file.clear();
    }
  }

  // Detail line: sample counts behind the percentiles, and the run shape.
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"hardware_threads\": %u, \"query_samples\": %zu, "
              "\"update_samples\": %zu, \"update_p99_ms\": %.17g, "
              "\"setup_samples\": %zu, "
              "\"spans\": %zu, \"spans_dropped\": %llu, \"trace_file\": \"%s\"",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              std::thread::hardware_concurrency(), report.queries.count(),
              report.updates.count(), report.updates.P99(),
              report.setup_s.size(), tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()),
              trace_file.c_str());
  for (const auto& [key, value] : report.params) {
    std::printf(", \"%s\": \"%s\"", key.c_str(), value.c_str());
  }
  std::printf("}}\n");

  bool correct = report.attempted > 0 && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  if (!config.trace) {
    PrintMetric(&first, "setup_s", Median(report.setup_s), "s");
    PrintMetric(&first, "query_p50_ms", report.queries.P50(), "ms");
    PrintMetric(&first, "query_p99_ms", report.queries.P99(), "ms");
    PrintMetric(&first, "throughput_qps", report.queries.Rate(), "1/s");
    PrintMetric(&first, "update_p50_ms", report.updates.P50(), "ms");
    PrintMetric(&first, "update_p90_ms", report.updates.P90(), "ms");
    PrintMetric(&first, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    report.layers.Add("failed_ratio",
                      report.attempted > 0
                          ? static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted)
                          : 0);
    for (const Metric& m : kLayerMetrics) {
      auto it = report.layers.samples.find(m.name);
      double value =
          it == report.layers.samples.end() ? 0 : Median(it->second);
      PrintMetric(&first, m.name, value, m.unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
