// Shared pieces of the benchmark runner: run configuration, the result
// record every workload fills, latency samples, and the span tracer.
#ifndef XSBPERF_COMMON_H_
#define XSBPERF_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace xsbperf {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // > 0: run exactly this many operations in one session instead of a
  // time-boxed loop (the self-test's deterministic mode).
  long fixed_ops = 0;
  // Shrinks every generator so a whole run takes well under a second.
  bool tiny = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// Seeded generator; every input a workload makes comes from one of these.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  // Uniform in [lo, hi].
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen_);
  }
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(gen_) < p;
  }
  std::mt19937_64& gen() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

// The operation stream of one session. Every session of a run re-seeds it,
// so all sessions issue the same operations: a session's peak memory then
// does not depend on how many sessions the run fits in.
inline Rng SessionRng(uint64_t seed) {
  return Rng(seed ^ 0x9e3779b97f4a7c15ULL);
}

// Concatenates string pieces by appending (GCC 12 raises a false -Wrestrict
// on chains of `"literal" + std::string` temporaries).
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

// Nearest-rank percentile of `v` (p in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);

// Latencies of one kind of operation, reduced per window of kWindow
// consecutive samples as they arrive. Memory stays bounded however many
// operations a run completes; stored samples would otherwise show in
// peak_rss_mb and grow with throughput. Each statistic is the median over
// the run's full windows, so a burst of interference from other tenants
// moves one window rather than the result; with no full window it is taken
// over the samples so far.
class LatencySeries {
 public:
  static constexpr size_t kWindow = 1000;  // a p99 with 10 samples beyond

  // `ms`: the operation's latency; `done_s`: when it completed, in seconds
  // of operation-loop time (the clock stops during set-up).
  void Add(double ms, double done_s);

  size_t count() const { return count_; }
  double P50() const;
  double P90() const;
  double P99() const;
  double Rate() const;  // completions per second

 private:
  std::vector<double> window_;   // latencies of the current window
  double window_start_s_ = 0;    // completion time that closed the last one
  std::vector<double> p50_, p90_, p99_, rate_;  // one entry per full window
  size_t count_ = 0;
  double last_done_s_ = 0;
};

// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

// One span: a timed call the runner made into one layer of the engine.
// Spans of one operation share `op`; `parent` is the index of the enclosing
// span in the tracer, or -1.
struct Span {
  const char* name;
  uint64_t op;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

// In-memory span log, written out once when the run ends. Disabled tracers
// record nothing, so untraced runs pay one branch per call site. Spans past
// kMaxSpans are counted but not kept, which bounds memory and file size.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (or -1 when disabled).
  int64_t Begin(const char* name, uint64_t op, int64_t parent = -1);
  void End(int64_t index);

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  bool WriteJsonLines(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 50000;
  int64_t Now() const;
  bool enabled_;
  uint64_t dropped_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span bracket.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op,
             int64_t parent = -1)
      : tracer_(tracer), index_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

// Per-layer metrics of a traced run, keyed by metric name. Each value is a
// list of samples; the report prints their median.
struct LayerSamples {
  std::map<std::string, std::vector<double>> samples;
  void Add(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  // Adds `count / base` when base > 0 (counts are reported per query).
  void AddPer(const std::string& name, double count, double base) {
    if (base > 0) Add(name, count / base);
  }
};

// What one run of one workload measured.
struct Report {
  uint64_t attempted = 0;  // operations issued
  uint64_t failed = 0;     // operations that erred or returned a wrong answer
  std::vector<double> setup_s;
  LatencySeries queries;
  LatencySeries updates;
  double loop_s = 0;  // wall time spent issuing operations (no set-up)
  LayerSamples layers;
  // Generator parameters and run shape, echoed in the detail line.
  std::map<std::string, std::string> params;
};

// Runs one workload; the result is filled into *report.
void RunClosureCold(const RunConfig& config, Tracer* tracer, Report* report);
void RunChartParse(const RunConfig& config, Tracer* tracer, Report* report);
void RunSldProlog(const RunConfig& config, Tracer* tracer, Report* report);
void RunServeMixed(const RunConfig& config, Tracer* tracer, Report* report);

}  // namespace xsbperf

#endif  // XSBPERF_COMMON_H_
