#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace xsbperf {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + index, v.end());
  return v[index];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

void LatencySeries::Add(double ms, double done_s) {
  window_.push_back(ms);
  ++count_;
  last_done_s_ = done_s;
  if (window_.size() < kWindow) return;
  p50_.push_back(Percentile(window_, 50));
  p90_.push_back(Percentile(window_, 90));
  p99_.push_back(Percentile(window_, 99));
  if (done_s > window_start_s_) {
    rate_.push_back(static_cast<double>(kWindow) / (done_s - window_start_s_));
  }
  window_start_s_ = done_s;
  window_.clear();
}

double LatencySeries::P50() const {
  return p50_.empty() ? Percentile(window_, 50) : Median(p50_);
}

double LatencySeries::P90() const {
  return p90_.empty() ? Percentile(window_, 90) : Median(p90_);
}

double LatencySeries::P99() const {
  return p99_.empty() ? Percentile(window_, 99) : Median(p99_);
}

double LatencySeries::Rate() const {
  if (!rate_.empty()) return Median(rate_);
  return last_done_s_ > 0 ? static_cast<double>(count_) / last_done_s_ : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t op, int64_t parent) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, op, parent, Now(), 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = Now();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace xsbperf
