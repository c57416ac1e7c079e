// serve_mixed: one QueryService, one client thread keeping a fixed number of
// requests in flight (closed loop). The program is K disjoint left-recursive
// closure families over incremental edges; the client sends mostly point
// queries plus assert/retract updates, each invalidating one family.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common.h"
#include "layers.h"
#include "server/query_service.h"

namespace xsbperf {
namespace {

using Edges = std::set<std::pair<int, int>>;

struct Params {
  int families = 8;
  int nodes = 24;      // per family
  int out_degree = 2;  // initial edges per node
  double update_share = 0.01;
  int workers = 2;
  size_t inflight = 4;
  long ops_per_session = 20000;
};

std::string EdgeFact(int family, const std::pair<int, int>& e) {
  return Cat("e", std::to_string(family), "(", std::to_string(e.first), ",",
             std::to_string(e.second), ")");
}

// BFS oracle over one version of a family's edges: nodes reachable from
// `start` by a path of length >= 1, as sorted text.
std::vector<std::string> Reach(const Edges& edges, int nodes, int start) {
  std::vector<std::vector<int>> succ(nodes);
  for (const auto& [from, to] : edges) succ[from].push_back(to);
  std::vector<char> seen(nodes, 0);
  std::deque<int> frontier(succ[start].begin(), succ[start].end());
  std::vector<std::string> out;
  while (!frontier.empty()) {
    int n = frontier.front();
    frontier.pop_front();
    if (seen[n]) continue;
    seen[n] = 1;
    out.push_back(std::to_string(n));
    for (int t : succ[n]) frontier.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct InFlight {
  std::future<xsb::Result<std::vector<xsb::Answer>>> future;
  Clock::time_point submitted;
  int family;
  int start;
  size_t version;  // index into the family's edge history at submission
  std::string goal;
  uint64_t op;
  int64_t span;
};

class ServeMixed {
 public:
  explicit ServeMixed(const RunConfig& config) : config_(config) {
    Rng rng(config.seed);
    if (config.tiny) {
      p_.families = 2;
      p_.nodes = 8;
    }
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    p_.workers = std::max(1, std::min(p_.workers, hw - 1));
    p_.inflight = 2 * static_cast<size_t>(p_.workers);
    initial_.resize(p_.families);
    for (int k = 0; k < p_.families; ++k) {
      std::string name = std::to_string(k);
      program_ += ":- table p" + name + "/2.\n:- incremental(e" + name +
                  "/2).\n" + "p" + name + "(X,Y) :- p" + name +
                  "(X,Z), e" + name + "(Z,Y).\n" + "p" + name +
                  "(X,Y) :- e" + name + "(X,Y).\n";
      for (int n = 0; n < p_.nodes; ++n) {
        while (true) {
          std::pair<int, int> e{n, rng.Int(0, p_.nodes - 1)};
          if (e.first == e.second || initial_[k].count(e)) continue;
          initial_[k].insert(e);
          if (static_cast<int>(initial_[k].size()) >= (n + 1) * p_.out_degree)
            break;
        }
      }
      for (const auto& e : initial_[k]) program_ += EdgeFact(k, e) + ".\n";
    }
  }

  void Describe(Report* report) const {
    report->params["families"] = std::to_string(p_.families);
    report->params["nodes_per_family"] = std::to_string(p_.nodes);
    report->params["out_degree"] = std::to_string(p_.out_degree);
    report->params["update_share"] = std::to_string(p_.update_share);
    report->params["workers"] = std::to_string(p_.workers);
    report->params["inflight"] = std::to_string(p_.inflight);
  }

  void Run(Tracer* tracer, Report* report) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config_.seconds));
    long per_session =
        config_.fixed_ops > 0 ? config_.fixed_ops : p_.ops_per_session;
    long sessions = 0;
    Tracer untraced(false);
    std::vector<double> traced_ms, untraced_ms;
    while (sessions == 0 ||
           (config_.fixed_ops == 0 && Clock::now() < deadline)) {
      ++sessions;
      // A traced run alternates traced and untraced sessions, so it can
      // state its own overhead: the replays run on the client thread and
      // delay every request in flight, not just the replayed one.
      bool traced = tracer->enabled() && sessions % 2 == 1;
      session_ms_.clear();
      if (!RunSession(per_session, deadline, traced ? tracer : &untraced,
                      report)) {
        break;
      }
      if (tracer->enabled()) {
        std::vector<double>& sink = traced ? traced_ms : untraced_ms;
        sink.insert(sink.end(), session_ms_.begin(), session_ms_.end());
      }
    }
    if (!traced_ms.empty() && !untraced_ms.empty()) {
      report->layers.Add("trace.overhead_pct",
                         (Median(traced_ms) / Median(untraced_ms) - 1) * 100);
    }
    report->params["sessions"] = std::to_string(sessions);
    report->params["ops_per_session"] = std::to_string(per_session);
  }

 private:
  bool RunSession(long per_session, Clock::time_point deadline,
                  Tracer* tracer, Report* report) {
    rng_ = SessionRng(config_.seed);
    history_.assign(p_.families, {});
    for (int k = 0; k < p_.families; ++k) history_[k].push_back(initial_[k]);

    Clock::time_point t0 = Clock::now();
    auto service = std::make_unique<xsb::QueryService>(
        xsb::QueryService::Options{.num_workers = p_.workers});
    Clock::time_point t1 = Clock::now();
    xsb::Status consulted = [&] {
      ScopedSpan span(tracer, "db.consult", op_id_);
      return service->Consult(program_);
    }();
    Clock::time_point t2 = Clock::now();
    report->setup_s.push_back(Seconds(t0, t2));
    ++report->attempted;
    if (!consulted.ok()) {
      ++report->failed;
      return false;
    }

    // Client-side heap for traced replays (goal parsing, probes).
    xsb::TermStore scratch(service->program().symbols());
    ReplayContext replay{&scratch, &service->program(), &service->tables(),
                         op_id_, -1, tracer, &report->layers};
    if (tracer->enabled()) {
      report->layers.Add("db.consult_ms", Seconds(t1, t2) * 1e3);
      ReplayProgramParse(replay, program_);
      // No query is in flight yet, so republishing the (identical)
      // analysis onto the shared program races no worker.
      Clock::time_point a = Clock::now();
      {
        ScopedSpan span(tracer, "analysis.analyze", op_id_);
        xsb::analysis::AnalysisResult result =
            xsb::analysis::Analyze(service->program());
        xsb::analysis::PublishVerdict(&service->program(), result);
        xsb::analysis::PublishIncrementalDeps(&service->program(), result);
        xsb::analysis::PublishEvalShards(&service->program(), result);
        xsb::analysis::PublishModes(&service->program(), result);
      }
      report->layers.Add("analysis.analyze_ms", Seconds(a, Clock::now()) * 1e3);
      report->layers.Add("db.clauses", CountClauses(service->program()));
    }
    ++op_id_;

    xsb::QueryService::ServiceStats stats_before = service->Stats();
    TableCounts tables_before = TableCounts::Read(service->tables());
    long queries = 0, updates = 0;
    std::deque<InFlight> inflight;
    loop_start_ = Clock::now();
    for (long i = 0; i < per_session; ++i) {
      if (config_.fixed_ops == 0 && Clock::now() >= deadline) break;
      ++report->attempted;
      ++op_id_;
      if (rng_.Chance(p_.update_share)) {
        Update(*service, tracer, report);
        ++updates;
        continue;
      }
      ++queries;
      InFlight q;
      q.family = rng_.Int(0, p_.families - 1);
      q.start = rng_.Int(0, p_.nodes - 1);
      q.version = history_[q.family].size() - 1;
      q.goal = Cat("p", std::to_string(q.family), "(",
                   std::to_string(q.start), ", Y)");
      q.op = op_id_;
      q.span = tracer->Begin("xsb.query", op_id_);
      q.submitted = Clock::now();
      {
        ScopedSpan span(tracer, "server.submit", op_id_, q.span);
        q.future = service->Submit(q.goal);
      }
      if (tracer->enabled()) {
        report->layers.Add("server.submit_us",
                           Seconds(q.submitted, Clock::now()) * 1e6);
      }
      inflight.push_back(std::move(q));
      Harvest(&inflight, p_.inflight - 1, replay, report);
    }
    Harvest(&inflight, 0, replay, report);
    report->loop_s += Seconds(loop_start_, Clock::now());

    if (tracer->enabled()) {
      AddSessionCounters(*service, stats_before, tables_before, queries,
                         updates, report);
    }
    return true;
  }

  void Update(xsb::QueryService& service, Tracer* tracer, Report* report) {
    int k = rng_.Int(0, p_.families - 1);
    Edges edges = history_[k].back();
    size_t initial = initial_[k].size();
    bool retract = edges.size() > initial + 4 ||
                   (edges.size() + 4 > initial && rng_.Chance(0.5));
    std::string goal;
    if (retract) {
      auto it = edges.begin();
      std::advance(it, rng_.Int(0, static_cast<int>(edges.size()) - 1));
      goal = "retract(" + EdgeFact(k, *it) + ")";
      edges.erase(it);
    } else {
      std::pair<int, int> e;
      do {
        e = {rng_.Int(0, p_.nodes - 1), rng_.Int(0, p_.nodes - 1)};
      } while (e.first == e.second || edges.count(e));
      goal = "assertz(" + EdgeFact(k, e) + ")";
      edges.insert(e);
    }
    history_[k].push_back(std::move(edges));
    ScopedSpan span(tracer, "server.update", op_id_);
    Clock::time_point s = Clock::now();
    xsb::Status status = service.Update(goal);
    Clock::time_point e = Clock::now();
    report->updates.Add(Seconds(s, e) * 1e3,
                        report->loop_s + Seconds(loop_start_, e));
    if (!status.ok()) ++report->failed;
  }

  // Completes in-flight requests until at most `keep` remain. The client
  // polls every request instead of blocking on one: a blocked client lets
  // its CPU go idle, and on a virtual machine the wake-up latency then
  // dominates a 50 us request (throughput moved 3x between runs).
  void Harvest(std::deque<InFlight>* inflight, size_t keep,
               ReplayContext& replay, Report* report) {
    while (inflight->size() > keep) {
      bool progressed = false;
      for (auto it = inflight->begin(); it != inflight->end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        Complete(*it, replay, report);
        it = inflight->erase(it);
        progressed = true;
      }
      if (!progressed) std::this_thread::yield();
    }
  }

  // Records and checks one answered request. It is correct if its answers
  // match the family's edges at some version between its submission and
  // now: a request in flight across an update may see either side of it.
  void Complete(InFlight& q, ReplayContext& replay, Report* report) {
    xsb::Result<std::vector<xsb::Answer>> answers = q.future.get();
    Clock::time_point done = Clock::now();
    double ms = Seconds(q.submitted, done) * 1e3;
    replay.tracer->End(q.span);
    report->queries.Add(ms, report->loop_s + Seconds(loop_start_, done));
    if (config_.trace) session_ms_.push_back(ms);
    bool ok = false;
    if (answers.ok()) {
      std::vector<std::string> got;
      for (const xsb::Answer& a : answers.value()) got.push_back(a["Y"]);
      std::sort(got.begin(), got.end());
      const std::vector<Edges>& versions = history_[q.family];
      for (size_t v = q.version; v < versions.size() && !ok; ++v) {
        ok = got == Reach(versions[v], p_.nodes, q.start);
      }
    }
    if (!ok) ++report->failed;
    if (replay.tracer->enabled() && answers.ok()) {
      replay.op = q.op;
      replay.parent = q.span;
      ReplayGoal(replay, q.goal, /*published_only=*/true);
      ReplayBindings(replay, answers.value());
    }
  }

  void AddSessionCounters(xsb::QueryService& service,
                          const xsb::QueryService::ServiceStats& before,
                          const TableCounts& tables_before, long queries,
                          long updates, Report* report) {
    LayerSamples& layers = report->layers;
    xsb::QueryService::ServiceStats after = service.Stats();
    double q = static_cast<double>(queries);
    auto per_query = [&](const char* name, uint64_t a, uint64_t b) {
      layers.AddPer(name, static_cast<double>(b - a), q);
    };
    per_query("server.shared_table_hits", before.shared_table_hits,
              after.shared_table_hits);
    per_query("server.waits_on_inprogress", before.waits_on_inprogress,
              after.waits_on_inprogress);
    per_query("server.parallel_batches", before.parallel_batches,
              after.parallel_batches);
    per_query("server.shard_escalations", before.shard_escalations,
              after.shard_escalations);
    per_query("server.coarse_fallbacks", before.coarse_fallbacks,
              after.coarse_fallbacks);
    per_query("server.epochs_retired", before.epochs_retired,
              after.epochs_retired);
    if (!after.per_worker.empty()) {
      double most = 0, total = 0;
      for (size_t w = 0; w < after.per_worker.size(); ++w) {
        double served = static_cast<double>(
            after.per_worker[w].queries_served -
            (w < before.per_worker.size()
                 ? before.per_worker[w].queries_served
                 : 0));
        most = std::max(most, served);
        total += served;
      }
      double mean = total / static_cast<double>(after.per_worker.size());
      if (mean > 0) layers.Add("server.worker_imbalance", most / mean - 1);
    }

    xsb::TableSpace& tables = service.tables();
    TableCounts c = TableCounts::Read(tables);
    AddTableCounters(tables_before, c, q, &layers);
    // Warm serves over all top-level tabled calls: warm serves plus the
    // cold evaluations (new variants and re-evaluated invalid tables).
    double warm = static_cast<double>(after.shared_table_hits -
                                      before.shared_table_hits);
    const TableCounts& b = tables_before;
    double cold = static_cast<double>(c.subgoals - b.subgoals +
                                      c.reevaluated - b.reevaluated);
    layers.AddPer("server.warm_hit_ratio", warm, warm + cold);
    double u = static_cast<double>(updates);
    layers.AddPer("tabling.tables_invalidated",
                  static_cast<double>(c.invalidated - b.invalidated), u);
    layers.AddPer("tabling.tables_reevaluated",
                  static_cast<double>(c.reevaluated - b.reevaluated), u);
    double hits = static_cast<double>(c.intern_hits - b.intern_hits);
    double misses = static_cast<double>(c.intern_misses - b.intern_misses);
    layers.AddPer("term.intern_hit_ratio", hits, hits + misses);
    // Whole-space walks need every shard; nothing is in flight here.
    xsb::ShardLease lease(&tables, xsb::kAllEvalShards);
    AddTableSize(tables, &layers);
  }

  const RunConfig& config_;
  Rng rng_{0};  // the session's operation stream
  Params p_;
  std::string program_;
  std::vector<Edges> initial_;
  // Per family, every edge set it has had this session, oldest first.
  std::vector<std::vector<Edges>> history_;
  uint64_t op_id_ = 0;
  Clock::time_point loop_start_;  // start of the session's operation loop
  // Query latencies of the current session, kept in traced runs only (for
  // the tracing overhead).
  std::vector<double> session_ms_;
};

}  // namespace

void RunServeMixed(const RunConfig& config, Tracer* tracer, Report* report) {
  ServeMixed workload(config);
  workload.Describe(report);
  workload.Run(tracer, report);
}

}  // namespace xsbperf
