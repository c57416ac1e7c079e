// The three single-session workloads (closure_cold, chart_parse,
// sld_prolog): one client, closed loop, through xsb::Engine. Each run is a
// sequence of sessions; a session consults the generated program into a
// fresh Engine (timed as set-up) and then issues a fixed number of seeded
// operations, each checked against an oracle that does not use the engine.
#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "xsb/engine.h"

namespace xsbperf {
namespace {

// One operation of a single-session workload.
struct EngineOp {
  enum Kind { kAbolish, kUpdate, kQuery } kind = kQuery;
  std::string goal;
  // For queries: the variable whose bindings are checked and the expected
  // bindings as rendered text, sorted (a multiset: duplicates count).
  std::string var;
  std::vector<std::string> expected;
};

class EngineWorkload {
 public:
  virtual ~EngineWorkload() = default;
  virtual const std::string& program() const = 0;
  // Resets per-session state: the oracle's mirror of the database and the
  // position in the operation pattern.
  virtual void StartSession() {}
  virtual EngineOp Next(Rng& rng) = 0;
  // Operations per session; a fresh Engine bounds what one session can
  // accumulate (see NOTES.md on the goal arena).
  virtual long ops_per_session() const = 0;
};

std::string Join(const std::vector<int>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(items[i]);
  }
  return out;
}

std::vector<std::string> SortedStrings(const std::vector<int>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (int v : values) out.push_back(std::to_string(v));
  std::sort(out.begin(), out.end());
  return out;
}

// --- closure_cold ------------------------------------------------------------

// Right-recursive transitive closure over strongly connected components:
// every query re-derives the whole component (one subgoal per node, O(n^2)
// answers) because the tables are abolished before it.
class ClosureCold : public EngineWorkload {
 public:
  ClosureCold(Rng& rng, bool tiny) {
    int components = tiny ? 3 : 48;
    int lo = tiny ? 6 : 20;
    int hi = tiny ? 10 : 44;
    out_degree_ = 3;
    // Component sizes are spread evenly over [lo, hi) and fixed, so the
    // query cost distribution is the same for every seed; the seed sets the
    // node ids, the chords and the queries.
    std::vector<int> sizes;
    for (int c = 0; c < components; ++c) {
      sizes.push_back(lo + (c * (hi - lo)) / components);
    }
    // One component about twice the size of the others' largest gives the
    // workload its own tail: every 16th query starts in it and costs
    // several times the median, so the p99 falls inside that class instead
    // of on whatever delay the machine adds to 1% of queries.
    sizes.push_back(tiny ? 14 : 96);
    int total = 0;
    for (int s : sizes) total += s;
    std::vector<int> ids(total);
    for (int i = 0; i < total; ++i) ids[i] = i + 1;
    std::shuffle(ids.begin(), ids.end(), rng.gen());
    succ_.assign(total + 1, {});
    program_ =
        ":- table rpath/2.\n"
        "rpath(X,Y) :- e(X,Y).\n"
        "rpath(X,Y) :- e(X,Z), rpath(Z,Y).\n";
    size_t next = 0;
    for (int size : sizes) {
      components_.emplace_back(ids.begin() + next, ids.begin() + next + size);
      const std::vector<int>& comp = components_.back();
      next += size;
      // A Hamiltonian cycle makes the component strongly connected; the
      // other out-edges are seeded chords inside the component.
      for (int i = 0; i < size; ++i) {
        std::set<int> targets{comp[(i + 1) % size]};
        while (static_cast<int>(targets.size()) <
               std::min(out_degree_, size - 1)) {
          int t = comp[rng.Int(0, size - 1)];
          if (t != comp[i]) targets.insert(t);
        }
        for (int t : targets) {
          succ_[comp[i]].push_back(t);
          program_ += "e(" + std::to_string(comp[i]) + "," +
                      std::to_string(t) + ").\n";
        }
      }
    }
    sizes_ = Join(sizes);
  }

  const std::string& program() const override { return program_; }
  // 256 queries: 16 in the large component, 5 in each other one.
  long ops_per_session() const override { return 512; }
  void StartSession() override {
    query_next_ = false;
    queries_ = 0;
  }

  EngineOp Next(Rng& rng) override {
    EngineOp op;
    if (!query_next_) {
      query_next_ = true;
      op.kind = EngineOp::kAbolish;
      return op;
    }
    query_next_ = false;
    // Every 16th query starts in the large component; the others visit the
    // remaining components in turn, so every seed asks the same mix of
    // component sizes and only the start node within one is drawn.
    ++queries_;
    size_t bulk = components_.size() - 1;
    const std::vector<int>& comp =
        queries_ % kHeavyEvery == 0
            ? components_.back()
            : components_[(queries_ - queries_ / kHeavyEvery - 1) % bulk];
    int start = comp[rng.Int(0, static_cast<int>(comp.size()) - 1)];
    op.goal = "rpath(" + std::to_string(start) + ", X)";
    op.var = "X";
    op.expected = SortedStrings(Reach(start));
    return op;
  }

  void Describe(Report* report) const {
    report->params["components"] = sizes_;
    report->params["heavy_query_every"] = std::to_string(kHeavyEvery);
    report->params["out_degree"] = std::to_string(out_degree_);
  }

 private:
  // BFS oracle: nodes reachable from `start` by a path of length >= 1.
  std::vector<int> Reach(int start) const {
    std::vector<char> seen(succ_.size(), 0);
    std::deque<int> frontier(succ_[start].begin(), succ_[start].end());
    std::vector<int> out;
    while (!frontier.empty()) {
      int n = frontier.front();
      frontier.pop_front();
      if (seen[n]) continue;
      seen[n] = 1;
      out.push_back(n);
      for (int t : succ_[n]) frontier.push_back(t);
    }
    return out;
  }

  std::string program_;
  static constexpr int kHeavyEvery = 16;

  std::vector<std::vector<int>> succ_;
  // Node ids per component; the last one is the large component.
  std::vector<std::vector<int>> components_;
  long queries_ = 0;
  int out_degree_ = 3;
  std::string sizes_;
  bool query_next_ = false;  // operations alternate: abolish, then query
};

// --- chart_parse -------------------------------------------------------------

// A parse tree as the generator built it.
struct Expr {
  enum Kind { kNum, kPlus, kTimes } kind;
  int value = 0;
  std::unique_ptr<Expr> left, right;
};

// Earley-style tabled parsing of a left-recursive expression grammar over
// tok(Sentence, I, Token, J) facts. Each query asks for the parse of one
// whole sentence and gets exactly one ground tree.
class ChartParse : public EngineWorkload {
 public:
  ChartParse(Rng& rng, bool tiny) {
    sentences_ = tiny ? 16 : 64;
    numbers_ = tiny ? 6 : 24;
    program_ =
        ":- table e/4, t/4, f/4.\n"
        "e(S,I,J,plus(A,B)) :- e(S,I,K,A), tok(S,K,'+',K1), t(S,K1,J,B).\n"
        "e(S,I,J,T) :- t(S,I,J,T).\n"
        "t(S,I,J,times(A,B)) :- t(S,I,K,A), tok(S,K,'*',K1), f(S,K1,J,B).\n"
        "t(S,I,J,T) :- f(S,I,J,T).\n"
        "f(S,I,J,num(N)) :- tok(S,I,num(N),J).\n"
        "f(S,I,J,T) :- tok(S,I,'(',K), e(S,K,K1,T), tok(S,K1,')',J).\n";
    for (int s = 0; s < sentences_; ++s) {
      // Every 16th sentence is twice as long, and every 16th query parses
      // one of those: the workload's own tail (see ClosureCold).
      bool heavy = s % kHeavyEvery == kHeavyEvery - 1;
      (heavy ? heavy_ : normal_).push_back(s);
      int numbers = heavy ? 2 * numbers_ : numbers_;
      std::unique_ptr<Expr> tree = Generate(rng, numbers);
      std::vector<std::string> tokens;
      Render(*tree, &tokens);
      for (size_t i = 0; i < tokens.size(); ++i) {
        program_ += "tok(" + std::to_string(s) + "," + std::to_string(i) +
                    "," + tokens[i] + "," + std::to_string(i + 1) + ").\n";
      }
      lengths_.push_back(static_cast<int>(tokens.size()));
      trees_.push_back(Write(*tree));
    }
  }

  const std::string& program() const override { return program_; }
  // 320 queries: each long sentence 5 times, each other one 5 times.
  long ops_per_session() const override { return 640; }
  void StartSession() override {
    query_next_ = false;
    queries_ = 0;
  }

  EngineOp Next(Rng& /*rng*/) override {
    EngineOp op;
    if (!query_next_) {
      query_next_ = true;
      op.kind = EngineOp::kAbolish;
      return op;
    }
    query_next_ = false;
    // Sentences are visited in turn, so every seed parses each one equally
    // often; the seed shapes the sentences themselves.
    ++queries_;
    long heavy_queries = queries_ / kHeavyEvery;
    int s = queries_ % kHeavyEvery == 0
                ? heavy_[(heavy_queries - 1) % heavy_.size()]
                : normal_[(queries_ - heavy_queries - 1) % normal_.size()];
    op.goal = "e(" + std::to_string(s) + ", 0, " +
              std::to_string(lengths_[s]) + ", T)";
    op.var = "T";
    op.expected = {trees_[s]};
    return op;
  }

  void Describe(Report* report) const {
    report->params["sentences"] = std::to_string(sentences_);
    report->params["numbers_per_sentence"] =
        std::to_string(numbers_) + " (every 16th sentence: " +
        std::to_string(2 * numbers_) + ")";
  }

 private:
  // A random tree with `leaves` numbers; operators are + or * with equal
  // probability, split points uniform.
  static std::unique_ptr<Expr> Generate(Rng& rng, int leaves) {
    auto node = std::make_unique<Expr>();
    if (leaves == 1) {
      node->kind = Expr::kNum;
      node->value = rng.Int(0, 99);
      return node;
    }
    node->kind = rng.Chance(0.5) ? Expr::kPlus : Expr::kTimes;
    int left = rng.Int(1, leaves - 1);
    node->left = Generate(rng, left);
    node->right = Generate(rng, leaves - left);
    return node;
  }

  // Tokens of `e` with the fewest parentheses that keep its tree: the
  // grammar makes + and * left-associative and * bind tighter.
  static void Render(const Expr& e, std::vector<std::string>* out) {
    if (e.kind == Expr::kNum) {
      out->push_back("num(" + std::to_string(e.value) + ")");
      return;
    }
    bool plus = e.kind == Expr::kPlus;
    bool paren_left = !plus && e.left->kind == Expr::kPlus;
    bool paren_right = e.right->kind != Expr::kNum &&
                       (plus ? e.right->kind == Expr::kPlus : true);
    RenderMaybeParen(*e.left, paren_left, out);
    out->push_back(plus ? "'+'" : "'*'");
    RenderMaybeParen(*e.right, paren_right, out);
  }

  static void RenderMaybeParen(const Expr& e, bool paren,
                               std::vector<std::string>* out) {
    if (paren) out->push_back("'('");
    Render(e, out);
    if (paren) out->push_back("')'");
  }

  static std::string Write(const Expr& e) {
    switch (e.kind) {
      case Expr::kNum:
        return "num(" + std::to_string(e.value) + ")";
      case Expr::kPlus:
        return "plus(" + Write(*e.left) + "," + Write(*e.right) + ")";
      case Expr::kTimes:
        return "times(" + Write(*e.left) + "," + Write(*e.right) + ")";
    }
    return "";
  }

  std::string program_;
  int sentences_ = 0;
  int numbers_ = 0;
  static constexpr int kHeavyEvery = 16;

  std::vector<int> lengths_;
  std::vector<std::string> trees_;
  std::vector<int> heavy_;   // the long sentences
  std::vector<int> normal_;  // all others
  long queries_ = 0;
  bool query_next_ = false;  // operations alternate: abolish, then query
};

// --- sld_prolog --------------------------------------------------------------

// Untabled Prolog: naive reverse over seeded lists, and a first-argument
// indexed join aggregated with findall/3 over a generated EDB, with a
// salary update (retract + assertz) every few operations.
class SldProlog : public EngineWorkload {
 public:
  SldProlog(Rng& rng, bool tiny) {
    depts_ = tiny ? 4 : 200;
    employees_ = tiny ? 40 : 20000;
    program_ =
        "app([],L,L).\n"
        "app([H|T],L,[H|R]) :- app(T,L,R).\n"
        "nrev([],[]).\n"
        "nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).\n"
        ":- dynamic salary/2.\n";
    dept_of_.resize(employees_);
    initial_salary_.resize(employees_);
    staff_.assign(depts_, {});
    for (int e = 0; e < employees_; ++e) {
      dept_of_[e] = rng.Int(0, depts_ - 1);
      initial_salary_[e] = rng.Int(1000, 9999);
      staff_[dept_of_[e]].push_back(e);
      program_ += "staff(" + std::to_string(dept_of_[e]) + "," +
                  std::to_string(e) + ").\n";
    }
    for (int e = 0; e < employees_; ++e) {
      program_ += "salary(" + std::to_string(e) + "," +
                  std::to_string(initial_salary_[e]) + ").\n";
    }
  }

  const std::string& program() const override { return program_; }
  long ops_per_session() const override { return 4000; }
  void StartSession() override {
    salary_ = initial_salary_;
    counter_ = 0;
  }

  EngineOp Next(Rng& rng) override {
    EngineOp op;
    if (++counter_ % kUpdateEvery == 0) {
      // Every 16th update is a batch: the update stream's own tail.
      int rows = counter_ % (16 * kUpdateEvery) == 0 ? kBatchRows : 1;
      op.kind = EngineOp::kUpdate;
      for (int r = 0; r < rows; ++r) {
        int e = rng.Int(0, employees_ - 1);
        salary_[e] = rng.Int(1000, 9999);
        if (r > 0) op.goal += ", ";
        op.goal += Cat("retract(salary(", std::to_string(e), ",_)), ",
                       "assertz(salary(", std::to_string(e), ",",
                       std::to_string(salary_[e]), "))");
      }
      return op;
    }
    if (rng.Chance(kNrevShare)) {
      std::vector<int> list(rng.Int(kMinList, kMaxList));
      for (int& x : list) x = rng.Int(0, 999);
      op.goal = "nrev([" + Join(list) + "], R)";
      std::reverse(list.begin(), list.end());
      op.var = "R";
      op.expected = {"[" + Join(list) + "]"};
      return op;
    }
    int d = rng.Int(0, depts_ - 1);
    int threshold = rng.Int(1000, 9999);
    int count = 0;
    for (int e : staff_[d]) count += salary_[e] > threshold ? 1 : 0;
    op.goal = "findall(E, (staff(" + std::to_string(d) +
              ", E), salary(E, S), S > " + std::to_string(threshold) +
              "), L), length(L, N)";
    op.var = "N";
    op.expected = {std::to_string(count)};
    return op;
  }

  void Describe(Report* report) const {
    report->params["departments"] = std::to_string(depts_);
    report->params["employees"] = std::to_string(employees_);
    report->params["nrev_share"] = std::to_string(kNrevShare);
    report->params["nrev_lengths"] =
        std::to_string(kMinList) + ".." + std::to_string(kMaxList);
    report->params["update_every"] = std::to_string(kUpdateEvery);
    report->params["update_rows"] =
        "1 (every 16th update: " + std::to_string(kBatchRows) + ")";
  }

 private:
  static constexpr int kUpdateEvery = 8;
  static constexpr int kBatchRows = 8;
  static constexpr double kNrevShare = 0.3;
  static constexpr int kMinList = 20;
  static constexpr int kMaxList = 60;

  std::string program_;
  int depts_ = 0;
  int employees_ = 0;
  std::vector<int> dept_of_;
  std::vector<int> initial_salary_;
  std::vector<int> salary_;
  std::vector<std::vector<int>> staff_;
  long counter_ = 0;
};

// --- the session loop --------------------------------------------------------

// Deterministic counters of one engine, read before and after an operation.
struct Counters {
  xsb::MachineStats machine;
  xsb::Evaluator::EvalStats eval;
  TableCounts tables;

  static Counters Read(xsb::Engine& engine) {
    return {engine.machine().stats(), engine.evaluator().stats(),
            TableCounts::Read(engine.evaluator().tables())};
  }
};

// Adds the counter deltas of one traced query.
void AddQueryCounters(const Counters& before, const Counters& after,
                      LayerSamples* layers) {
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  layers->Add("engine.user_calls",
              d(before.machine.user_calls, after.machine.user_calls));
  layers->Add("engine.builtin_calls",
              d(before.machine.builtin_calls, after.machine.builtin_calls));
  layers->Add("engine.head_unifications",
              d(before.machine.head_unifications,
                after.machine.head_unifications));
  layers->Add("engine.choice_points",
              d(before.machine.choice_points, after.machine.choice_points));
  layers->Add("tabling.batches", d(before.eval.batches, after.eval.batches));
  layers->Add("tabling.generator_episodes",
              d(before.eval.generator_episodes, after.eval.generator_episodes));
  AddTableCounters(before.tables, after.tables, 1, layers);
}

bool Matches(const EngineOp& op, const std::vector<xsb::Answer>& answers) {
  std::vector<std::string> got;
  got.reserve(answers.size());
  for (const xsb::Answer& a : answers) got.push_back(a[op.var]);
  std::sort(got.begin(), got.end());
  return got == op.expected;
}

void RunSessions(EngineWorkload& workload, const RunConfig& config,
                 Tracer* tracer, Report* report) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  long per_session =
      config.fixed_ops > 0 ? config.fixed_ops : workload.ops_per_session();
  uint64_t op_id = 0;
  std::vector<double> traced_query_ms, untraced_query_ms;
  long sessions = 0;
  while (sessions == 0 || (config.fixed_ops == 0 && Clock::now() < deadline)) {
    ++sessions;
    workload.StartSession();
    Rng rng = SessionRng(config.seed);
    auto engine = std::make_unique<xsb::Engine>();
    Clock::time_point t0 = Clock::now();
    xsb::Status consulted = [&] {
      ScopedSpan span(tracer, "db.consult", op_id);
      return engine->ConsultString(workload.program());
    }();
    double setup = Seconds(t0, Clock::now());
    report->setup_s.push_back(setup);
    ++report->attempted;
    if (!consulted.ok()) {
      ++report->failed;
      return;
    }
    ReplayContext replay{&engine->store(), &engine->program(),
                         &engine->evaluator().tables(), op_id, -1, tracer,
                         &report->layers};
    if (tracer->enabled()) {
      report->layers.Add("db.consult_ms", setup * 1e3);
      ReplayProgramParse(replay, workload.program());
      Clock::time_point a = Clock::now();
      {
        ScopedSpan span(tracer, "analysis.analyze", op_id);
        engine->Analyze();
      }
      report->layers.Add("analysis.analyze_ms", Seconds(a, Clock::now()) * 1e3);
      report->layers.Add("db.clauses", CountClauses(engine->program()));
    }
    ++op_id;

    long updates = 0;
    // Intern probes of traced queries only: the replays probe too.
    uint64_t intern_hits = 0, intern_misses = 0;
    Counters session_start = Counters::Read(*engine);
    Clock::time_point loop_start = Clock::now();
    for (long i = 0; i < per_session; ++i) {
      if (config.fixed_ops == 0 && Clock::now() >= deadline) break;
      EngineOp op = workload.Next(rng);
      ++report->attempted;
      ++op_id;
      if (op.kind == EngineOp::kAbolish) {
        ScopedSpan span(tracer, "tabling.abolish", op_id);
        Clock::time_point s = Clock::now();
        engine->AbolishAllTables();
        double ms = Seconds(s, Clock::now()) * 1e3;
        report->updates.Add(ms,
                            report->loop_s + Seconds(loop_start, Clock::now()));
        if (tracer->enabled()) report->layers.Add("tabling.abolish_ms", ms);
        ++updates;
        continue;
      }
      if (op.kind == EngineOp::kUpdate) {
        ScopedSpan span(tracer, "xsb.update", op_id);
        Clock::time_point s = Clock::now();
        xsb::Result<bool> held = engine->Holds(op.goal);
        Clock::time_point e = Clock::now();
        report->updates.Add(Seconds(s, e) * 1e3,
                            report->loop_s + Seconds(loop_start, e));
        if (!held.ok() || !held.value()) ++report->failed;
        ++updates;
        continue;
      }
      // Every other traced query is timed without spans or counter reads,
      // so the run can state its own tracing overhead.
      bool traced = tracer->enabled() && report->queries.count() % 2 == 0;
      Counters before;
      if (traced) before = Counters::Read(*engine);
      int64_t root = traced ? tracer->Begin("xsb.query", op_id) : -1;
      Clock::time_point s = Clock::now();
      xsb::Result<std::vector<xsb::Answer>> answers = engine->FindAll(op.goal);
      Clock::time_point e = Clock::now();
      double ms = Seconds(s, e) * 1e3;
      tracer->End(root);
      report->queries.Add(ms, report->loop_s + Seconds(loop_start, e));
      bool ok = answers.ok() && Matches(op, answers.value());
      if (!ok) ++report->failed;
      if (tracer->enabled()) {
        (traced ? traced_query_ms : untraced_query_ms).push_back(ms);
      }
      if (traced && answers.ok()) {
        Counters after = Counters::Read(*engine);
        AddQueryCounters(before, after, &report->layers);
        intern_hits += after.tables.intern_hits - before.tables.intern_hits;
        intern_misses +=
            after.tables.intern_misses - before.tables.intern_misses;
        replay.op = op_id;
        replay.parent = root;
        ReplayGoal(replay, op.goal, /*published_only=*/false);
        ReplayBindings(replay, answers.value());
        AddTableSize(engine->evaluator().tables(), &report->layers);
      }
    }
    report->loop_s += Seconds(loop_start, Clock::now());
    if (tracer->enabled()) {
      Counters end = Counters::Read(*engine);
      report->layers.AddPer(
          "tabling.tables_invalidated",
          static_cast<double>(end.tables.invalidated -
                              session_start.tables.invalidated),
          static_cast<double>(updates));
      report->layers.AddPer(
          "tabling.tables_reevaluated",
          static_cast<double>(end.tables.reevaluated -
                              session_start.tables.reevaluated),
          static_cast<double>(updates));
      if (intern_hits + intern_misses > 0) {
        double hits = static_cast<double>(intern_hits);
        report->layers.Add(
            "term.intern_hit_ratio",
            hits / (hits + static_cast<double>(intern_misses)));
      }
    }
  }
  report->params["sessions"] = std::to_string(sessions);
  report->params["ops_per_session"] = std::to_string(per_session);
  if (tracer->enabled() && !untraced_query_ms.empty() &&
      !traced_query_ms.empty()) {
    report->layers.Add("trace.overhead_pct",
                       (Median(traced_query_ms) / Median(untraced_query_ms) -
                        1) * 100);
  }
}

}  // namespace

void RunClosureCold(const RunConfig& config, Tracer* tracer, Report* report) {
  Rng rng(config.seed);
  ClosureCold workload(rng, config.tiny);
  workload.Describe(report);
  RunSessions(workload, config, tracer, report);
}

void RunChartParse(const RunConfig& config, Tracer* tracer, Report* report) {
  Rng rng(config.seed);
  ChartParse workload(rng, config.tiny);
  workload.Describe(report);
  RunSessions(workload, config, tracer, report);
}

void RunSldProlog(const RunConfig& config, Tracer* tracer, Report* report) {
  Rng rng(config.seed);
  SldProlog workload(rng, config.tiny);
  workload.Describe(report);
  RunSessions(workload, config, tracer, report);
}

}  // namespace xsbperf
