#include "layers.h"

#include "parser/reader.h"
#include "parser/writer.h"
#include "term/flat.h"
#include "term/intern.h"

namespace xsbperf {
namespace {

double Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Drops whatever a replay built on the heap when the replay ends.
class HeapRestore {
 public:
  explicit HeapRestore(xsb::TermStore* store)
      : store_(store), mark_(store->HeapMark()) {}
  ~HeapRestore() { store_->TruncateHeap(mark_); }
  HeapRestore(const HeapRestore&) = delete;
  HeapRestore& operator=(const HeapRestore&) = delete;

 private:
  xsb::TermStore* store_;
  size_t mark_;
};

}  // namespace

void ReplayGoal(const ReplayContext& ctx, const std::string& goal,
                bool published_only) {
  xsb::TermStore& store = *ctx.store;
  HeapRestore restore(&store);
  Clock::time_point t0 = Clock::now();
  xsb::Result<xsb::Word> parsed = [&] {
    ScopedSpan span(ctx.tracer, "parser.parse_goal", ctx.op, ctx.parent);
    return xsb::ParseTermString(&store, ctx.program->ops(), goal);
  }();
  ctx.layers->Add("parser.goal_parse_us", Ns(t0, Clock::now()) / 1e3);
  if (!parsed.ok()) return;

  t0 = Clock::now();
  xsb::SubgoalId id = [&] {
    ScopedSpan span(ctx.tracer, "tabling.probe", ctx.op, ctx.parent);
    return ctx.tables->Lookup(store, parsed.value());
  }();
  Clock::time_point t1 = Clock::now();
  if (id == xsb::kNoSubgoal) return;
  ctx.layers->Add("tabling.call_probe_us", Ns(t0, t1) / 1e3);
  const xsb::Subgoal& sg = ctx.tables->subgoal(id);
  if (published_only &&
      (sg.state_acquire() != xsb::SubgoalState::kComplete ||
       sg.invalid_acquire())) {
    return;
  }
  const xsb::AnswerTable* table = sg.table();
  if (table == nullptr || table->size() == 0) return;
  std::vector<xsb::FlatTerm> flats(table->size());
  t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "tabling.read_answers", ctx.op, ctx.parent);
    for (size_t i = 0; i < flats.size(); ++i) table->ReadAnswer(i, &flats[i]);
  }
  ctx.layers->Add("tabling.answer_read_ns",
                  Ns(t0, Clock::now()) / static_cast<double>(flats.size()));

  std::vector<xsb::Word> instances;
  instances.reserve(flats.size());
  for (const xsb::FlatTerm& f : flats) {
    instances.push_back(xsb::Unflatten(&store, f));
  }
  xsb::AnswerTable fresh(true, &ctx.tables->interns(), sg.call, sg.spec);
  t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "tabling.insert_replay", ctx.op, ctx.parent);
    for (xsb::Word w : instances) fresh.Insert(store, w, nullptr);
  }
  ctx.layers->Add("tabling.answer_insert_ns",
                  Ns(t0, Clock::now()) / static_cast<double>(instances.size()));
}

void ReplayBindings(const ReplayContext& ctx,
                    const std::vector<xsb::Answer>& answers) {
  xsb::TermStore& store = *ctx.store;
  HeapRestore restore(&store);
  std::vector<xsb::Word> terms;
  std::vector<xsb::FlatTerm> ground;
  for (const xsb::Answer& answer : answers) {
    for (const auto& binding : answer.bindings) {
      xsb::Result<xsb::Word> term =
          xsb::ParseTermString(&store, ctx.program->ops(), binding.second);
      if (!term.ok()) continue;
      terms.push_back(term.value());
      xsb::FlatTerm flat = xsb::Flatten(store, term.value());
      if (flat.ground()) ground.push_back(std::move(flat));
    }
  }
  if (!terms.empty()) {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(ctx.tracer, "parser.render", ctx.op, ctx.parent);
      for (xsb::Word t : terms) xsb::WriteTerm(store, *ctx.program->ops(), t);
    }
    ctx.layers->Add("parser.render_us", Ns(t0, Clock::now()) / 1e3 /
                                            static_cast<double>(terms.size()));
  }
  if (!ground.empty()) {
    // A fresh intern table: the replay measures inserting the bindings'
    // structure, not probing structure the engine already holds.
    xsb::InternTable interns(store.symbols());
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(ctx.tracer, "term.intern", ctx.op, ctx.parent);
      for (const xsb::FlatTerm& flat : ground) interns.Intern(flat);
    }
    ctx.layers->Add("term.intern_ns", Ns(t0, Clock::now()) /
                                          static_cast<double>(ground.size()));
  }
}

void ReplayProgramParse(const ReplayContext& ctx, const std::string& text) {
  // A scratch heap: the parsed clauses are dropped with it.
  xsb::TermStore scratch(ctx.store->symbols());
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(ctx.tracer, "parser.parse_program", ctx.op);
    xsb::Reader reader(&scratch, ctx.program->ops(), text,
                       ctx.program->hilog_atoms());
    while (!reader.AtEof()) {
      if (!reader.ReadClause().ok()) break;
    }
  }
  ctx.layers->Add("parser.program_parse_ms", Seconds(t0, Clock::now()) * 1e3);
}

TableCounts TableCounts::Read(const xsb::TableSpace& tables) {
  const xsb::TableStats& t = tables.stats();
  TableCounts c;
  c.subgoals = t.subgoals_created.load();
  c.answers = t.answers_inserted.load();
  c.duplicates = t.duplicate_answers.load();
  c.suspensions = t.consumer_suspensions.load();
  c.resumptions = t.consumer_resumptions.load();
  c.invalidated = t.tables_invalidated.load();
  c.reevaluated = t.tables_reevaluated.load();
  c.intern_hits = tables.interns().hits();
  c.intern_misses = tables.interns().misses();
  return c;
}

void AddTableCounters(const TableCounts& before, const TableCounts& after,
                      double queries, LayerSamples* layers) {
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  double answers = d(before.answers, after.answers);
  double duplicates = d(before.duplicates, after.duplicates);
  double resumptions = d(before.resumptions, after.resumptions);
  layers->AddPer("tabling.subgoals_created", d(before.subgoals, after.subgoals),
                 queries);
  layers->AddPer("tabling.answers_inserted", answers, queries);
  layers->AddPer("tabling.duplicate_answers", duplicates, queries);
  layers->AddPer("tabling.consumer_suspensions",
                 d(before.suspensions, after.suspensions), queries);
  layers->AddPer("tabling.consumer_resumptions", resumptions, queries);
  layers->AddPer("tabling.answer_useful_ratio", answers, answers + duplicates);
  layers->AddPer("tabling.resumptions_per_answer", resumptions, answers);
}

void AddTableSize(const xsb::TableSpace& tables, LayerSamples* layers) {
  layers->Add("tabling.table_bytes", static_cast<double>(tables.table_bytes()));
  layers->Add("tabling.answer_trie_nodes",
              static_cast<double>(tables.total_trie_nodes()));
  layers->Add("tabling.call_trie_nodes",
              static_cast<double>(tables.call_trie_nodes()));
  layers->Add("term.interned_terms",
              static_cast<double>(tables.interns().num_terms()));
}

double CountClauses(const xsb::Program& program) {
  size_t clauses = 0;
  for (const auto& entry : program.predicates()) {
    clauses += entry.second->num_live_clauses();
  }
  return static_cast<double>(clauses);
}

}  // namespace xsbperf
