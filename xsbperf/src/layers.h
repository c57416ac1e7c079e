// Per-layer measurements of a traced run. Counts come from the engine's own
// counters, read before and after the work. Times come from replays: after
// a query has been timed end to end, its goal and answers are pushed
// through single layers' public functions one call at a time, so each
// layer's cost is measured where the work happens. Replays run outside
// every end-to-end timing.
#ifndef XSBPERF_LAYERS_H_
#define XSBPERF_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "db/program.h"
#include "tabling/table_space.h"
#include "term/store.h"
#include "xsb/engine.h"

namespace xsbperf {

struct ReplayContext {
  xsb::TermStore* store;        // heap the replays build terms on
  xsb::Program* program;        // operator table and symbols
  xsb::TableSpace* tables;
  uint64_t op;                  // span grouping
  int64_t parent;
  Tracer* tracer;
  LayerSamples* layers;
};

// parser.goal_parse_us, then tabling.call_probe_us for the parsed goal,
// then over the probed table tabling.answer_read_ns and
// tabling.answer_insert_ns (every answer re-inserted into a fresh table).
// With `published_only` the table is read only when it is complete and
// valid: under a QueryService only such a table cannot be retired while
// the replay reads it, since the replaying client issues every update.
void ReplayGoal(const ReplayContext& ctx, const std::string& goal,
                bool published_only);

// parser.render_us and term.intern_ns over every answer binding.
void ReplayBindings(const ReplayContext& ctx,
                    const std::vector<xsb::Answer>& answers);

// parser.program_parse_ms: the program text through the reader alone.
void ReplayProgramParse(const ReplayContext& ctx, const std::string& text);

// Table-space event counters (TableStats and the intern store).
struct TableCounts {
  uint64_t subgoals = 0, answers = 0, duplicates = 0, suspensions = 0,
           resumptions = 0, invalidated = 0, reevaluated = 0;
  uint64_t intern_hits = 0, intern_misses = 0;
  static TableCounts Read(const xsb::TableSpace& tables);
};

// The tabling.* event metrics of the interval between two reads, with
// counts divided by `queries` (the per-query base).
void AddTableCounters(const TableCounts& before, const TableCounts& after,
                      double queries, LayerSamples* layers);

// tabling.table_bytes, answer/call trie nodes and term.interned_terms. The
// caller must hold every evaluation shard (see TableSpace::table_bytes).
void AddTableSize(const xsb::TableSpace& tables, LayerSamples* layers);

// db.clauses: live clauses of every predicate.
double CountClauses(const xsb::Program& program);

}  // namespace xsbperf

#endif  // XSBPERF_LAYERS_H_
