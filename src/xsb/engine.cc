#include "xsb/engine.h"

#include "db/objfile.h"
#include "hilog/hilog.h"
#include "parser/reader.h"
#include "parser/writer.h"

namespace xsb {

std::string Answer::operator[](std::string_view variable) const {
  for (const auto& [name, value] : bindings) {
    if (name == variable) return value;
  }
  return std::string();
}

std::string Answer::ToString() const {
  if (bindings.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += ", ";
    out += bindings[i].first + " = " + bindings[i].second;
  }
  return out;
}

Engine::Engine() : Engine(Options()) {}

Engine::Engine(Options options)
    : strict_analysis_(options.strict_analysis),
      symbols_(std::make_unique<SymbolTable>()),
      store_(std::make_unique<TermStore>(symbols_.get())),
      program_(std::make_unique<Program>(symbols_.get())),
      machine_(std::make_unique<Machine>(store_.get(), program_.get())) {
  Evaluator::Options eval_options;
  eval_options.answer_trie = options.answer_trie;
  eval_options.early_completion = options.early_completion;
  eval_options.incremental = options.incremental;
  evaluator_ = std::make_unique<Evaluator>(machine_.get(), eval_options);
}

Engine::~Engine() = default;

Status Engine::ConsultString(std::string_view text) {
  Loader loader(store_.get(), program_.get());
  loader.set_strict(strict_analysis_);
  return loader.ConsultString(text);
}

Status Engine::ConsultFile(const std::string& path) {
  Loader loader(store_.get(), program_.get());
  loader.set_strict(strict_analysis_);
  return loader.ConsultFile(path);
}

Result<size_t> Engine::LoadFactsFormattedFile(const std::string& path,
                                              const std::string& name,
                                              int arity) {
  Loader loader(store_.get(), program_.get());
  return loader.LoadFactsFormattedFile(path, name, arity);
}

Status Engine::SaveObjectFile(const std::string& path) {
  return xsb::SaveObjectFile(*program_, {}, path);
}

Result<size_t> Engine::LoadObjectFile(const std::string& path) {
  return xsb::LoadObjectFile(program_.get(), path);
}

Status Engine::SpecializeHiLog() {
  Result<hilog::SpecializeStats> stats =
      hilog::Specialize(store_.get(), program_.get());
  if (!stats.ok()) return stats.status();
  return Status::Ok();
}

Status Engine::ForEach(std::string_view goal,
                       const std::function<bool(const Answer&)>& on_answer) {
  std::string buffer(goal);
  buffer += " .";
  Reader reader(store_.get(), program_->ops(), buffer,
                program_->hilog_atoms());
  Result<Word> parsed = reader.ReadClause();
  if (!parsed.ok()) return parsed.status();
  std::vector<std::pair<std::string, Word>> names = reader.var_names();

  size_t trail = store_->TrailMark();
  size_t heap = store_->HeapMark();
  ++query_depth_;
  Status status = machine_->Solve(parsed.value(), [&]() {
    Answer answer;
    answer.bindings.reserve(names.size());
    for (const auto& [name, cell] : names) {
      answer.bindings.emplace_back(
          name, WriteTerm(*store_, *program_->ops(), cell));
    }
    return on_answer(answer) ? SolveAction::kContinue : SolveAction::kStop;
  });
  --query_depth_;
  store_->UndoTrail(trail);
  store_->TruncateHeap(heap);
  // Frozen answer snapshots (tables retired by updates or abolishes while a
  // cursor was open), the goal arena and clause/2's answer sources can only
  // be referenced by resolvents and choice points of some live query; once
  // the outermost query unwinds they are garbage.
  if (query_depth_ == 0) {
    evaluator_->tables().ReleaseRetiredAnswers();
    machine_->ResetArena();
  }
  return status;
}

Result<bool> Engine::Holds(std::string_view goal) {
  bool found = false;
  Status status = ForEach(goal, [&found](const Answer&) {
    found = true;
    return false;
  });
  if (!status.ok()) return status;
  return found;
}

Result<size_t> Engine::Count(std::string_view goal) {
  size_t count = 0;
  Status status = ForEach(goal, [&count](const Answer&) {
    ++count;
    return true;
  });
  if (!status.ok()) return status;
  return count;
}

Result<std::vector<Answer>> Engine::FindAll(std::string_view goal) {
  std::vector<Answer> answers;
  Status status = ForEach(goal, [&answers](const Answer& answer) {
    answers.push_back(answer);
    return true;
  });
  if (!status.ok()) return status;
  return answers;
}

void Engine::AbolishAllTables() {
  evaluator_->AbolishAllTables();
  if (query_depth_ == 0) evaluator_->tables().ReleaseRetiredAnswers();
}

analysis::AnalysisResult Engine::Analyze(
    const analysis::AnalyzeOptions& options) {
  analysis::AnalysisResult result = analysis::Analyze(*program_, options);
  analysis::PublishVerdict(program_.get(), result);
  analysis::PublishIncrementalDeps(program_.get(), result);
  analysis::PublishEvalShards(program_.get(), result);
  // Publishing an empty mode set would clear previously published modes,
  // so skip it when the caller disabled the pass.
  if (options.mode_pass) analysis::PublishModes(program_.get(), result);
  return result;
}

}  // namespace xsb
