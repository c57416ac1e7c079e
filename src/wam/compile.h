#ifndef XSB_WAM_COMPILE_H_
#define XSB_WAM_COMPILE_H_

#include <vector>

#include "base/status.h"
#include "db/program.h"
#include "term/store.h"
#include "wam/instr.h"

namespace xsb::wam {

struct CompileOptions {
  // Build first-argument dispatch (switch_on_term / switch_on_constant /
  // switch_on_structure). Off forces every multi-clause predicate onto a
  // try_me_else chain — the ablation baseline the property sweeps and the
  // bench decomposition compare against.
  bool index = true;
};

// Compiles `predicates` ({} = every predicate with clauses) of `program`
// into WAM code with two-level first-argument indexing (constant table,
// functor table, list fast path) where every clause head keys on a
// constant or structure.
//
// Supported clause bodies: conjunctions of user predicate calls (which must
// themselves be compiled in the same module) and the arithmetic/unification
// builtins of BuiltinOp. Control constructs, negation, and tabled
// predicates stay on the interpreted engine (exactly the paper's split:
// WAM-speed for compiled code, SLG machinery above it).
Result<CompiledModule> CompileModule(TermStore* store, const Program& program,
                                     const std::vector<FunctorId>& predicates,
                                     const CompileOptions& options);
Result<CompiledModule> CompileModule(TermStore* store, const Program& program,
                                     const std::vector<FunctorId>& predicates);

}  // namespace xsb::wam

#endif  // XSB_WAM_COMPILE_H_
