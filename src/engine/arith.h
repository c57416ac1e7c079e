#ifndef XSB_ENGINE_ARITH_H_
#define XSB_ENGINE_ARITH_H_

#include <cstdint>

#include "base/status.h"
#include "term/store.h"

namespace xsb {

// Evaluates an integer arithmetic expression term: the one evaluator behind
// is/2 and the arithmetic comparisons, on both the engine and the WAM
// emulator. Unbound operands are instantiation errors; unknown functions,
// non-numeric leaves and zero divisors are type errors.
Result<int64_t> EvalArith(const TermStore& store, Word expression);

}  // namespace xsb

#endif  // XSB_ENGINE_ARITH_H_
