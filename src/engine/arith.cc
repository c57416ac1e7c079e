#include "engine/arith.h"

#include <string>

namespace xsb {

Result<int64_t> EvalArith(const TermStore& store, Word expression) {
  Word e = store.Deref(expression);
  if (IsInt(e)) return IntValue(e);
  if (IsRef(e)) {
    return InstantiationError("arithmetic on an unbound variable");
  }
  const SymbolTable* symbols = store.symbols();
  if (IsStruct(e)) {
    FunctorId f = store.StructFunctor(e);
    const std::string& name = symbols->AtomName(symbols->FunctorAtom(f));
    int arity = symbols->FunctorArity(f);
    if (arity == 1) {
      Result<int64_t> a = EvalArith(store, store.Arg(e, 0));
      if (!a.ok()) return a;
      int64_t x = a.value();
      if (name == "-") return -x;
      if (name == "+") return x;
      if (name == "abs") return x < 0 ? -x : x;
      if (name == "sign") return x > 0 ? 1 : (x < 0 ? -1 : 0);
      if (name == "\\") return ~x;
      return TypeError("unknown arithmetic function " + name + "/1");
    }
    if (arity == 2) {
      Result<int64_t> a = EvalArith(store, store.Arg(e, 0));
      if (!a.ok()) return a;
      Result<int64_t> b = EvalArith(store, store.Arg(e, 1));
      if (!b.ok()) return b;
      int64_t x = a.value();
      int64_t y = b.value();
      if (name == "+") return x + y;
      if (name == "-") return x - y;
      if (name == "*") return x * y;
      if (name == "//" || name == "/") {
        if (y == 0) return TypeError("zero divisor");
        return x / y;
      }
      if (name == "mod") {
        if (y == 0) return TypeError("zero divisor");
        int64_t m = x % y;
        if (m != 0 && ((m < 0) != (y < 0))) m += y;
        return m;
      }
      if (name == "rem") {
        if (y == 0) return TypeError("zero divisor");
        return x % y;
      }
      if (name == "min") return x < y ? x : y;
      if (name == "max") return x > y ? x : y;
      if (name == ">>") return x >> y;
      if (name == "<<") return x << y;
      if (name == "/\\") return x & y;
      if (name == "\\/") return x | y;
      if (name == "xor") return x ^ y;
      if (name == "**" || name == "^") {
        // Square-and-multiply in unsigned (wrapping) arithmetic: the same
        // 64-bit value as multiplying x in y times, in O(log y) steps. A
        // negative exponent yields 1, the empty product.
        uint64_t base = static_cast<uint64_t>(x);
        uint64_t r = 1;
        for (int64_t n = y; n > 0; n >>= 1) {
          if ((n & 1) != 0) r *= base;
          base *= base;
        }
        return static_cast<int64_t>(r);
      }
      return TypeError("unknown arithmetic function " + name + "/2");
    }
  }
  return TypeError("bad arithmetic expression");
}

}  // namespace xsb
