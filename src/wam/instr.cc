#include "wam/instr.h"

namespace xsb::wam {
namespace {

std::string RegName(uint32_t reg) {
  return (IsYReg(reg) ? "Y" : "X") + std::to_string(RegIndex(reg));
}

}  // namespace

std::string CompiledModule::Disassemble(const SymbolTable& symbols) const {
  auto functor_name = [&](uint32_t f) {
    return symbols.AtomName(symbols.FunctorAtom(f)) + "/" +
           std::to_string(symbols.FunctorArity(f));
  };
  auto constant_name = [&](uint32_t ix) {
    Word w = constants[ix];
    if (IsInt(w)) return std::to_string(IntValue(w));
    if (IsAtom(w)) return symbols.AtomName(AtomOf(w));
    return std::string("?");
  };

  std::string out;
  std::unordered_map<size_t, FunctorId> entry_at;
  for (const auto& [functor, pc] : entries) entry_at[pc] = functor;

  for (size_t pc = 0; pc < code.size(); ++pc) {
    auto it = entry_at.find(pc);
    if (it != entry_at.end()) {
      out += functor_name(it->second) + ":\n";
    }
    const Instr& i = code[pc];
    char line[128];
    auto emit = [&](const std::string& text) {
      std::snprintf(line, sizeof(line), "%5zu  %s\n", pc, text.c_str());
      out += line;
    };
    switch (i.op) {
      case Op::kGetVariable:
        emit("get_variable " + RegName(i.a) + ", A" + std::to_string(i.b));
        break;
      case Op::kGetValue:
        emit("get_value " + RegName(i.a) + ", A" + std::to_string(i.b));
        break;
      case Op::kGetConstant:
        emit("get_constant " + constant_name(i.a) + ", A" +
             std::to_string(i.b));
        break;
      case Op::kGetStructure:
        emit("get_structure " + functor_name(i.a) + ", A" +
             std::to_string(i.b));
        break;
      case Op::kUnifyVariable:
        emit("unify_variable " + RegName(i.a));
        break;
      case Op::kUnifyValue:
        emit("unify_value " + RegName(i.a));
        break;
      case Op::kUnifyConstant:
        emit("unify_constant " + constant_name(i.a));
        break;
      case Op::kUnifyVoid:
        emit("unify_void " + std::to_string(i.a));
        break;
      case Op::kPutVariable:
        emit("put_variable " + RegName(i.a) + ", A" + std::to_string(i.b));
        break;
      case Op::kPutValue:
        emit("put_value " + RegName(i.a) + ", A" + std::to_string(i.b));
        break;
      case Op::kPutConstant:
        emit("put_constant " + constant_name(i.a) + ", A" +
             std::to_string(i.b));
        break;
      case Op::kPutStructure:
        emit("put_structure " + functor_name(i.a) + ", A" +
             std::to_string(i.b));
        break;
      case Op::kAllocate:
        emit("allocate " + std::to_string(i.a));
        break;
      case Op::kDeallocate:
        emit("deallocate");
        break;
      case Op::kCall:
        emit("call " + functor_name(i.b));
        break;
      case Op::kProceed:
        emit("proceed");
        break;
      case Op::kTryMeElse:
        emit("try_me_else " + std::to_string(i.a));
        break;
      case Op::kRetryMeElse:
        emit("retry_me_else " + std::to_string(i.a));
        break;
      case Op::kTrustMe:
        emit("trust_me");
        break;
      case Op::kSwitchOnTerm:
        emit("switch_on_term var=" + std::to_string(i.a) +
             " const=" + std::to_string(i.b) +
             " struct=" + std::to_string(i.c));
        break;
      case Op::kSwitchOnConstant:
        emit("switch_on_constant table#" + std::to_string(i.a));
        break;
      case Op::kTry:
        emit("try " + std::to_string(i.a));
        break;
      case Op::kRetry:
        emit("retry " + std::to_string(i.a));
        break;
      case Op::kTrust:
        emit("trust " + std::to_string(i.a));
        break;
      case Op::kBuiltin:
        emit("builtin #" + std::to_string(i.a) + "/" + std::to_string(i.b));
        break;
      case Op::kSolution:
        emit("solution");
        break;
      case Op::kHalt:
        emit("halt");
        break;
      case Op::kSwitchOnStructure:
        emit("switch_on_structure table#" + std::to_string(i.a) +
             " list=" + std::to_string(i.c));
        break;
    }
  }
  return out;
}

}  // namespace xsb::wam
