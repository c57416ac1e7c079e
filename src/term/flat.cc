#include "term/flat.h"

#include <unordered_map>

namespace xsb {

void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells) {
  // Variable numbering by first occurrence; terms rarely have more than a
  // handful of variables, so a linear scan beats a hash map here.
  // Preorder walk. The work stack holds cells still to emit; children are
  // pushed in reverse so they pop in order.
  std::vector<Word> work{t};
  while (!work.empty()) {
    Word x = store.Deref(work.back());
    work.pop_back();
    switch (TagOf(x)) {
      case Tag::kRef: {
        uint64_t cell = PayloadOf(x);
        uint32_t ordinal = static_cast<uint32_t>(var_cells->size());
        for (uint32_t i = 0; i < var_cells->size(); ++i) {
          if ((*var_cells)[i] == cell) {
            ordinal = i;
            break;
          }
        }
        if (ordinal == var_cells->size()) var_cells->push_back(cell);
        out->push_back(LocalCell(ordinal));
        break;
      }
      case Tag::kAtom:
      case Tag::kInt:
        out->push_back(x);
        break;
      case Tag::kStruct: {
        FunctorId f = store.StructFunctor(x);
        out->push_back(FunctorCell(f));
        int arity = store.symbols()->FunctorArity(f);
        for (int i = arity - 1; i >= 0; --i) work.push_back(store.Arg(x, i));
        break;
      }
      default:
        // kFunctor / kLocal never appear as heap terms.
        out->push_back(x);
        break;
    }
  }
}

FlatTerm Flatten(const TermStore& store, Word t) {
  FlatTerm out;
  std::vector<uint64_t> var_cells;
  FlattenAppend(store, t, &out.cells, &var_cells);
  out.num_vars = static_cast<uint32_t>(var_cells.size());
  return out;
}

bool FlattenInto(const TermStore& store, Word t, FlatTerm* out) {
  size_t cap_before = out->cells.capacity();
  out->cells.clear();
  std::vector<uint64_t> var_cells;
  FlattenAppend(store, t, &out->cells, &var_cells);
  out->num_vars = static_cast<uint32_t>(var_cells.size());
  return out->cells.capacity() == cap_before;
}

namespace {

// Rebuilds the subterm starting at stream position *pos; advances *pos.
Word UnflattenAt(TermStore* store, const FlatTerm& flat, size_t* pos,
                 std::vector<Word>* vars) {
  Word w = flat.cells[(*pos)++];
  switch (TagOf(w)) {
    case Tag::kLocal: {
      uint64_t ord = PayloadOf(w);
      Word& slot = (*vars)[ord];
      if (slot == 0) slot = store->MakeVar();
      return slot;
    }
    case Tag::kAtom:
    case Tag::kInt:
      return w;
    case Tag::kFunctor: {
      FunctorId f = FunctorOf(w);
      int arity = store->symbols()->FunctorArity(f);
      // Allocate the struct block first so nested blocks land after it; the
      // args are patched as they are built.
      Word s = store->MakeStructUninit(f);
      for (int i = 0; i < arity; ++i) {
        Word a = UnflattenAt(store, flat, pos, vars);
        store->SetArg(s, i, a);
      }
      return s;
    }
    default:
      return w;  // malformed stream; callers control inputs
  }
}

}  // namespace

Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars) {
  std::vector<Word> local_vars;
  if (vars == nullptr) vars = &local_vars;
  if (vars->size() < flat.num_vars) vars->resize(flat.num_vars, 0);
  size_t pos = 0;
  return UnflattenAt(store, flat, &pos, vars);
}

Word UnflattenNext(TermStore* store, const FlatTerm& flat, size_t* pos,
                   std::vector<Word>* vars) {
  return UnflattenAt(store, flat, pos, vars);
}

bool MatchNext(TermStore* store, const FlatTerm& flat, size_t* pos, Word goal,
               std::vector<Word>* vars, std::vector<Word>* work) {
  // Goal subterms still to match. The stream is preorder and a struct's
  // arguments are pushed in reverse, so the top is always the goal subterm
  // of the next stream cell; a right-nested term (a list) keeps the stack
  // at two entries.
  work->clear();
  work->push_back(goal);
  while (!work->empty()) {
    Word g = store->Deref(work->back());
    work->pop_back();
    Word w = flat.cells[*pos];
    switch (TagOf(w)) {
      case Tag::kLocal: {
        ++*pos;
        Word& slot = (*vars)[PayloadOf(w)];
        if (slot == 0) {
          slot = g;
        } else if (!store->Unify(slot, g)) {
          return false;
        }
        break;
      }
      case Tag::kFunctor: {
        if (IsRef(g)) {
          store->Bind(g, UnflattenAt(store, flat, pos, vars));
          break;
        }
        FunctorId f = FunctorOf(w);
        if (!IsStruct(g) || store->StructFunctor(g) != f) return false;
        ++*pos;
        for (int i = store->symbols()->FunctorArity(f) - 1; i >= 0; --i) {
          work->push_back(store->Arg(g, i));
        }
        break;
      }
      default:  // atom or int
        ++*pos;
        if (IsRef(g)) {
          store->Bind(g, w);
        } else if (g != w) {
          return false;
        }
        break;
    }
  }
  return true;
}

bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor) {
  if (flat.cells.empty() || !IsFunctor(flat.cells[0])) return false;
  *functor = FunctorOf(flat.cells[0]);
  return true;
}

}  // namespace xsb
