#ifndef XSB_TERM_FLAT_H_
#define XSB_TERM_FLAT_H_

#include <cstddef>
#include <vector>

#include "term/cell.h"
#include "term/store.h"

namespace xsb {

// A relocatable, heap-independent term image: the preorder stream of the
// term's cells, with variables renamed to kLocal(0), kLocal(1), ... in order
// of first occurrence. Struct cells are replaced by their functor cell
// followed by the flattened arguments, so the stream is self-describing.
//
// FlatTerms serve three roles, exactly as table space does in the SLG-WAM:
//   * clause templates in the clause database,
//   * canonical forms for tabled-subgoal variant checking,
//   * stored answers in answer tables.
//
// Two terms are variants iff their FlatTerms are element-wise equal.
struct FlatTerm {
  std::vector<Word> cells;
  uint32_t num_vars = 0;

  bool operator==(const FlatTerm& other) const {
    return cells == other.cells;
  }

  bool ground() const { return num_vars == 0; }
  size_t size() const { return cells.size(); }
};

// FNV-style hash over the cell stream.
struct FlatTermHash {
  size_t operator()(const FlatTerm& t) const {
    uint64_t h = 1469598103934665603ULL;
    for (Word w : t.cells) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Flattens the (possibly partially bound) heap term `t`.
FlatTerm Flatten(const TermStore& store, Word t);

// Flattens `t` into *out, reusing out's cell capacity (findall's per-instance
// scratch). Returns true when the existing capacity sufficed — i.e. the call
// performed no cell-vector allocation.
bool FlattenInto(const TermStore& store, Word t, FlatTerm* out);

// Appends the flattened form of `t` to *out, numbering variables by first
// occurrence across the whole stream being built: `var_cells` carries the
// heap addresses already assigned ordinals 0..var_cells->size()-1 and grows
// as new variables appear. Substitution factoring builds an answer's binding
// list as a sequence of such appends sharing one numbering.
void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells);

// Rebuilds `flat` on the heap with fresh variables. If `vars` is non-null it
// receives the fresh cell chosen for each local variable ordinal (resized by
// the call); passing the same vars vector to several Unflatten calls shares
// variables across them.
Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars = nullptr);

// Rebuilds the single subterm starting at stream position *pos of `flat`,
// advancing *pos past it. `vars` must already be sized to cover every kLocal
// ordinal in the segment. Used to unflatten a concatenation of stored
// segments (e.g. the binding list of a factored answer) one term at a time.
Word UnflattenNext(TermStore* store, const FlatTerm& flat, size_t* pos,
                   std::vector<Word>* vars);

// Unifies the single subterm starting at stream position *pos of `flat`
// with the heap term `goal` in place, advancing *pos past it: clause
// resolution matches a stored clause head this way instead of building the
// clause first. `vars` holds one slot per kLocal ordinal (0 = not seen yet)
// and may be shared with UnflattenNext calls that build the rest of the
// stream afterwards, such as the clause body. Per stream cell:
//   * a variable's first occurrence takes the goal subterm into its slot,
//     making no heap cell; a later occurrence unifies its slot with it;
//   * an atom or int is compared, or bound to an unbound goal variable;
//   * a functor descends into a goal struct of the same functor (read
//     mode), or is built with UnflattenNext and bound to an unbound goal
//     variable (write mode).
// `work` is scratch for the explicit stack. Returns false on mismatch; the
// bindings made so far stay trailed and *pos is unspecified, so the caller
// undoes to its own marks. Slot value 0 is RefCell(0), which TermStore
// never hands out, so every goal variable is a nonzero slot value.
bool MatchNext(TermStore* store, const FlatTerm& flat, size_t* pos, Word goal,
               std::vector<Word>* vars, std::vector<Word>* work);

// Reads the top functor of a flattened term without rebuilding it.
// Returns true and sets *functor if the term is a struct.
bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor);

}  // namespace xsb

#endif  // XSB_TERM_FLAT_H_
