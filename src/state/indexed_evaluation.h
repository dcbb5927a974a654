#ifndef OOCQ_STATE_INDEXED_EVALUATION_H_
#define OOCQ_STATE_INDEXED_EVALUATION_H_

#include "query/query.h"
#include "state/evaluation.h"
#include "state/index.h"
#include "support/status.h"

namespace oocq {

/// Work counters for the indexed evaluator.
struct IndexedEvalStats {
  /// Candidate objects actually enumerated (post index restriction).
  uint64_t candidates_enumerated = 0;
  /// Index probes (ref/set/extent lookups) performed.
  uint64_t index_probes = 0;
};

/// Index-nested-loop evaluation: semantically identical to Evaluate()
/// (same 3-valued logic, same answers) but each variable's candidates are
/// restricted through the StateIndex by the atoms connecting it to
/// already-bound variables:
///
///   u = x.A   with x bound -> u candidates = { value of x.A }
///   u = x.A   with u bound -> x candidates = RefOwners(A, u)
///   u in x.A  with x bound -> u candidates = members of x.A
///   u in x.A  with u bound -> x candidates = SetOwners(A, u)
///   u = w     with w bound -> u candidates = { w }
///
/// Remaining atoms are verified exactly as in Evaluate(), so restriction
/// is purely an access-path optimization. Variables bind most-selective
/// first (greedy on the initial extent sizes, preferring variables with a
/// binding atom to a bound variable).
///
/// Always interpreted: EvalOptions::enable_compilation and
/// EvalOptions::program are ignored. It shares no code with the bytecode
/// VM, which makes it the compilation-off oracle for states too large
/// for the tree walker's extent product.
StatusOr<std::vector<Oid>> EvaluateIndexed(const StateIndex& index,
                                           const ConjunctiveQuery& query,
                                           const EvalOptions& options = {},
                                           IndexedEvalStats* stats = nullptr);

/// Union evaluation through the index.
StatusOr<std::vector<Oid>> EvaluateUnionIndexed(
    const StateIndex& index, const UnionQuery& query,
    const EvalOptions& options = {}, IndexedEvalStats* stats = nullptr);

}  // namespace oocq

#endif  // OOCQ_STATE_INDEXED_EVALUATION_H_
