#ifndef OOCQ_STATE_EVALUATION_H_
#define OOCQ_STATE_EVALUATION_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "state/state.h"
#include "support/cancellation.h"
#include "support/status.h"

namespace oocq::compile {
struct CompiledQuery;
}  // namespace oocq::compile

namespace oocq {

/// Guards and strategy knobs for the evaluator.
struct EvalOptions {
  uint64_t max_assignments = 100'000'000;
  /// Tree walker only: bind variables in ascending candidate-extent order
  /// (a greedy join order) instead of declaration order. Answers are
  /// identical; the bench_evaluation ablation measures the work saved.
  /// The VM always runs the compiler's plan.
  bool reorder_variables = true;
  /// Compile the query to bytecode and run the register VM
  /// (src/compile/) instead of the tree walker. Answers and status codes
  /// are identical (pinned by tests/compile_differential_test.cc); any
  /// unsupported construct falls back to the tree walker silently. An
  /// EvalStats sink is filled by whichever of the two ran; set this false
  /// to measure the tree walker itself.
  bool enable_compilation = true;
  /// Cooperative cancellation, polled at entry and every 4096 bindings by
  /// both the tree walker and the VM. Not owned; null disables polling.
  const CancellationToken* cancel = nullptr;
  /// Pre-compiled program for this exact query (e.g. from a session
  /// ProgramCache), sparing the per-call compile. Ignored when
  /// enable_compilation is false. Not owned.
  const compile::CompiledQuery* program = nullptr;
};

/// Work counters (bench E7 compares these between the original and the
/// minimized query — the "variable search space" the paper minimizes).
/// They describe the evaluator that actually ran: the VM's bindings and
/// pools on the compiled path, the tree walker's otherwise.
struct EvalStats {
  /// Candidate objects bound across all variables (backtracking
  /// extensions tried); the same unit as the `eval/assignments` counter.
  uint64_t assignments_tried = 0;
  /// Sum over variables of the candidate extent sizes (the static search
  /// space the paper's cost metric models).
  uint64_t candidate_pool = 0;
};

/// Evaluates a well-formed conjunctive query on a state under the paper's
/// 3-valued logic (DESIGN.md §3(3)):
///  - each variable ranges over the active-domain extent of its range
///    atom's class disjunction;
///  - an atom whose operand evaluates to Λ (or to an inapplicable
///    attribute) has truth value *unknown*;
///  - an assignment contributes its free-variable object iff every atom of
///    the matrix evaluates to *true*.
/// Returns the sorted, deduplicated answer set Q(s).
StatusOr<std::vector<Oid>> Evaluate(const State& state,
                                    const ConjunctiveQuery& query,
                                    const EvalOptions& options = {},
                                    EvalStats* stats = nullptr);

/// The union of the disjuncts' answers, sorted and deduplicated.
StatusOr<std::vector<Oid>> EvaluateUnion(const State& state,
                                         const UnionQuery& query,
                                         const EvalOptions& options = {},
                                         EvalStats* stats = nullptr);

}  // namespace oocq

#endif  // OOCQ_STATE_EVALUATION_H_
