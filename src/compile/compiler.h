#ifndef OOCQ_COMPILE_COMPILER_H_
#define OOCQ_COMPILE_COMPILER_H_

#include "compile/program.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq::compile {

/// Compiles a well-formed conjunctive query into a CompiledQuery whose
/// execution (vm.h) produces exactly the answers and status codes of the
/// tree-walking Evaluate(). Returns kFailedPrecondition for query shapes the
/// compiler does not cover — callers fall back to the tree walker; the
/// fallback is part of the contract, never an error surfaced to users.
/// The plan depends on the query alone: the same query compiles to the
/// same program whatever the process has executed before.
StatusOr<CompiledQuery> CompileQuery(const Schema& schema,
                                     const ConjunctiveQuery& query);

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_COMPILER_H_
