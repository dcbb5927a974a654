#ifndef SERVICEBENCH_ORACLE_H_
#define SERVICEBENCH_ORACLE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/query.h"
#include "schema/schema.h"
#include "state/index.h"
#include "state/state.h"
#include "workload.h"

namespace servicebench {

/// Recomputes every reply from the library alone, with the containment
/// cache and query compilation both off: decisions take the interpreted
/// Thm 3.1 scan, EVAL an interpreted evaluator. It keeps its own copy of
/// the catalog (parsed from the workload's texts, not recovered from the
/// service's files) and applies DEFINE/STATE in request order.
class Oracle {
 public:
  /// What a correct reply looks like. MINIMIZE replies are compared by
  /// the canonical keys of the union's disjuncts, the rest byte for byte.
  struct Expectation {
    uint64_t hash = 0;
    bool canonical = false;
    std::string exact_field;        // canonical: "exact=0|1"
    std::vector<std::string> keys;  // canonical: sorted CanonicalKeys
    std::string text;               // the expected reply, for diagnostics
  };

  /// Throws std::runtime_error when a catalog text does not parse. The
  /// oracle must not move after construction (its state points at
  /// `schema_`).
  explicit Oracle(const CatalogPlan& plan);
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// The expectation for `request`, applying it first when it is a write.
  Expectation Expect(const Request& request);

  bool Matches(const Expectation& expected, uint64_t reply_hash,
               const std::string* reply_text) const;

 private:
  std::string Decide(const Request& request);
  Expectation ExpectMinimize(const Request& request);
  std::vector<std::string> UnionKeys(const std::string& union_text) const;

  oocq::Schema schema_;
  std::map<std::string, oocq::ConjunctiveQuery> named_;
  std::optional<oocq::State> state_;
  std::unique_ptr<oocq::StateIndex> index_;
  uint64_t state_version_ = 0;
  std::map<std::string, Expectation> memo_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_ORACLE_H_
