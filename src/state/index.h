#ifndef OOCQ_STATE_INDEX_H_
#define OOCQ_STATE_INDEX_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "state/state.h"

namespace oocq {

/// Secondary indexes over one State snapshot, the access paths the
/// index-nested-loop evaluator (state/indexed_evaluation.h) drives:
///
///  - extents: read from the State's own extent table (State::Extent);
///  - ref index: (attribute, value oid) -> owners whose slot references
///    that value (supports `u = x.A` with u bound);
///  - set index: (attribute, element oid) -> owners whose set contains
///    the element (supports `u in x.A` with u bound).
///
/// Build once; the state must not be mutated afterwards.
class StateIndex {
 public:
  explicit StateIndex(const State& state);

  const State& state() const { return *state_; }

  /// Sorted extent of class `c`.
  std::vector<Oid> Extent(ClassId c) const { return state_->Extent(c); }

  /// Owners o with o.attr referencing `value` (sorted; empty if none).
  const std::vector<Oid>& RefOwners(std::string_view attr, Oid value) const;

  /// Owners o with `element` a member of o.attr (sorted; empty if none).
  const std::vector<Oid>& SetOwners(std::string_view attr, Oid element) const;

 private:
  const State* state_;
  std::map<std::pair<std::string, Oid>, std::vector<Oid>, std::less<>>
      ref_owners_;
  std::map<std::pair<std::string, Oid>, std::vector<Oid>, std::less<>>
      set_owners_;
  std::vector<Oid> empty_;
};

}  // namespace oocq

#endif  // OOCQ_STATE_INDEX_H_
