#include "state/index.h"

#include <algorithm>

namespace oocq {

StateIndex::StateIndex(const State& state) : state_(&state) {
  const Schema& schema = state.schema();
  for (Oid oid = 0; oid < state.num_objects(); ++oid) {
    ClassId terminal = state.class_of(oid);
    const ClassInfo& info = schema.class_info(terminal);
    for (const AttributeDef& attr : info.all_attributes) {
      const Value* value = state.GetAttribute(oid, attr.name);
      if (value == nullptr) continue;
      if (value->kind() == Value::Kind::kRef) {
        ref_owners_[{attr.name, value->ref()}].push_back(oid);
      } else if (value->kind() == Value::Kind::kSet) {
        for (Oid member : value->set()) {
          set_owners_[{attr.name, member}].push_back(oid);
        }
      }
    }
  }
  // Oids are visited in ascending order, so all postings are sorted.
}

const std::vector<Oid>& StateIndex::RefOwners(std::string_view attr,
                                              Oid value) const {
  auto it = ref_owners_.find(std::make_pair(std::string(attr), value));
  return it == ref_owners_.end() ? empty_ : it->second;
}

const std::vector<Oid>& StateIndex::SetOwners(std::string_view attr,
                                              Oid element) const {
  auto it = set_owners_.find(std::make_pair(std::string(attr), element));
  return it == set_owners_.end() ? empty_ : it->second;
}

}  // namespace oocq
