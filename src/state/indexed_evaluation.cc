#include "state/indexed_evaluation.h"

#include <algorithm>
#include <optional>
#include <set>

#include "state/eval_internal.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

using eval_internal::EvalAtom;
using eval_internal::EvalObjectTerm;
using eval_internal::Truth;

std::vector<Oid> Intersect(const std::vector<Oid>& a,
                           const std::vector<Oid>& b) {
  std::vector<Oid> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// The index-nested-loop search state.
class IndexedSearch {
 public:
  IndexedSearch(const StateIndex& index, const ConjunctiveQuery& query,
                const EvalOptions& options, IndexedEvalStats* stats)
      : index_(index),
        state_(index.state()),
        query_(query),
        options_(options),
        stats_(stats),
        assignment_(query.num_vars(), kInvalidOid),
        bound_(query.num_vars(), false) {}

  StatusOr<std::vector<Oid>> Run() {
    // Initial pools from the range atoms (extent index).
    pools_.resize(query_.num_vars());
    for (VarId v = 0; v < query_.num_vars(); ++v) {
      const Atom* range = query_.RangeAtomOf(v);
      if (range == nullptr) {
        pools_[v].resize(state_.num_objects());
        for (Oid oid = 0; oid < state_.num_objects(); ++oid) {
          pools_[v][oid] = oid;
        }
        continue;
      }
      if (stats_ != nullptr) stats_->index_probes += range->classes().size();
      std::set<Oid> merged;
      for (ClassId c : range->classes()) {
        const std::vector<Oid>& extent = index_.Extent(c);
        merged.insert(extent.begin(), extent.end());
      }
      pools_[v].assign(merged.begin(), merged.end());
    }

    OOCQ_RETURN_IF_ERROR(Recurse(0));
    return std::vector<Oid>(answers_.begin(), answers_.end());
  }

 private:
  /// True when every variable of `atom` is bound.
  bool FullyBound(const Atom& atom) const {
    switch (atom.kind()) {
      case AtomKind::kRange:
      case AtomKind::kNonRange:
        return bound_[atom.var()];
      default:
        return bound_[atom.lhs().var] && bound_[atom.rhs().var];
    }
  }

  /// Candidates for unbound variable v under the current partial
  /// assignment: the range pool intersected with every index restriction
  /// an atom connecting v to bound variables provides.
  std::vector<Oid> CandidatesFor(VarId v) {
    std::vector<Oid> result = pools_[v];
    for (const Atom& atom : query_.atoms()) {
      if (result.empty()) break;
      switch (atom.kind()) {
        case AtomKind::kEquality: {
          const Term& lhs = atom.lhs();
          const Term& rhs = atom.rhs();
          for (const auto& [self, other] :
               {std::make_pair(lhs, rhs), std::make_pair(rhs, lhs)}) {
            if (self.var != v || bound_[self.var]) continue;
            if (other.var == v || !bound_[other.var]) continue;
            std::optional<Oid> value =
                EvalObjectTerm(state_, assignment_, other);
            if (!value.has_value()) return {};  // Atom would be unknown.
            if (self.is_attribute()) {
              // v.A = value: owners of slot A referencing value.
              if (stats_ != nullptr) ++stats_->index_probes;
              result = Intersect(result,
                                 index_.RefOwners(self.attr, *value));
            } else {
              // v = value.
              result = std::binary_search(result.begin(), result.end(),
                                          *value)
                           ? std::vector<Oid>{*value}
                           : std::vector<Oid>{};
            }
          }
          break;
        }
        case AtomKind::kMembership: {
          VarId element = atom.var();
          VarId owner = atom.set_term().var;
          if (element == v && !bound_[v] && owner != v && bound_[owner]) {
            const Value* value = state_.GetAttribute(
                assignment_[owner], atom.set_term().attr);
            if (value == nullptr || value->kind() != Value::Kind::kSet) {
              return {};
            }
            result = Intersect(result, value->set());
          } else if (owner == v && !bound_[v] && element != v &&
                     bound_[element]) {
            if (stats_ != nullptr) ++stats_->index_probes;
            result = Intersect(result,
                               index_.SetOwners(atom.set_term().attr,
                                                assignment_[element]));
          }
          break;
        }
        case AtomKind::kConstant: {
          if (atom.var() != v || bound_[v]) break;
          // The literal names exactly one object (if interned at all).
          const ConstantValue& value = atom.constant();
          Oid target = kInvalidOid;
          if (const int64_t* i = std::get_if<int64_t>(&value)) {
            target = state_.FindInternedInt(*i);
          } else if (const double* d = std::get_if<double>(&value)) {
            target = state_.FindInternedReal(*d);
          } else {
            target = state_.FindInternedString(std::get<std::string>(value));
          }
          if (stats_ != nullptr) ++stats_->index_probes;
          if (target == kInvalidOid ||
              !std::binary_search(result.begin(), result.end(), target)) {
            return {};
          }
          result = {target};
          break;
        }
        default:
          break;  // Negative atoms never narrow; they are verified.
      }
    }
    return result;
  }

  Status Recurse(size_t depth) {
    if (depth == query_.num_vars()) {
      answers_.insert(assignment_[query_.free_var()]);
      return Status::Ok();
    }
    // Pick the unbound variable with the fewest candidates right now.
    VarId best = kInvalidVarId;
    std::vector<Oid> best_candidates;
    for (VarId v = 0; v < query_.num_vars(); ++v) {
      if (bound_[v]) continue;
      std::vector<Oid> candidates = CandidatesFor(v);
      if (best == kInvalidVarId || candidates.size() < best_candidates.size()) {
        best = v;
        best_candidates = std::move(candidates);
        if (best_candidates.empty()) break;  // Dead branch.
      }
    }
    for (Oid candidate : best_candidates) {
      if (stats_ != nullptr) ++stats_->candidates_enumerated;
      if (++tried_ > options_.max_assignments) {
        return Status::ResourceExhausted(
            "indexed evaluation exceeded EvalOptions::max_assignments");
      }
      if (options_.cancel != nullptr && (tried_ & 4095) == 0) {
        OOCQ_RETURN_IF_ERROR(options_.cancel->Check());
      }
      assignment_[best] = candidate;
      bound_[best] = true;
      bool holds = true;
      for (const Atom& atom : query_.atoms()) {
        if (!FullyBound(atom)) continue;
        // Only re-check atoms involving the newly bound variable.
        bool involves_best = false;
        switch (atom.kind()) {
          case AtomKind::kRange:
          case AtomKind::kNonRange:
            involves_best = atom.var() == best;
            break;
          default:
            involves_best =
                atom.lhs().var == best || atom.rhs().var == best;
            break;
        }
        if (!involves_best) continue;
        if (EvalAtom(state_, assignment_, atom) != Truth::kTrue) {
          holds = false;
          break;
        }
      }
      if (holds) {
        OOCQ_RETURN_IF_ERROR(Recurse(depth + 1));
      }
      bound_[best] = false;
      assignment_[best] = kInvalidOid;
    }
    return Status::Ok();
  }

  const StateIndex& index_;
  const State& state_;
  const ConjunctiveQuery& query_;
  const EvalOptions& options_;
  IndexedEvalStats* stats_;

  std::vector<std::vector<Oid>> pools_;
  std::vector<Oid> assignment_;
  std::vector<char> bound_;
  std::set<Oid> answers_;
  uint64_t tried_ = 0;
};

}  // namespace

StatusOr<std::vector<Oid>> EvaluateIndexed(const StateIndex& index,
                                           const ConjunctiveQuery& query,
                                           const EvalOptions& options,
                                           IndexedEvalStats* stats) {
  if (options.cancel != nullptr) {
    OOCQ_RETURN_IF_ERROR(options.cancel->Check());
  }
  IndexedSearch search(index, query, options, stats);
  return search.Run();
}

StatusOr<std::vector<Oid>> EvaluateUnionIndexed(const StateIndex& index,
                                                const UnionQuery& query,
                                                const EvalOptions& options,
                                                IndexedEvalStats* stats) {
  std::set<Oid> answers;
  for (const ConjunctiveQuery& disjunct : query.disjuncts) {
    OOCQ_ASSIGN_OR_RETURN(std::vector<Oid> part,
                          EvaluateIndexed(index, disjunct, options, stats));
    answers.insert(part.begin(), part.end());
  }
  return std::vector<Oid>(answers.begin(), answers.end());
}

}  // namespace oocq
