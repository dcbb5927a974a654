#include "replicate/role.h"

#include <utility>

namespace oocq::replicate {

namespace {

RoleStep Refuse(const Role& role, Status refusal) {
  return {role, 0, RoleAction::kRefuse, std::move(refusal)};
}

/// `role` learns that a primary at `term` (>= role.term) exists: a writer
/// fences in the same step that adopts the term, a reader only adopts it.
RoleStep Observe(const Role& role, uint64_t term, std::string successor) {
  const uint64_t persist = term > role.term ? term : 0;
  if (!role.writable) {
    return {{false, role.fenced, term}, persist, RoleAction::kAdopt};
  }
  return {{false, true, term}, persist, RoleAction::kFence, Status::Ok(),
          std::move(successor)};
}

}  // namespace

RoleStep StepRole(const Role& role, const RoleEvent& event) {
  const uint64_t term = event.term;
  // A zero term is unstamped: never ahead of, nor behind, the node's own.
  const bool ahead = term > role.term;
  const bool behind = term != 0 && term < role.term;
  // Rendered only for a refusal.
  auto theirs = [&] { return std::to_string(term); };
  auto ours = [&] { return std::to_string(role.term); };
  switch (event.kind) {
    case RoleEventKind::kPromote:
      // Idempotent: a primary stays put, so a retrying client converges.
      if (role.writable) return {role};
      return {{true, false, role.term + 1}, role.term + 1,
              RoleAction::kPromote};
    case RoleEventKind::kDemote:
      if (term < role.term) {
        return Refuse(role,
                      Status::FailedPrecondition(
                          "stale term: demotion names term " + theirs() +
                          " but this node is at term " + ours()));
      }
      if (!ahead && !role.writable) return {role};
      if (!ahead && event.successor.empty()) {
        // A tied demotion must name the winner: otherwise two dueling
        // primaries at the same term could demote each other and leave
        // no writer at all.
        return Refuse(role, Status::FailedPrecondition(
                                "refusing tied demotion at term " + ours() +
                                " without a named successor"));
      }
      return Observe(role, term, event.successor);
    case RoleEventKind::kShippedRecord:
      // The single-writer invariant's last line of defense: a record
      // shipped by a stale (pre-fence) primary never enters this WAL.
      if (behind) {
        return Refuse(role,
                      Status::FailedPrecondition(
                          "fenced record: shipped under term " + theirs() +
                          " but this node is at term " + ours()));
      }
      return ahead ? Observe(role, term, "") : RoleStep{role};
    case RoleEventKind::kSubscriberTerm:
      // A subscriber ahead of this node proves a newer primary was elected
      // while it was partitioned: fence before shipping a single frame of
      // the forked history.
      if (behind) {
        return Refuse(role, Status::FailedPrecondition(
                                "stale subscriber term=" + theirs() +
                                "; this primary is at term " + ours() +
                                "; resync required"));
      }
      return ahead ? Observe(role, term, "") : RoleStep{role};
    case RoleEventKind::kPrimaryTerm:
      // Never clone a forked history from a primary behind the authority
      // this node knows. Unavailable (back off), not FAILED_PRECONDITION
      // (which would resync from it again).
      if (!behind) return {role};
      return Refuse(role,
                    Status::Unavailable(
                        "primary is stale: it replied under term " + theirs() +
                        " but this node knows term " + ours()));
    case RoleEventKind::kPrimarySilent:
      if (event.promote_after_ms == 0 ||
          event.silent_ms < event.promote_after_ms) {
        return {role};
      }
      return StepRole(role, {RoleEventKind::kPromote});
  }
  return {role};
}

bool TermMayMove(uint64_t persisted, uint64_t next) {
  return next >= persisted;
}

FleetPlan PlanFleet(const std::vector<PeerStatus>& peers,
                    bool read_from_followers, uint64_t max_follower_lag) {
  FleetPlan plan;
  bool replicated = false;
  const PeerStatus* winner = nullptr;
  for (const PeerStatus& peer : peers) {
    if (!peer.reachable) continue;
    replicated |= peer.role == "follower" || peer.fenced || peer.term > 1;
    if (peer.readonly) continue;
    plan.writers.push_back(peer.address);
    // Higher term always wins; the address only breaks ties, so every
    // sweep instance computes the same winner from the same probes.
    if (winner == nullptr || peer.term > winner->term ||
        (peer.term == winner->term && peer.address > winner->address)) {
      winner = &peer;
    }
  }
  if (replicated && winner != nullptr) {
    plan.winner = winner->address;
    plan.winner_term = winner->term;
    plan.writers = {winner->address};
    for (const PeerStatus& peer : peers) {
      if (peer.reachable && !peer.readonly && &peer != winner) {
        plan.to_fence.push_back(peer);
      }
    }
  }
  if (read_from_followers) {
    for (const PeerStatus& peer : peers) {
      if (peer.reachable && peer.role == "follower" && !peer.fenced &&
          peer.repl_connected && peer.lag_records <= max_follower_lag) {
        plan.read_pool.push_back(peer.address);
      }
    }
  }
  return plan;
}

}  // namespace oocq::replicate
