#ifndef OOCQ_REPLICATE_ROLE_H_
#define OOCQ_REPLICATE_ROLE_H_

/// The replication role machine (docs/replication.md#terms-and-fencing):
/// the one place the term rule lives. A follower replaying the primary's
/// WAL answers reads byte-identically only while there is one writer,
/// which the rule guarantees: terms never decrease; a writer that
/// observes a higher term adopts it and fences in one step; anything
/// stamped with a lower term is refused; a tied demotion fences only when
/// it names the successor; the winner among writers is max by (term,
/// address). StepRole and PlanFleet are pure; their drivers (OocqService,
/// the SUBSCRIBE handshake, Follower, oocq_route's prober) own sockets,
/// threads, failpoints and the TERM file.

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace oocq::replicate {

/// A node's replication role.
struct Role {
  bool writable = false;  // a primary: client mutations are accepted
  bool fenced = false;    // stepped down after observing a higher term
  uint64_t term = 1;      // the write-authority generation

  bool operator==(const Role&) const = default;
};

enum class RoleEventKind {
  kPromote,         // REPL PROMOTE, or an operator
  kDemote,          // REPL DEMOTE <term> [primary=HOST:PORT]
  kShippedRecord,   // a replicated record stamped with its shipper's term
  kSubscriberTerm,  // the term a REPL SUBSCRIBE to this node carries
  kPrimaryTerm,     // the term on the followed primary's reply
  kPrimarySilent,   // the followed primary has been unreachable a while
};

/// One input to the machine. A zero `term` means "unstamped" (local
/// replay, a pre-term peer) and never moves or refuses anything.
struct RoleEvent {
  RoleEventKind kind = RoleEventKind::kPromote;
  uint64_t term = 0;
  std::string successor = {};     // kDemote: "HOST:PORT" to follow, or ""
  uint64_t silent_ms = 0;         // kPrimarySilent: 0 = never reached it
  uint64_t promote_after_ms = 0;  // kPrimarySilent: 0 = never self-promote
};

enum class RoleAction {
  kNone,     // nothing changes
  kRefuse,   // the event is refused with `refusal`; nothing changes
  kAdopt,    // a read-only node moves up to the higher next.term
  kPromote,  // the node becomes writable under a fresh next.term
  kFence,    // a writable node steps down at next.term; follow `follow`
};

/// What one event does to one role. kNone and kRefuse leave `next` equal
/// to the input role; every other action changes it, and the driver
/// writes `persist_term` (when nonzero) before publishing `next`. A
/// driver whose failpoint or TERM write fails applies nothing.
struct RoleStep {
  Role next;
  uint64_t persist_term = 0;
  RoleAction action = RoleAction::kNone;
  Status refusal = Status::Ok();  // kRefuse only
  std::string follow = {};  // kFence only: the successor, "" when none named
};

/// The machine's one transition function.
RoleStep StepRole(const Role& role, const RoleEvent& event);

/// Whether the TERM file may move from `persisted` to `next`: terms only
/// ratchet forward (a rollback would let a fenced primary re-acquire
/// write authority it already lost).
bool TermMayMove(uint64_t persisted, uint64_t next);

/// One probed backend, parsed from its HEALTH fields line.
struct PeerStatus {
  std::string address;       // "host:port" as probed
  bool reachable = false;    // dialed and answered HEALTH
  std::string role;          // "primary" | "follower" | "" (unreachable)
  bool readonly = true;
  bool fenced = false;
  uint64_t term = 0;
  bool repl_connected = false;  // follower: stream to its primary is up
  uint64_t lag_records = 0;     // follower: records behind its primary
};

/// The decision of one probe sweep.
struct FleetPlan {
  /// The single mutation target of a replicated fleet: max by (term,
  /// address) over reachable writable primaries. Empty for a sharded
  /// fleet or when nothing writable is reachable.
  std::string winner;
  uint64_t winner_term = 0;
  /// Every other reachable writable primary of a replicated fleet: each
  /// is sent `REPL DEMOTE <winner_term> primary=<winner>`.
  std::vector<PeerStatus> to_fence;
  /// The hash ring's nodes: the winner alone, or in a sharded fleet every
  /// reachable writable backend.
  std::vector<std::string> writers;
  /// Caught-up followers (connected, not fenced, lag within bound) that
  /// may serve read-only verbs; empty unless `read_from_followers`.
  std::vector<std::string> read_pool;
};

/// Classifies a sweep. A fleet with any follower, any fenced node or any
/// term above 1 is replicated and routes all mutations to one winner;
/// all term-1 primaries is a sharded fleet served by every writer.
FleetPlan PlanFleet(const std::vector<PeerStatus>& peers,
                    bool read_from_followers, uint64_t max_follower_lag);

}  // namespace oocq::replicate

#endif  // OOCQ_REPLICATE_ROLE_H_
