// The replication role machine without processes (replicate/role.h):
// StepRole checked over every role, terms 1-3 and every event; seeded
// schedules of promote, demote, ship, subscribe, silence and sweep
// events over 3-5 in-memory nodes, with the term rule's invariants
// asserted after every step; and PlanFleet's routing and fencing cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "replicate/role.h"

namespace oocq::replicate {
namespace {

RoleEvent Promote() { return {RoleEventKind::kPromote}; }
RoleEvent Demote(uint64_t term, std::string successor) {
  return {RoleEventKind::kDemote, term, std::move(successor)};
}
RoleEvent Shipped(uint64_t term) {
  return {RoleEventKind::kShippedRecord, term};
}
RoleEvent Subscriber(uint64_t term) {
  return {RoleEventKind::kSubscriberTerm, term};
}
RoleEvent PrimaryReply(uint64_t term) {
  return {RoleEventKind::kPrimaryTerm, term};
}
RoleEvent Silent(uint64_t silent_ms, uint64_t promote_after_ms) {
  return {.kind = RoleEventKind::kPrimarySilent,
          .silent_ms = silent_ms,
          .promote_after_ms = promote_after_ms};
}

std::vector<Role> AllRoles() {
  std::vector<Role> roles;
  for (uint64_t term = 1; term <= 3; ++term) {
    roles.push_back(Role{true, false, term});   // primary
    roles.push_back(Role{false, false, term});  // follower
    roles.push_back(Role{false, true, term});   // fenced
  }
  return roles;
}

std::vector<RoleEvent> AllEvents() {
  std::vector<RoleEvent> events = {Promote()};
  for (uint64_t term = 0; term <= 4; ++term) {
    events.push_back(Demote(term, ""));
    events.push_back(Demote(term, "127.0.0.1:9"));
    events.push_back(Shipped(term));
    events.push_back(Subscriber(term));
    events.push_back(PrimaryReply(term));
  }
  for (uint64_t silent_ms : {0, 99, 100, 5000}) {
    for (uint64_t threshold : {0, 100}) {
      events.push_back(Silent(silent_ms, threshold));
    }
  }
  return events;
}

bool IsObservation(const RoleEvent& event) {
  return event.kind == RoleEventKind::kDemote ||
         event.kind == RoleEventKind::kShippedRecord ||
         event.kind == RoleEventKind::kSubscriberTerm;
}

TEST(RoleMachineTest, InvariantsHoldForEveryRoleAndEvent) {
  for (const Role& role : AllRoles()) {
    for (const RoleEvent& event : AllEvents()) {
      SCOPED_TRACE("role writable=" + std::to_string(role.writable) +
                   " fenced=" + std::to_string(role.fenced) +
                   " term=" + std::to_string(role.term) + " event kind=" +
                   std::to_string(static_cast<int>(event.kind)) +
                   " term=" + std::to_string(event.term) + " successor='" +
                   event.successor + "'");
      const RoleStep step = StepRole(role, event);
      // Terms never decrease, and any increase is persisted first.
      EXPECT_GE(step.next.term, role.term);
      EXPECT_EQ(step.persist_term,
                step.next.term > role.term ? step.next.term : 0u);
      EXPECT_FALSE(step.next.writable && step.next.fenced);
      switch (step.action) {
        case RoleAction::kNone:
        case RoleAction::kRefuse:
          // A refused (or empty) step changes nothing.
          EXPECT_EQ(step.next, role);
          EXPECT_EQ(step.action == RoleAction::kRefuse, !step.refusal.ok());
          break;
        case RoleAction::kAdopt:
          EXPECT_FALSE(role.writable);
          EXPECT_GT(step.next.term, role.term);
          EXPECT_EQ(step.next.fenced, role.fenced);
          break;
        case RoleAction::kPromote:
          EXPECT_FALSE(role.writable);
          EXPECT_EQ(step.next, (Role{true, false, role.term + 1}));
          break;
        case RoleAction::kFence:
          EXPECT_TRUE(role.writable);
          EXPECT_FALSE(step.next.writable);
          EXPECT_TRUE(step.next.fenced);
          break;
      }
      if (step.action != RoleAction::kRefuse) {
        EXPECT_TRUE(step.refusal.ok());
      }
      // A tied demotion without a successor never fences.
      if (event.kind == RoleEventKind::kDemote && event.term == role.term &&
          event.successor.empty()) {
        EXPECT_NE(step.action, RoleAction::kFence);
      }
      // A lower-term shipped record is always refused.
      if (event.kind == RoleEventKind::kShippedRecord && event.term != 0 &&
          event.term < role.term) {
        EXPECT_EQ(step.action, RoleAction::kRefuse);
      }
      // A writer that observes a higher term never stays writable.
      if (IsObservation(event) && event.term > role.term) {
        EXPECT_FALSE(step.next.writable);
        EXPECT_EQ(step.next.term, event.term);
      }
    }
  }
}

struct Case {
  Role role;
  RoleEvent event;
  RoleAction action;
  Role next;
};

TEST(RoleMachineTest, TransitionTable) {
  const Role primary2{true, false, 2};
  const Role follower2{false, false, 2};
  const Role fenced2{false, true, 2};
  const std::vector<Case> cases = {
      {primary2, Promote(), RoleAction::kNone, primary2},
      {follower2, Promote(), RoleAction::kPromote, {true, false, 3}},
      {fenced2, Promote(), RoleAction::kPromote, {true, false, 3}},
      {primary2, Demote(1, "a:1"), RoleAction::kRefuse, primary2},
      {primary2, Demote(2, ""), RoleAction::kRefuse, primary2},
      {primary2, Demote(2, "a:1"), RoleAction::kFence, fenced2},
      {primary2, Demote(3, ""), RoleAction::kFence, {false, true, 3}},
      {follower2, Demote(2, ""), RoleAction::kNone, follower2},
      {follower2, Demote(3, ""), RoleAction::kAdopt,
       {false, false, 3}},
      {fenced2, Demote(3, "a:1"), RoleAction::kAdopt,
       {false, true, 3}},
      {follower2, Shipped(0), RoleAction::kNone, follower2},
      {follower2, Shipped(1), RoleAction::kRefuse, follower2},
      {follower2, Shipped(2), RoleAction::kNone, follower2},
      {follower2, Shipped(3), RoleAction::kAdopt,
       {false, false, 3}},
      {primary2, Shipped(3), RoleAction::kFence,
       {false, true, 3}},
      {primary2, Subscriber(0), RoleAction::kNone, primary2},
      {primary2, Subscriber(1), RoleAction::kRefuse, primary2},
      {primary2, Subscriber(2), RoleAction::kNone, primary2},
      {primary2, Subscriber(3), RoleAction::kFence,
       {false, true, 3}},
      {follower2, Subscriber(3), RoleAction::kAdopt,
       {false, false, 3}},
      {follower2, PrimaryReply(0), RoleAction::kNone, follower2},
      {follower2, PrimaryReply(1), RoleAction::kRefuse, follower2},
      {follower2, PrimaryReply(3), RoleAction::kNone, follower2},
      {follower2, Silent(0, 100), RoleAction::kNone,
       follower2},
      {follower2, Silent(99, 100), RoleAction::kNone,
       follower2},
      {follower2, Silent(100, 100), RoleAction::kPromote,
       {true, false, 3}},
      {follower2, Silent(5000, 0), RoleAction::kNone,
       follower2},
      {primary2, Silent(5000, 100), RoleAction::kNone,
       primary2},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const RoleStep step = StepRole(cases[i].role, cases[i].event);
    EXPECT_EQ(step.action, cases[i].action);
    EXPECT_EQ(step.next, cases[i].next);
  }
  // The successor named by a demotion is what a fenced node follows.
  EXPECT_EQ(StepRole(primary2, Demote(2, "a:1")).follow, "a:1");
  // The refusals that reach the wire keep their exact text.
  EXPECT_EQ(StepRole(primary2, Demote(1, "")).refusal.ToString(),
            Status::FailedPrecondition(
                "stale term: demotion names term 1 but this node is at term 2")
                .ToString());
  EXPECT_EQ(StepRole(primary2, Demote(2, "")).refusal.ToString(),
            Status::FailedPrecondition(
                "refusing tied demotion at term 2 without a named successor")
                .ToString());
  EXPECT_EQ(
      StepRole(primary2, Subscriber(1)).refusal.ToString(),
      Status::FailedPrecondition(
          "stale subscriber term=1; this primary is at term 2; resync "
          "required")
          .ToString());
  // A stale primary's reply is Unavailable (back off), not
  // FAILED_PRECONDITION (which would resync from it again).
  EXPECT_EQ(StepRole(follower2, PrimaryReply(1)).refusal.code(),
            StatusCode::kUnavailable);
}

TEST(RoleMachineTest, TermFileOnlyRatchetsForward) {
  EXPECT_FALSE(TermMayMove(5, 3));
  EXPECT_TRUE(TermMayMove(5, 5));
  EXPECT_TRUE(TermMayMove(5, 6));
}

// ---- Seeded schedules ---------------------------------------------------

/// One in-memory node: a role and whether probes and peers reach it.
struct SimNode {
  std::string address;
  Role role;
  bool reachable = true;
};

class Fleet {
 public:
  Fleet(size_t nodes, std::mt19937_64* rng) : rng_(rng) {
    for (size_t i = 0; i < nodes; ++i) {
      SimNode node;
      node.address = "10.0.0." + std::to_string(i + 1) + ":7733";
      node.role = Role{i == 0, false, 1};
      nodes_.push_back(node);
    }
  }

  /// Runs one random event, then checks the invariants that hold after
  /// every step.
  void RandomStep() {
    const size_t i = Pick(nodes_.size());
    const size_t j = Pick(nodes_.size());
    switch (Pick(8)) {
      case 0:  // REPL PROMOTE on i
        Deliver(i, Promote());
        break;
      case 1:  // a writer j demotes i in its own favor
        if (nodes_[j].role.writable && i != j && Linked(i, j)) {
          Deliver(i, Demote(nodes_[j].role.term,
                                       nodes_[j].address));
        }
        break;
      case 2:  // the writer i ships a record to j
        if (nodes_[i].role.writable && i != j && Linked(i, j)) {
          const uint64_t shipped = nodes_[i].role.term;
          const uint64_t before = nodes_[j].role.term;
          const RoleStep step = Deliver(j, Shipped(shipped));
          if (shipped < before) {
            EXPECT_EQ(step.action, RoleAction::kRefuse)
                << "a lower-term record was accepted";
          }
        }
        break;
      case 3:  // j subscribes to i: handshake, then the reply's term
        if (i != j && Linked(i, j)) {
          const RoleStep handshake =
              Deliver(i, Subscriber(nodes_[j].role.term));
          if (handshake.action == RoleAction::kNone) {
            Deliver(j, PrimaryReply(nodes_[i].role.term));
          }
        }
        break;
      case 4:  // i's primary has gone silent for a while
        Deliver(i, Silent(Pick(3) * 100, 150));
        break;
      case 5:  // partition or heal i
        nodes_[i].reachable = !nodes_[i].reachable;
        break;
      case 6:  // a router that sees only part of the fleet sweeps
        Sweep(/*full=*/false);
        break;
      case 7:
        Sweep(/*full=*/true);
        break;
    }
    CheckAlwaysInvariants();
  }

  void HealAll() {
    for (SimNode& node : nodes_) node.reachable = true;
  }

  /// Probes, plans and fences like oocq_route's prober. A full sweep
  /// probes every node; a partial one a random subset.
  void Sweep(bool full) {
    std::vector<PeerStatus> peers;
    for (const SimNode& node : nodes_) {
      if (!full && Pick(2) == 0) continue;
      PeerStatus peer;
      peer.address = node.address;
      peer.reachable = node.reachable;
      if (node.reachable) {
        peer.role = node.role.writable ? "primary" : "follower";
        peer.readonly = !node.role.writable;
        peer.fenced = node.role.fenced;
        peer.term = node.role.term;
        peer.repl_connected = !node.role.writable;
      }
      peers.push_back(peer);
    }
    const FleetPlan plan = PlanFleet(peers, true, 0);
    for (const PeerStatus& loser : plan.to_fence) {
      const RoleStep step =
          Deliver(IndexOf(loser.address),
                  Demote(plan.winner_term, plan.winner));
      EXPECT_EQ(step.action, RoleAction::kFence)
          << "a planned fence was refused: " << step.refusal.ToString();
    }
    const bool all_reachable =
        full && std::all_of(nodes_.begin(), nodes_.end(),
                            [](const SimNode& n) { return n.reachable; });
    if (!all_reachable) return;
    // Exactly one writer, and it holds the highest term.
    size_t writers = 0;
    uint64_t max_term = 0, writer_term = 0;
    for (const SimNode& node : nodes_) {
      max_term = std::max(max_term, node.role.term);
      if (node.role.writable) {
        ++writers;
        writer_term = node.role.term;
      }
    }
    EXPECT_EQ(writers, 1u) << "after a full sweep";
    EXPECT_EQ(writer_term, max_term) << "after a full sweep";
    EXPECT_EQ(plan.writers.size(), 1u);
  }

  bool ok() const { return !::testing::Test::HasFailure(); }

 private:
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng_);
  }
  bool Linked(size_t a, size_t b) const {
    return nodes_[a].reachable && nodes_[b].reachable;
  }
  size_t IndexOf(const std::string& address) const {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].address == address) return i;
    }
    ADD_FAILURE() << "unknown address " << address;
    return 0;
  }

  /// Applies one event to node `i` the way OocqService::ApplyRoleEvent
  /// does, checking that its term never decreases.
  RoleStep Deliver(size_t i, const RoleEvent& event) {
    const Role before = nodes_[i].role;
    RoleStep step = StepRole(before, event);
    EXPECT_GE(step.next.term, before.term) << "a term decreased";
    if (step.action == RoleAction::kRefuse || step.action == RoleAction::kNone) {
      EXPECT_EQ(step.next, before) << "a refused step changed the role";
    }
    nodes_[i].role = step.next;
    return step;
  }

  /// Safety between sweeps: some writer always holds the highest term
  /// (a higher term only ever originates from a promotion, and a writer
  /// at the top term yields only to another writer at that term).
  void CheckAlwaysInvariants() {
    uint64_t max_term = 0, max_writer_term = 0;
    for (const SimNode& node : nodes_) {
      max_term = std::max(max_term, node.role.term);
      if (node.role.writable) {
        max_writer_term = std::max(max_writer_term, node.role.term);
      }
      EXPECT_FALSE(node.role.writable && node.role.fenced);
    }
    EXPECT_EQ(max_writer_term, max_term) << "no writer at the highest term";
  }

  std::mt19937_64* rng_;
  std::vector<SimNode> nodes_;
};

TEST(RoleMachineTest, SeededSchedulesConvergeToOneWriterAtTheTopTerm) {
  std::mt19937_64 rng(20261019);
  constexpr int kSchedules = 5000;
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    SCOPED_TRACE("schedule " + std::to_string(schedule));
    Fleet fleet(3 + schedule % 3, &rng);
    for (int step = 0; step < 24; ++step) fleet.RandomStep();
    // Every schedule ends healed and swept, so the convergence check
    // runs at least once per schedule.
    fleet.HealAll();
    fleet.Sweep(/*full=*/true);
    if (!fleet.ok()) break;  // one failing schedule is enough output
  }
}

// ---- PlanFleet ----------------------------------------------------------

PeerStatus Peer(const std::string& address, const std::string& role,
                uint64_t term) {
  PeerStatus peer;
  peer.address = address;
  peer.reachable = true;
  peer.role = role;
  peer.readonly = role != "primary";
  peer.term = term;
  return peer;
}

TEST(PlanFleetTest, ShardedFleetSpreadsOverEveryWriter) {
  const std::vector<PeerStatus> peers = {Peer("127.0.0.1:9002", "primary", 1),
                                         Peer("127.0.0.1:9001", "primary", 1),
                                         Peer("127.0.0.1:9003", "primary", 1)};
  const FleetPlan plan = PlanFleet(peers, true, 64);
  EXPECT_EQ(plan.winner, "");
  EXPECT_TRUE(plan.to_fence.empty());
  EXPECT_EQ(plan.writers, (std::vector<std::string>{
                              "127.0.0.1:9002", "127.0.0.1:9001",
                              "127.0.0.1:9003"}));
  EXPECT_TRUE(plan.read_pool.empty());
}

TEST(PlanFleetTest, ReplicatedFleetHasOneWriterOrderedByTermThenAddress) {
  std::vector<PeerStatus> peers = {
      Peer("127.0.0.1:9001", "primary", 2),
      Peer("127.0.0.1:9002", "primary", 2),   // tied term: address wins
      Peer("127.0.0.1:9009", "primary", 1),   // higher address, lower term
      Peer("127.0.0.1:9999", "follower", 9),  // highest term, not writable
  };
  FleetPlan plan = PlanFleet(peers, false, 64);
  EXPECT_EQ(plan.winner, "127.0.0.1:9002");
  EXPECT_EQ(plan.winner_term, 2u);
  EXPECT_EQ(plan.writers, (std::vector<std::string>{"127.0.0.1:9002"}));
  ASSERT_EQ(plan.to_fence.size(), 2u);
  EXPECT_EQ(plan.to_fence[0].address, "127.0.0.1:9001");
  EXPECT_EQ(plan.to_fence[1].address, "127.0.0.1:9009");

  peers[1].reachable = false;  // unreachable peers never win
  plan = PlanFleet(peers, false, 64);
  EXPECT_EQ(plan.winner, "127.0.0.1:9001");
  ASSERT_EQ(plan.to_fence.size(), 1u);
  EXPECT_EQ(plan.to_fence[0].address, "127.0.0.1:9009");

  plan = PlanFleet({}, false, 64);
  EXPECT_EQ(plan.winner, "");
  EXPECT_TRUE(plan.writers.empty());
}

TEST(PlanFleetTest, FencedNodeForcesTheReplicatedShape) {
  std::vector<PeerStatus> peers = {Peer("127.0.0.1:9001", "primary", 1),
                                   Peer("127.0.0.1:9002", "primary", 1),
                                   Peer("127.0.0.1:9003", "follower", 1)};
  peers[2].fenced = true;
  const FleetPlan plan = PlanFleet(peers, false, 64);
  EXPECT_EQ(plan.winner, "127.0.0.1:9002");
  EXPECT_EQ(plan.writers, (std::vector<std::string>{"127.0.0.1:9002"}));
  ASSERT_EQ(plan.to_fence.size(), 1u);
  EXPECT_EQ(plan.to_fence[0].address, "127.0.0.1:9001");
}

TEST(PlanFleetTest, ReadPoolHoldsOnlyCaughtUpConnectedFollowers) {
  std::vector<PeerStatus> peers = {Peer("127.0.0.1:9001", "primary", 2)};
  for (int i = 2; i <= 6; ++i) {
    PeerStatus follower =
        Peer("127.0.0.1:900" + std::to_string(i), "follower", 2);
    follower.repl_connected = true;
    follower.lag_records = 3;
    peers.push_back(follower);
  }
  peers[2].lag_records = 4;         // 9003: lags past the bound
  peers[3].repl_connected = false;  // 9004: stream down
  peers[4].fenced = true;           // 9005: fenced
  peers[5].reachable = false;       // 9006: unreachable
  FleetPlan plan = PlanFleet(peers, true, 3);
  EXPECT_EQ(plan.read_pool, (std::vector<std::string>{"127.0.0.1:9002"}));
  EXPECT_EQ(plan.winner, "127.0.0.1:9001");
  plan = PlanFleet(peers, false, 3);
  EXPECT_TRUE(plan.read_pool.empty());
}

TEST(PlanFleetTest, NothingWritableReachablePlansNothing) {
  std::vector<PeerStatus> peers = {Peer("127.0.0.1:9001", "primary", 3),
                                   Peer("127.0.0.1:9002", "follower", 3)};
  peers[0].reachable = false;
  const FleetPlan plan = PlanFleet(peers, false, 64);
  EXPECT_EQ(plan.winner, "");
  EXPECT_TRUE(plan.writers.empty());
  EXPECT_TRUE(plan.to_fence.empty());
}

}  // namespace
}  // namespace oocq::replicate
