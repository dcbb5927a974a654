// Split-brain fencing end to end (docs/replication.md#fencing): the
// replication term is durable and ratchets forward; a primary that
// observes a higher term — via REPL DEMOTE, the SUBSCRIBE term
// handshake, or a shipped record — fences itself; and the dueling-
// promotion scenario (two followers both self-promote during a
// partition) converges to exactly one writable primary after the heal,
// with zero acked-write loss and the stale primary's post-partition
// writes expunged everywhere.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "persist/catalog.h"
#include "replicate/follower.h"
#include "replicate/peer.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using ::oocq::replicate::DialPeer;
using ::oocq::replicate::FieldUint;
using ::oocq::replicate::Follower;
using ::oocq::replicate::FollowerOptions;
using ::oocq::replicate::FenceStalePrimaries;
using ::oocq::replicate::FleetPlan;
using ::oocq::replicate::PeerStatus;
using ::oocq::replicate::PlanFleet;
using ::oocq::replicate::ProbePeer;
using ::oocq::replicate::ReadWireReply;
using ::oocq::replicate::Rejoiner;
using ::oocq::replicate::SendAll;
using ::oocq::replicate::WireReply;
using ::oocq::testing::kVehicleRentalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_fencing_" + name;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

std::shared_ptr<persist::DurableCatalog> OpenCatalog(const std::string& dir) {
  persist::DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;
  StatusOr<std::unique_ptr<persist::DurableCatalog>> opened =
      persist::DurableCatalog::Open(options);
  OOCQ_EXPECT_OK(opened.status());
  return opened.ok() ? std::shared_ptr<persist::DurableCatalog>(
                           *std::move(opened))
                     : nullptr;
}

bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

Request ContainNamed(const std::string& sid, const std::string& name) {
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = "@" + name;
  request.query2 = "{ x | x in Vehicle }";
  return request;
}

// ---- Term durability --------------------------------------------------

TEST(ReplTermTest, TermPersistsAcrossReopenAndNeverMovesBackwards) {
  std::string dir = FreshDir("term");
  {
    std::shared_ptr<persist::DurableCatalog> catalog = OpenCatalog(dir);
    ASSERT_NE(catalog, nullptr);
    EXPECT_EQ(catalog->term(), 1u);  // fresh catalogs start at term 1
    OOCQ_EXPECT_OK(catalog->SetTerm(5));
    OOCQ_EXPECT_OK(catalog->SetTerm(5));  // idempotent
    // Terms only ratchet forward — a rollback would let a fenced
    // primary re-acquire write authority it already lost.
    EXPECT_EQ(catalog->SetTerm(3).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(catalog->term(), 5u);
  }
  {
    std::shared_ptr<persist::DurableCatalog> catalog = OpenCatalog(dir);
    ASSERT_NE(catalog, nullptr);
    EXPECT_EQ(catalog->term(), 5u);  // survived the restart
  }
  // A corrupt TERM file degrades to term 1 with a recovery note, same
  // contract as every other recovery problem (docs/persistence.md).
  OOCQ_EXPECT_OK(WriteFileDurable(dir + "/TERM", "not a number\n"));
  {
    std::shared_ptr<persist::DurableCatalog> catalog = OpenCatalog(dir);
    ASSERT_NE(catalog, nullptr);
    EXPECT_EQ(catalog->term(), 1u);
  }
}

// ---- Fencing at the service layer -------------------------------------

TEST(ReplFencingTest, DemoteFencesPrimaryAndRejectsLowerTermRecords) {
  std::string dir = FreshDir("demote");
  ServiceOptions options;
  options.catalog = OpenCatalog(dir);
  ASSERT_NE(options.catalog, nullptr);
  OocqService service(options);
  ASSERT_FALSE(service.read_only());
  EXPECT_EQ(service.term(), 1u);

  uint64_t handler_term = 0;
  std::string handler_primary;
  service.SetDemotionHandler(
      [&](uint64_t term, const std::string& new_primary) {
        handler_term = term;
        handler_primary = new_primary;
      });

  // A stale demotion is refused outright; a tied one must name the
  // winner (otherwise dueling primaries could demote each other and
  // leave no writer at all).
  EXPECT_EQ(service.Demote(1, "").code(), StatusCode::kFailedPrecondition);
  OOCQ_ASSERT_OK(service.Demote(2, "127.0.0.1:7799"));
  EXPECT_TRUE(service.fenced());
  EXPECT_TRUE(service.read_only());
  EXPECT_EQ(service.term(), 2u);
  EXPECT_EQ(options.catalog->term(), 2u);  // adopted durably
  EXPECT_EQ(handler_term, 2u);
  EXPECT_EQ(handler_primary, "127.0.0.1:7799");

  // Fenced mutations answer a routable FAILED_PRECONDITION naming the
  // term, not the generic readonly refusal.
  Status refused = service.CreateSession(kVehicleRentalSchema).status();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.ToString().find("fenced term=2"), std::string::npos);

  // Replicated records carry their shipper's term: lower than ours is a
  // forked history and must never enter this WAL.
  persist::Record record;
  record.type = persist::RecordType::kDropSession;
  record.session_id = "s0";
  EXPECT_EQ(service.ApplyReplicated(record, 1).code(),
            StatusCode::kFailedPrecondition);
  OOCQ_EXPECT_OK(service.ApplyReplicated(record, 2));  // current term is fine

  // Re-promotion claims a fresh, higher term and clears the fence (a
  // fenced node adopts a higher demotion term without a transition).
  OOCQ_ASSERT_OK(service.Demote(9, "127.0.0.1:7799"));
  EXPECT_EQ(service.term(), 9u);
  OOCQ_ASSERT_OK(service.Promote());
  EXPECT_FALSE(service.fenced());
  EXPECT_FALSE(service.read_only());
  EXPECT_EQ(service.term(), 10u);
  // A tied demotion that does name a successor fences a primary.
  OOCQ_ASSERT_OK(service.Demote(10, "127.0.0.1:7799"));
  EXPECT_TRUE(service.fenced());
}

TEST(ReplFencingTest, SubscribeTermHandshakeFencesStalePrimary) {
  // A healed stale primary fences itself the moment a follower that is
  // ahead of it polls it — no router or operator in the loop.
  std::string dir = FreshDir("handshake");
  ServiceOptions options;
  options.catalog = OpenCatalog(dir);
  ASSERT_NE(options.catalog, nullptr);
  OocqService service(options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(&service, transport_options);
  OOCQ_ASSERT_OK(transport.Start());

  int fd = DialPeer("127.0.0.1", transport.port(), 2000);
  ASSERT_GE(fd, 0);
  std::string buffer;
  WireReply reply;
  ASSERT_TRUE(SendAll(fd, "HELLO 1\n"));
  OOCQ_ASSERT_OK(ReadWireReply(fd, &buffer, &reply));
  EXPECT_NE(reply.status.find("fencing"), std::string::npos);  // caps
  EXPECT_EQ(FieldUint(reply.status, "term"), 1u);

  ASSERT_TRUE(SendAll(fd, "REPL SUBSCRIBE 1 0 wait_ms=0 term=7\n"));
  OOCQ_ASSERT_OK(ReadWireReply(fd, &buffer, &reply));
  EXPECT_EQ(reply.status.rfind("ERR FAILED_PRECONDITION", 0), 0u);
  EXPECT_NE(reply.status.find("fenced term=7"), std::string::npos);
  ASSERT_TRUE(Eventually([&] { return service.fenced(); }));
  EXPECT_EQ(service.term(), 7u);

  // The fence is visible to probes: HEALTH carries role/readonly/
  // fenced/term, which is exactly what the router's sweep reads.
  ASSERT_TRUE(SendAll(fd, "HEALTH\n"));
  OOCQ_ASSERT_OK(ReadWireReply(fd, &buffer, &reply));
  EXPECT_EQ(FieldUint(reply.status, "fenced"), 1u);
  EXPECT_EQ(FieldUint(reply.status, "term"), 7u);
  (void)SendAll(fd, "QUIT\n");
  ::close(fd);
  transport.Stop();
}

// ---- A failed fence changes nothing ----------------------------------

TEST(ReplFencingTest, FailedFenceLeavesRoleTermAndTermFileUnchanged) {
  Failpoints::Reset();
  std::string dir = FreshDir("failed_fence");
  ServiceOptions options;
  options.catalog = OpenCatalog(dir);
  ASSERT_NE(options.catalog, nullptr);
  OocqService service(options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(&service, transport_options);
  OOCQ_ASSERT_OK(transport.Start());
  int handler_calls = 0;
  service.SetDemotionHandler(
      [&](uint64_t, const std::string&) { ++handler_calls; });

  // Adopting the winner's term and fencing are one step: when the fence
  // fails, the node must not be left writable under the winner's term.
  OOCQ_ASSERT_OK(Failpoints::Configure("repl/fence=error"));
  EXPECT_FALSE(service.Demote(5, "127.0.0.1:9").ok());
  EXPECT_FALSE(service.read_only());
  EXPECT_FALSE(service.fenced());
  EXPECT_EQ(service.term(), 1u);
  EXPECT_EQ(options.catalog->term(), 1u);
  StatusOr<std::string> term_file = ReadFileToString(dir + "/TERM");
  EXPECT_TRUE(!term_file.ok() || *term_file == "1\n");
  EXPECT_EQ(handler_calls, 0);

  // The SUBSCRIBE handshake still refuses the subscriber, but it must not
  // claim a fence that did not happen.
  int fd = DialPeer("127.0.0.1", transport.port(), 2000);
  ASSERT_GE(fd, 0);
  std::string buffer;
  WireReply reply;
  ASSERT_TRUE(SendAll(fd, "REPL SUBSCRIBE 1 0 wait_ms=0 term=7\n"));
  OOCQ_ASSERT_OK(ReadWireReply(fd, &buffer, &reply));
  EXPECT_EQ(reply.status.rfind("ERR ", 0), 0u);
  EXPECT_EQ(reply.status.find("fenced"), std::string::npos) << reply.status;
  EXPECT_FALSE(service.read_only());
  EXPECT_EQ(service.term(), 1u);
  (void)SendAll(fd, "QUIT\n");
  ::close(fd);

  // Still a primary at its own term: writes are accepted.
  OOCQ_EXPECT_OK(service.CreateSession(kVehicleRentalSchema).status());

  // Once the fence can succeed, the same demotion converges.
  Failpoints::Reset();
  OOCQ_ASSERT_OK(service.Demote(5, "127.0.0.1:9"));
  EXPECT_TRUE(service.fenced());
  EXPECT_TRUE(service.read_only());
  EXPECT_EQ(service.term(), 5u);
  EXPECT_EQ(options.catalog->term(), 5u);
  EXPECT_EQ(handler_calls, 1);
  transport.Stop();
}

// ---- Dueling promotions end to end ------------------------------------

TEST(ReplFencingTest, DuelingPromotionsConvergeToSingleWriter) {
  Failpoints::Reset();
  // Follower services first: the first-constructed service owns the
  // process-wide metrics scope and must outlive the others.
  std::string dir_a = FreshDir("duel_a");
  ServiceOptions options_a;
  options_a.catalog = OpenCatalog(dir_a);
  ASSERT_NE(options_a.catalog, nullptr);
  options_a.read_only = true;
  OocqService service_a(options_a);

  std::string dir_b = FreshDir("duel_b");
  ServiceOptions options_b;
  options_b.catalog = OpenCatalog(dir_b);
  ASSERT_NE(options_b.catalog, nullptr);
  options_b.read_only = true;
  OocqService service_b(options_b);

  std::string dir_p = FreshDir("duel_p");
  ServiceOptions options_p;
  options_p.catalog = OpenCatalog(dir_p);
  ASSERT_NE(options_p.catalog, nullptr);
  OocqService service_p(options_p);

  // Every node sits behind a real transport so the sweep can probe and
  // demote over the wire, exactly as oocq_route's prober would.
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport_a(&service_a, transport_options);
  EventServer transport_b(&service_b, transport_options);
  EventServer transport_p(&service_p, transport_options);
  OOCQ_ASSERT_OK(transport_a.Start());
  OOCQ_ASSERT_OK(transport_b.Start());
  OOCQ_ASSERT_OK(transport_p.Start());
  const std::string addr_a = "127.0.0.1:" + std::to_string(transport_a.port());
  const std::string addr_b = "127.0.0.1:" + std::to_string(transport_b.port());
  const std::string addr_p = "127.0.0.1:" + std::to_string(transport_p.port());

  // Demoted nodes rejoin as followers of the named winner — the same
  // rejoin code oocq_serve installs.
  FollowerOptions rejoin_options;
  rejoin_options.poll_wait_ms = 100;
  rejoin_options.backoff_ms = 20;
  rejoin_options.backoff_cap_ms = 50;
  Rejoiner rejoin_a(&service_a, rejoin_options);
  Rejoiner rejoin_b(&service_b, rejoin_options);
  Rejoiner rejoin_p(&service_p, rejoin_options);

  // Seed the primary and let both followers converge; the seeded write
  // is "acked" — it must survive everything that follows.
  StatusOr<std::string> sid = service_p.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service_p.DefineQuery(*sid, "acked", "{ x | x in Auto }"));

  FollowerOptions tail_options;
  tail_options.port = transport_p.port();
  tail_options.poll_wait_ms = 100;
  tail_options.backoff_ms = 20;
  tail_options.backoff_cap_ms = 50;
  tail_options.auto_promote_after_ms = 300;
  auto tail_a = std::make_unique<Follower>(&service_a, tail_options);
  auto tail_b = std::make_unique<Follower>(&service_b, tail_options);
  tail_a->Start();
  tail_b->Start();
  ASSERT_TRUE(Eventually([&] {
    return service_a.session_count() == 1 && service_b.session_count() == 1 &&
           tail_a->lag_records() == 0 && tail_b->lag_records() == 0;
  }));

  // ---- Partition: black-hole all traffic to the primary ----
  OOCQ_ASSERT_OK(Failpoints::Configure("net/partition:" + addr_p + "=error"));
  // Both followers lose contact and, past the threshold, both promote:
  // the duel. Each claims term 2 independently.
  ASSERT_TRUE(Eventually(
      [&] { return !service_a.read_only() && !service_b.read_only(); }));
  EXPECT_EQ(service_a.term(), 2u);
  EXPECT_EQ(service_b.term(), 2u);
  tail_a->Stop();
  tail_b->Stop();
  tail_a.reset();
  tail_b.reset();

  // The partitioned primary still thinks it is one; a write it accepts
  // now is on a forked history and must be expunged by the heal.
  OOCQ_ASSERT_OK(service_p.DefineQuery(*sid, "stale", "{ x | x in Truck }"));

  // ---- Heal, then sweep ----
  Failpoints::Reset();
  std::vector<PeerStatus> peers;
  for (const std::string& address : {addr_p, addr_a, addr_b}) {
    peers.push_back(ProbePeer(address, 2000));
  }
  const FleetPlan plan = PlanFleet(peers, /*read_from_followers=*/false,
                                   /*max_follower_lag=*/0);
  ASSERT_FALSE(plan.winner.empty());
  EXPECT_EQ(plan.winner_term, 2u);
  EXPECT_EQ(plan.to_fence.size(), 2u);
  EXPECT_EQ(FenceStalePrimaries(plan, 2000), 2u);
  // Deterministic duel outcome: both dueling primaries are at term 2,
  // so the higher address wins, and the old term-1 primary can never.
  const std::string expected =
      transport_a.port() > transport_b.port() ? addr_a : addr_b;
  EXPECT_EQ(plan.winner, expected);
  OocqService& winner_service = plan.winner == addr_a ? service_a : service_b;
  OocqService& loser_service = plan.winner == addr_a ? service_b : service_a;

  // Exactly one backend accepts mutations; everyone else is fenced.
  ASSERT_TRUE(Eventually([&] {
    int writable = 0;
    for (const std::string& address : {addr_p, addr_a, addr_b}) {
      PeerStatus status = ProbePeer(address, 2000);
      if (status.reachable && !status.readonly) ++writable;
    }
    return writable == 1;
  }));
  EXPECT_FALSE(winner_service.read_only());
  EXPECT_TRUE(loser_service.fenced());
  EXPECT_TRUE(service_p.fenced());
  EXPECT_EQ(service_p.term(), 2u);  // adopted the winner's term durably

  // The loser and the old primary rejoin as followers of the winner and
  // reconverge: the acked write is everywhere, the forked write nowhere.
  OOCQ_ASSERT_OK(
      winner_service.DefineQuery(*sid, "healed", "{ x | x in Trailer }"));
  ASSERT_TRUE(Eventually([&] {
    Response at_loser = loser_service.Execute(ContainNamed(*sid, "healed"));
    Response at_old = service_p.Execute(ContainNamed(*sid, "healed"));
    return at_loser.status.ok() && at_old.status.ok();
  }));
  for (OocqService* node : {&winner_service, &loser_service, &service_p}) {
    Response acked = node->Execute(ContainNamed(*sid, "acked"));
    OOCQ_EXPECT_OK(acked.status);
    EXPECT_TRUE(acked.verdict);  // identical verdicts on every node
    // The stale primary's post-partition define never reached any
    // surviving history: resync rebuilt every catalog from the winner.
    Response stale = node->Execute(ContainNamed(*sid, "stale"));
    EXPECT_FALSE(stale.status.ok());
  }

  // Durable reconvergence: the old primary's term file carries the
  // winner's term, so a restart can never resurrect its write claim.
  EXPECT_EQ(options_p.catalog->term(), 2u);

  rejoin_a.Shutdown();
  rejoin_b.Shutdown();
  rejoin_p.Shutdown();
  transport_a.Stop();
  transport_b.Stop();
  transport_p.Stop();
}

}  // namespace
}  // namespace oocq::server
