// Crash recovery and warm starts through the DurableCatalog + OocqService
// stack (docs/persistence.md): a fault-injected "process death" mid-append
// must replay exactly the acked mutations minus the torn tail; a clean
// restart must re-register every session and warm-start its containment
// cache; stale or corrupt on-disk state must degrade to a cold start.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "persist/catalog.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "server/service.h"
#include "support/file.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using persist::DurableCatalog;
using persist::DurableCatalogOptions;
using persist::Record;
using persist::RecordType;
using ::oocq::testing::kVehicleRentalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_recovery_" + name;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

std::shared_ptr<DurableCatalog> MustOpen(DurableCatalogOptions options) {
  StatusOr<std::unique_ptr<DurableCatalog>> catalog =
      DurableCatalog::Open(std::move(options));
  OOCQ_EXPECT_OK(catalog.status());
  return catalog.ok() ? std::shared_ptr<DurableCatalog>(*std::move(catalog))
                      : nullptr;
}

/// What a kill -9 leaves behind: the data dir's files as they are, copied
/// while the service that owns them is still live.
std::string CrashCopy(const std::string& dir, const std::string& name) {
  const std::string copy = FreshDir(name);
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  EXPECT_TRUE(names.ok());
  if (!names.ok()) return copy;
  for (const std::string& file : *names) {
    StatusOr<std::string> contents = ReadFileToString(dir + "/" + file);
    if (!contents.ok()) continue;  // a temp file renamed away meanwhile
    EXPECT_TRUE(WriteFileDurable(copy + "/" + file, *contents).ok());
  }
  return copy;
}

Record DefineRecord(int i) {
  Record record;
  record.type = RecordType::kDefineQuery;
  record.session_id = "s1";
  record.name = "q" + std::to_string(i);
  record.text = "{ x | x in Auto & x in Vehicle } -- #" + std::to_string(i);
  return record;
}

// The crash-recovery property: for every fault point, reopening the
// catalog recovers exactly the acked records — never a torn one, never
// a missing acked one.
TEST(CatalogRecoveryTest, FaultPointPropertyReplayEqualsAcked) {
  for (uint64_t fail_after : {64u, 150u, 301u, 444u, 777u}) {
    const std::string dir =
        FreshDir("fault_" + std::to_string(fail_after));
    size_t acked = 0;
    {
      DurableCatalogOptions options;
      options.data_dir = dir;
      options.snapshot_interval_s = 0;
      options.group_commit_window_us = 0;
      options.wal_fail_after_bytes = fail_after;
      std::shared_ptr<DurableCatalog> catalog = MustOpen(options);
      ASSERT_NE(catalog, nullptr);
      for (int i = 0; i < 32; ++i) {
        auto guard = catalog->MutationGuard();
        if (!catalog->Log(DefineRecord(i)).ok()) break;
        ++acked;
      }
      ASSERT_LT(acked, 32u) << "fault at " << fail_after << " never fired";
      // The catalog dies here with a torn frame on disk (no clean
      // shutdown, no snapshot — the destructor only joins threads).
    }
    DurableCatalogOptions reopen;
    reopen.data_dir = dir;
    reopen.snapshot_interval_s = 0;
    std::shared_ptr<DurableCatalog> catalog = MustOpen(reopen);
    ASSERT_NE(catalog, nullptr);
    const DurableCatalog::Recovery& recovery = catalog->recovery();
    EXPECT_FALSE(recovery.cold_start);
    EXPECT_GT(recovery.wal_truncated_bytes, 0u)
        << "fault at " << fail_after << " left no torn tail";
    ASSERT_EQ(catalog->recovered().size(), acked)
        << "fault at " << fail_after;
    for (size_t i = 0; i < acked; ++i) {
      EXPECT_EQ(catalog->recovered()[i], DefineRecord(static_cast<int>(i)));
    }
  }
}

TEST(CatalogRecoveryTest, StaleWalDegradesToColdStart) {
  const std::string dir = FreshDir("stale_wal");
  std::string stale;
  persist::EncodeFileHeader(&stale, "00000000deadbeef");
  persist::EncodeRecord(DefineRecord(0), &stale);
  OOCQ_ASSERT_OK(WriteFileDurable(dir + "/wal.log", stale));

  DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;
  std::shared_ptr<DurableCatalog> catalog = MustOpen(options);
  ASSERT_NE(catalog, nullptr);
  EXPECT_TRUE(catalog->recovery().cold_start);
  EXPECT_TRUE(catalog->recovered().empty());
  // The stale file is set aside, and the catalog is writable again.
  EXPECT_TRUE(ReadFileToString(dir + "/wal.log.stale").ok());
  auto guard = catalog->MutationGuard();
  OOCQ_EXPECT_OK(catalog->Log(DefineRecord(1)));
}

TEST(ServicePersistenceTest, WarmRestartRestoresSessionsQueriesAndCache) {
  const std::string dir = FreshDir("warm");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;  // snapshot on shutdown only
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  std::string sid;
  Response first;
  {
    service_options.catalog = MustOpen(catalog_options);
    ASSERT_NE(service_options.catalog, nullptr);
    OocqService service(service_options);
    StatusOr<std::string> created = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(created.status());
    sid = *created;
    OOCQ_ASSERT_OK(service.DefineQuery(sid, "autos", "{ x | x in Auto }"));
    OOCQ_ASSERT_OK(
        service.DefineQuery(sid, "vehicles", "{ x | x in Vehicle }"));
    OOCQ_ASSERT_OK(service.LoadState(
        sid, "state { a1: Auto { Doors = 4; } }"));

    Request request;
    request.kind = RequestKind::kContained;
    request.session_id = sid;
    request.query = "@autos";
    request.query2 = "@vehicles";
    first = service.Execute(request);
    OOCQ_ASSERT_OK(first.status);
    EXPECT_TRUE(first.verdict);
    // Destructor: drain + final snapshot (warm cache included).
  }
  EXPECT_GT(persist::LatestSnapshotSeq(dir), 0u);

  service_options.catalog = MustOpen(catalog_options);
  ASSERT_NE(service_options.catalog, nullptr);
  EXPECT_FALSE(service_options.catalog->recovered().empty());
  OocqService service(service_options);
  EXPECT_EQ(service.session_count(), 1u);

  // Identical answers after restart, via the restored named queries.
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = "@autos";
  request.query2 = "@vehicles";
  Response warm = service.Execute(request);
  OOCQ_ASSERT_OK(warm.status);
  EXPECT_EQ(warm.verdict, first.verdict);

  // The restored state serves evaluation without a reload.
  Request eval;
  eval.kind = RequestKind::kEvaluate;
  eval.session_id = sid;
  eval.query = "{ x | x in Auto }";
  Response answers = service.Execute(eval);
  OOCQ_ASSERT_OK(answers.status);
  EXPECT_TRUE(answers.verdict);
}

TEST(ServicePersistenceTest, DropSessionIsDurable) {
  const std::string dir = FreshDir("drop");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  std::string kept;
  {
    service_options.catalog = MustOpen(catalog_options);
    OocqService service(service_options);
    StatusOr<std::string> doomed = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(doomed.status());
    StatusOr<std::string> survivor =
        service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(survivor.status());
    kept = *survivor;
    OOCQ_ASSERT_OK(service.DropSession(*doomed));
  }
  service_options.catalog = MustOpen(catalog_options);
  OocqService service(service_options);
  EXPECT_EQ(service.session_count(), 1u);
  // New ids never collide with restored ones.
  StatusOr<std::string> fresh = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(fresh.status());
  EXPECT_NE(*fresh, kept);
}

TEST(ServicePersistenceTest, BackgroundSnapshotterCompactsTheWal) {
  const std::string dir = FreshDir("cadence");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 1;
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  service_options.catalog = MustOpen(catalog_options);
  ASSERT_NE(service_options.catalog, nullptr);
  DurableCatalog* catalog = service_options.catalog.get();
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "q", "{ x | x in Auto }"));

  // Within a few cadence ticks the snapshotter must have run and reset
  // the WAL (its records now live in the snapshot).
  for (int i = 0; i < 50 && catalog->snapshots_taken() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(catalog->snapshots_taken(), 1u);
  EXPECT_GT(persist::LatestSnapshotSeq(dir), 0u);

  // An idle cadence tick does not write a new snapshot.
  const uint64_t seq_after_first = persist::LatestSnapshotSeq(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  EXPECT_EQ(persist::LatestSnapshotSeq(dir), seq_after_first);
}

// A containment verdict reaches disk only through a snapshot. A cadence
// tick after a verdict settled, with no WAL append since the last
// snapshot, must still take one; a tick with neither writes nothing.
TEST(ServicePersistenceTest, TickAfterVerdictSnapshotsWithoutWalAppend) {
  const std::string dir = FreshDir("verdict_tick");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 1;
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  service_options.catalog = MustOpen(catalog_options);
  ASSERT_NE(service_options.catalog, nullptr);
  DurableCatalog* catalog = service_options.catalog.get();
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "autos", "{ x | x in Auto }"));
  OOCQ_ASSERT_OK(
      service.DefineQuery(*sid, "vehicles", "{ x | x in Vehicle }"));

  // One cadence snapshot subsumes every record: the WAL is empty again.
  for (int i = 0; i < 50 && (catalog->snapshots_taken() == 0 ||
                             catalog->wal()->synced_seq() != 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_GE(catalog->snapshots_taken(), 1u);
  ASSERT_EQ(catalog->wal()->synced_seq(), 0u);
  const uint64_t snapshots_before = catalog->snapshots_taken();

  Request contain;
  contain.kind = RequestKind::kContained;
  contain.session_id = *sid;
  contain.query = "@autos";
  contain.query2 = "@vehicles";
  Response decided = service.Execute(contain);
  OOCQ_ASSERT_OK(decided.status);
  EXPECT_TRUE(decided.verdict);

  // The next tick sees the new verdict although the WAL did not move.
  for (int i = 0; i < 30 && catalog->snapshots_taken() == snapshots_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GT(catalog->snapshots_taken(), snapshots_before);
  const std::string crashed = CrashCopy(dir, "verdict_tick_crash");

  // Nothing new since: the following tick writes nothing and leaves the
  // WAL epoch where it was.
  const uint64_t seq = persist::LatestSnapshotSeq(dir);
  const uint64_t epoch = catalog->wal()->epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  EXPECT_EQ(persist::LatestSnapshotSeq(dir), seq);
  EXPECT_EQ(catalog->wal()->epoch(), epoch);

  DurableCatalogOptions reopen;
  reopen.data_dir = crashed;
  reopen.snapshot_interval_s = 0;
  std::shared_ptr<DurableCatalog> recovered = MustOpen(reopen);
  ASSERT_NE(recovered, nullptr);
  size_t verdicts = 0;
  for (const Record& record : recovered->recovered()) {
    if (record.type == RecordType::kCacheEntry) ++verdicts;
  }
  EXPECT_GE(verdicts, 1u);

  ServiceOptions restarted_options;
  restarted_options.metrics = false;
  restarted_options.catalog = recovered;
  OocqService restarted(restarted_options);
  Response warm = restarted.Execute(contain);
  OOCQ_ASSERT_OK(warm.status);
  EXPECT_TRUE(warm.verdict);
}

TEST(ServicePersistenceTest, UnparsableRecoveredRecordIsSkippedNotFatal) {
  const std::string dir = FreshDir("skip");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;
  catalog_options.group_commit_window_us = 0;
  {
    std::shared_ptr<DurableCatalog> catalog = MustOpen(catalog_options);
    auto guard = catalog->MutationGuard();
    Record good;
    good.type = RecordType::kCreateSession;
    good.session_id = "s1";
    good.text = kVehicleRentalSchema;
    OOCQ_ASSERT_OK(catalog->Log(good));
    Record bad;
    bad.type = RecordType::kDefineQuery;
    bad.session_id = "s1";
    bad.name = "broken";
    bad.text = "{ not a query at all";
    OOCQ_ASSERT_OK(catalog->Log(bad));
  }
  ServiceOptions service_options;
  service_options.metrics = false;
  service_options.catalog = MustOpen(catalog_options);
  OocqService service(service_options);
  // The session survives; the unparsable definition is dropped.
  EXPECT_EQ(service.session_count(), 1u);
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = "s1";
  request.query = "@broken";
  request.query2 = "{ x | x in Vehicle }";
  Response response = service.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace oocq::server
