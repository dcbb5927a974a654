#include "replicate/follower.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <utility>
#include <vector>

#include "replicate/peer.h"
#include "replicate/role.h"
#include "replicate/wire.h"
#include "support/failpoint.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/status_macros.h"

namespace oocq::replicate {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// ±50% jitter, same distribution as the retrying client: a fleet of
/// followers reconnecting to a restarted primary must not synchronize
/// into lock-step thundering herds.
uint64_t Jittered(uint64_t base_ms) {
  if (base_ms == 0) return 0;
  static thread_local std::mt19937_64 rng{std::random_device{}()};
  std::uniform_int_distribution<uint64_t> dist(base_ms / 2,
                                               base_ms + base_ms / 2);
  return dist(rng);
}

}  // namespace

Follower::Follower(server::OocqService* service, FollowerOptions options)
    : service_(service), options_(std::move(options)) {}

Follower::~Follower() { Stop(); }

void Follower::Start() {
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  service_->SetReplicationProbe([this] { return Health(); });
  thread_ = std::thread([this] { Loop(); });
}

void Follower::Stop() {
  std::lock_guard<std::mutex> lock(start_mu_);
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  started_ = false;
  // The probe captures `this`; keep it installed only while the follower
  // lives. After Stop() the service reports no replication telemetry.
  service_->SetReplicationProbe(nullptr);
}

server::ReplicationHealth Follower::Health() const {
  server::ReplicationHealth health;
  health.present = true;
  health.role = service_->read_only() ? "follower" : "primary";
  health.connected = connected();
  health.lag_records = lag_records();
  health.applied_records = applied_records();
  health.epoch = epoch();
  health.term = service_->term();
  return health;
}

bool Follower::ShouldRun() const {
  // Promotion through any path ends the tail: a primary does not follow.
  return !stop_.load(std::memory_order_relaxed) && service_->read_only();
}

void Follower::Loop() {
  uint64_t backoff_ms = options_.backoff_ms;
  while (ShouldRun()) {
    const int64_t contact_before =
        last_contact_ms_.load(std::memory_order_relaxed);
    Status run = RunConnection();
    connected_.store(false, std::memory_order_relaxed);
    if (!ShouldRun()) break;
    const int64_t last_contact =
        last_contact_ms_.load(std::memory_order_relaxed);
    if (last_contact != contact_before || run.ok()) {
      backoff_ms = options_.backoff_ms;
    }
    OOCQ_LOG(Warn, "repl")
        .Msg("primary connection lost; backing off")
        .With("error", run.ToString())
        .With("backoff_ms", backoff_ms);
    service_->metrics_registry()->Add("repl/reconnects", 1);
    // Past the threshold of silence the machine promotes this node,
    // which ends the tail (ShouldRun() turns false).
    (void)service_->ApplyRoleEvent(
        {.kind = RoleEventKind::kPrimarySilent,
         .silent_ms = last_contact == 0
                          ? 0
                          : static_cast<uint64_t>(NowMs() - last_contact),
         .promote_after_ms = options_.auto_promote_after_ms});
    // Backoff in small slices so Stop() and promotion stay responsive.
    Clock::time_point wake =
        Clock::now() + std::chrono::milliseconds(Jittered(backoff_ms));
    while (ShouldRun() && Clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    backoff_ms = std::min<uint64_t>(backoff_ms * 2, options_.backoff_cap_ms);
  }
  connected_.store(false, std::memory_order_relaxed);
}

std::string Follower::PeerLabel() const {
  return options_.host + ":" + std::to_string(options_.port);
}

Status Follower::RunConnection() {
  const uint32_t rcv_timeout_ms = options_.poll_wait_ms + 5000;
  int fd = DialPeer(options_.host, options_.port, rcv_timeout_ms);
  if (fd < 0) {
    return Status::Unavailable("connect to primary " + PeerLabel() +
                               " failed");
  }
  std::string buffer;
  Status result = [&]() -> Status {
    // Handshake: the primary must speak our protocol revision and
    // advertise the `replication` capability (docs/server.md#caps).
    if (!SendAll(fd, "HELLO 1\n")) {
      return Status::Unavailable("primary send failed");
    }
    WireReply hello;
    OOCQ_RETURN_IF_ERROR(ReadWireReply(fd, &buffer, &hello));
    if (!ReplyOk(hello)) {
      return Status::FailedPrecondition("primary refused HELLO: " +
                                        hello.status);
    }
    if (hello.status.find("replication") == std::string::npos) {
      return Status::FailedPrecondition(
          "primary does not advertise the replication capability");
    }
    connected_.store(true, std::memory_order_relaxed);
    last_contact_ms_.store(NowMs(), std::memory_order_relaxed);
    while (ShouldRun()) {
      if (!synced_) {
        OOCQ_RETURN_IF_ERROR(Resync(fd, &buffer));
      }
      Status polled = PollOnce(fd, &buffer);
      if (!polled.ok()) {
        if (polled.code() == StatusCode::kFailedPrecondition) {
          // The primary compacted past our offset (or our cursor is from
          // an older epoch): stream anew from a positioned dump, on this
          // same connection.
          OOCQ_LOG(Info, "repl")
              .Msg("stream position invalidated; resyncing")
              .With("reason", polled.ToString());
          synced_ = false;
          continue;
        }
        return polled;
      }
    }
    return Status::Ok();
  }();
  ::close(fd);
  return result;
}

Status Follower::Resync(int fd, std::string* buffer) {
  // A partition armed mid-stream black-holes the established connection
  // too, not just fresh dials.
  OOCQ_RETURN_IF_ERROR(Failpoints::CheckLabeled("net/partition", PeerLabel()));
  if (!SendAll(fd, "REPL STATE\n")) {
    return Status::Unavailable("primary send failed");
  }
  WireReply reply;
  OOCQ_RETURN_IF_ERROR(ReadWireReply(fd, buffer, &reply));
  if (!ReplyOk(reply)) {
    return Status::Internal("REPL STATE refused: " + reply.status);
  }
  // A primary behind the write authority we already know about is
  // refused (Unavailable: drop the connection and back off).
  const uint64_t primary_term = FieldUint(reply.status, "term");
  OOCQ_RETURN_IF_ERROR(
      service_->ApplyRoleEvent({RoleEventKind::kPrimaryTerm, primary_term})
          .status());
  // Stale local sessions (missed drops while disconnected, or a cold
  // local catalog diverged from the primary) go first; the dump then
  // rebuilds the registry through the same idempotent path. Both the
  // drops and the dump records land in the local WAL via
  // ApplyReplicated, so a crash mid-resync recovers consistently.
  for (const std::string& id : service_->SessionIds()) {
    persist::Record drop;
    drop.type = persist::RecordType::kDropSession;
    drop.session_id = id;
    OOCQ_RETURN_IF_ERROR(service_->ApplyReplicated(drop));
  }
  size_t skipped = 0;
  for (const std::string& line : reply.payload) {
    StatusOr<ShippedRecord> shipped = DecodeShippedLine(line);
    if (!shipped.ok()) return shipped.status();
    if (!service_->ApplyReplicated(shipped->record, primary_term).ok()) {
      ++skipped;
    }
  }
  if (skipped != 0) {
    service_->metrics_registry()->Add("repl/apply_skipped", skipped);
  }
  epoch_.store(FieldUint(reply.status, "epoch"), std::memory_order_relaxed);
  next_offset_ = FieldUint(reply.status, "offset");
  applied_seq_.store(FieldUint(reply.status, "seq"), std::memory_order_relaxed);
  lag_records_.store(0, std::memory_order_relaxed);
  synced_ = true;
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  service_->metrics_registry()->Add("repl/resyncs", 1);
  OOCQ_LOG(Info, "repl")
      .Msg("resynced from positioned dump")
      .With("records", reply.payload.size())
      .With("epoch", epoch_.load(std::memory_order_relaxed))
      .With("offset", next_offset_)
      .With("term", primary_term);
  return Status::Ok();
}

Status Follower::PollOnce(int fd, std::string* buffer) {
  OOCQ_RETURN_IF_ERROR(Failpoints::CheckLabeled("net/partition", PeerLabel()));
  // The SUBSCRIBE carries our term: a healed stale primary fences itself
  // the moment its old follower — now ahead of it — polls it.
  std::string request =
      "REPL SUBSCRIBE " +
      std::to_string(epoch_.load(std::memory_order_relaxed)) + " " +
      std::to_string(next_offset_) +
      " wait_ms=" + std::to_string(options_.poll_wait_ms) +
      " term=" + std::to_string(service_->term());
  if (options_.max_batch_bytes != 0) {
    request += " max_bytes=" + std::to_string(options_.max_batch_bytes);
  }
  request += "\n";
  if (!SendAll(fd, request)) {
    return Status::Unavailable("primary send failed");
  }
  WireReply reply;
  OOCQ_RETURN_IF_ERROR(ReadWireReply(fd, buffer, &reply));
  if (ReplyFailedPrecondition(reply)) {
    return Status::FailedPrecondition(reply.status);
  }
  if (!ReplyOk(reply)) {
    return Status::Internal("REPL SUBSCRIBE refused: " + reply.status);
  }
  const uint64_t primary_term = FieldUint(reply.status, "term");
  OOCQ_RETURN_IF_ERROR(
      service_->ApplyRoleEvent({RoleEventKind::kPrimaryTerm, primary_term})
          .status());
  size_t skipped = 0;
  for (const std::string& line : reply.payload) {
    StatusOr<ShippedRecord> shipped = DecodeShippedLine(line);
    if (!shipped.ok()) return shipped.status();
    Status applied = service_->ApplyReplicated(shipped->record, primary_term);
    if (!applied.ok()) {
      // Same contract as recovery (docs/persistence.md): a record that
      // no longer applies is skipped and counted, never fatal.
      ++skipped;
    }
    applied_records_.fetch_add(1, std::memory_order_relaxed);
    applied_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  if (skipped != 0) {
    service_->metrics_registry()->Add("repl/apply_skipped", skipped);
  }
  next_offset_ = FieldUint(reply.status, "next");
  const uint64_t tip_seq = FieldUint(reply.status, "tip_seq");
  const uint64_t applied = applied_seq_.load(std::memory_order_relaxed);
  lag_records_.store(tip_seq > applied ? tip_seq - applied : 0,
                     std::memory_order_relaxed);
  last_contact_ms_.store(NowMs(), std::memory_order_relaxed);
  service_->metrics_registry()->Add("repl/polls", 1);
  return Status::Ok();
}

Rejoiner::Rejoiner(server::OocqService* service, FollowerOptions tail)
    : service_(service), tail_(std::move(tail)) {
  service_->SetDemotionHandler(
      [this](uint64_t term, const std::string& new_primary) {
        Status rejoined =
            new_primary.empty()
                ? Status::NotFound("no successor named; staying read-only")
                : Follow(new_primary);
        OOCQ_LOG(Info, "repl")
            .Msg("fenced; rejoining as follower of the new primary")
            .With("term", term)
            .With("primary", new_primary)
            .With("status", rejoined.ToString());
      });
}

Status Rejoiner::Follow(const std::string& primary) {
  FollowerOptions options = tail_;
  if (!SplitHostPort(primary, &options.host, &options.port)) {
    return Status::InvalidArgument("primary '" + primary +
                                   "' is not HOST:PORT");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) return Status::Ok();
  // A fenced node was a primary, whose tail (if any) left its loop at
  // promotion; resetting joins it and detaches its probe.
  follower_.reset();
  follower_ = std::make_unique<Follower>(service_, std::move(options));
  follower_->Start();
  return Status::Ok();
}

void Rejoiner::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) return;
  shut_down_ = true;
  service_->SetDemotionHandler(nullptr);
  follower_.reset();  // Stop() runs in the destructor
}

}  // namespace oocq::replicate
