#ifndef OOCQ_REPLICATE_FOLLOWER_H_
#define OOCQ_REPLICATE_FOLLOWER_H_

/// The follower half of WAL shipping (docs/replication.md): a single
/// background thread that dials the primary over the ordinary wire
/// protocol, resyncs from a positioned dump when needed (REPL STATE),
/// then long-polls REPL SUBSCRIBE and replays every shipped record into
/// the local OocqService via ApplyReplicated() — through the same
/// idempotent-replay path recovery uses, and into this node's own WAL,
/// so replay==acked holds here exactly as on the primary.
///
/// The loop follows the stream across the primary's compactions: a
/// FAILED_PRECONDITION reply (epoch moved, offset gone) triggers a
/// resync, not an error. Connection loss retries with exponential
/// backoff; with `auto_promote_after_ms` set, a primary unreachable for
/// that long promotes this node (service->Promote()) and the loop ends.
/// Promotion through any path (REPL PROMOTE, auto) stops the tail —
/// Run() returns once the service stops being read-only.
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "server/service.h"
#include "support/status.h"

namespace oocq::replicate {

struct FollowerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Long-poll window passed to REPL SUBSCRIBE: how long the primary
  /// holds an empty poll open waiting for the next group commit.
  uint32_t poll_wait_ms = 500;
  /// Batch ceiling per SUBSCRIBE round (0 = the primary's default).
  uint32_t max_batch_bytes = 256 * 1024;
  /// Reconnect backoff: doubles from `backoff_ms` to `backoff_cap_ms`,
  /// with ±50% jitter per sleep so a fleet of followers reconnecting to
  /// a restarted primary de-synchronizes.
  uint32_t backoff_ms = 100;
  uint32_t backoff_cap_ms = 2000;
  /// Self-promotion threshold: primary unreachable for this many
  /// milliseconds → Promote() the local service. 0 = never auto-promote
  /// (promotion only via REPL PROMOTE on this node).
  uint32_t auto_promote_after_ms = 0;
};

class Follower {
 public:
  /// `service` must outlive the follower and should be constructed with
  /// ServiceOptions::read_only = true and its own catalog.
  Follower(server::OocqService* service, FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Starts the tail thread and installs the service's replication
  /// probe. Idempotent.
  void Start();
  /// Signals the loop, joins the thread, detaches the probe. Idempotent.
  void Stop();

  // ---- Telemetry (read from any thread) ---------------------------------
  bool connected() const {
    return connected_.load(std::memory_order_relaxed);
  }
  /// Records applied since this follower started tailing.
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }
  /// Primary durable tip seq − locally applied seq, last time we heard.
  uint64_t lag_records() const {
    return lag_records_.load(std::memory_order_relaxed);
  }
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  /// Full resyncs performed (initial sync included).
  uint64_t resyncs() const {
    return resyncs_.load(std::memory_order_relaxed);
  }
  server::ReplicationHealth Health() const;

 private:
  void Loop();
  /// One connection lifetime: dial, handshake, sync, poll until error,
  /// stop, or promotion. Ok = clean exit (stop/promotion).
  Status RunConnection();
  /// Full resync over `fd`: REPL STATE, drop stale local sessions, apply
  /// the dump, position the cursor at the dump's WAL cut.
  Status Resync(int fd, std::string* buffer);
  /// One SUBSCRIBE round over `fd`; applies the batch it returns.
  Status PollOnce(int fd, std::string* buffer);
  bool ShouldRun() const;
  /// "host:port" of the primary — the `net/partition` failpoint label.
  std::string PeerLabel() const;

  server::OocqService* const service_;
  const FollowerOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex start_mu_;

  // Stream cursor (tail thread only).
  bool synced_ = false;
  uint64_t next_offset_ = 0;

  /// Milliseconds (steady clock) of the last successful exchange with
  /// the primary — handshake, resync, or poll. 0 = never reached it.
  /// The auto-promote clock measures from here, so a healthy-but-idle
  /// stream (no new records) still counts as contact.
  std::atomic<int64_t> last_contact_ms_{0};
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> applied_seq_{0};  // primary-epoch-relative
  std::atomic<uint64_t> lag_records_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> resyncs_{0};
};

/// Owns a node's replication tail across role changes: the initial
/// --follow tail, and as the service's demotion handler, a new tail of
/// the successor a fencing REPL DEMOTE names. A fence that names none
/// (the SUBSCRIBE handshake) leaves the node read-only until a router
/// sweep or an operator names one.
class Rejoiner {
 public:
  /// `service` must outlive this object. Every tail starts from `tail`
  /// with host and port replaced.
  Rejoiner(server::OocqService* service, FollowerOptions tail);
  ~Rejoiner() { Shutdown(); }
  Rejoiner(const Rejoiner&) = delete;
  Rejoiner& operator=(const Rejoiner&) = delete;

  /// Tails `primary` ("HOST:PORT") in place of the current tail;
  /// kInvalidArgument when malformed, a no-op after Shutdown().
  Status Follow(const std::string& primary);
  /// Stops the tail and detaches the handler for good. Idempotent; call
  /// before the service drains.
  void Shutdown();

 private:
  server::OocqService* const service_;
  const FollowerOptions tail_;
  std::mutex mu_;
  bool shut_down_ = false;
  std::unique_ptr<Follower> follower_;
};

}  // namespace oocq::replicate

#endif  // OOCQ_REPLICATE_FOLLOWER_H_
