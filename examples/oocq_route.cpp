// A role-aware consistent-hash session router for a fleet of oocq_serve
// backends (docs/replication.md#router): accepts ordinary protocol
// connections, peeks the first command line to learn which session the
// client is talking about, and splices the connection to the backend
// that owns that session key on the hash ring (replicate/ring.h).
//
//   oocq_route --backends=HOST:PORT[,HOST:PORT...] [--port=N]
//              [--vnodes=N] [--health_interval_s=N]
//              [--read_from_followers] [--max_follower_lag=N]
//
// Routing is per-connection: the first session-bearing verb (CONTAIN s1,
// DEFINE s1 q1, SESSION DROP s1, ...) pins the connection to
// ring.Lookup(session), and every later command on the connection rides
// the same splice. A connection whose first verb carries no session
// (PING, SESSION NEW, HELLO) is routed by round-robin — create sessions
// through the router and stay on the connection, or ask a specific
// backend directly.
//
// A background prober sends HEALTH to every backend each
// --health_interval_s; replicate::PlanFleet turns the sweep into the
// ring's writers (every primary of a sharded fleet, or the one winner of
// a replicated fleet), the primaries to fence with REPL DEMOTE, and with
// --read_from_followers the caught-up followers that serve connections
// whose first verb is read-only (CONTAIN/EQUIV/UCONTAIN/MINIMIZE/SAT/
// EVAL/EXPLAIN).
//
// A splice that sees the backend answer `ERR FAILED_PRECONDITION fenced
// term=N` drops that reply and closes the connection instead of
// forwarding it: the retrying client reconnects, the router re-probes,
// and the next attempt lands on the new primary.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flag_util.h"
#include "replicate/peer.h"
#include "replicate/ring.h"
#include "server/event_server.h"
#include "server/protocol.h"
#include "support/log.h"

namespace {

using namespace oocq;

/// Dials a backend for a client splice (no receive timeout: the splice
/// is poll()-driven). Routed through replicate::DialPeer so the
/// `net/partition` failpoint black-holes router→backend traffic too.
int DialBackend(const std::string& host_port) {
  std::string host;
  uint16_t port = 0;
  if (!replicate::SplitHostPort(host_port, &host, &port)) return -1;
  return replicate::DialPeer(host, port, /*rcv_timeout_ms=*/0);
}

/// The session key of a parsed command line, or "" when the verb does
/// not name a session. Mirrors the server's argument conventions
/// (server/protocol.cc): session-bearing verbs put the session id first;
/// SESSION DROP carries it second.
std::string SessionKeyOf(const server::CommandLine& command) {
  if (command.verb == "SESSION") {
    if (command.args.size() >= 2 && command.args[0] == "DROP") {
      return command.args[1];
    }
    return "";
  }
  static const char* kSessionVerbs[] = {"CONTAIN", "EQUIV", "UCONTAIN",
                                        "MINIMIZE", "SAT", "EVAL", "EXPLAIN",
                                        "BATCH",    "DEFINE", "STATE"};
  for (const char* verb : kSessionVerbs) {
    if (command.verb == verb && !command.args.empty()) return command.args[0];
  }
  return "";
}

/// Verbs that never mutate the catalog — safe to serve from a caught-up
/// follower (verdicts are deterministic functions of replayed state).
bool IsReadOnlyVerb(const std::string& verb) {
  static const char* kReadOnlyVerbs[] = {"CONTAIN", "EQUIV",  "UCONTAIN",
                                         "MINIMIZE", "SAT",   "EVAL",
                                         "EXPLAIN"};
  for (const char* candidate : kReadOnlyVerbs) {
    if (verb == candidate) return true;
  }
  return false;
}

/// The ring plus the read pool from the last probe sweep.
class Router {
 public:
  Router(const std::vector<std::string>& backends, uint32_t vnodes)
      : all_backends_(backends), ring_(vnodes) {
    // Until the first sweep reports, assume every backend is a writable
    // primary — the pre-replication shape — so cold-start routing works
    // even with probing disabled.
    for (const std::string& b : backends) ring_.AddNode(b);
  }

  /// The mutation target owning `key`; round-robin across ring nodes for
  /// keyless connections. With `read_only`, prefers the caught-up
  /// follower pool (non-empty only with --read_from_followers).
  std::string Pick(const std::string& key, bool read_only) {
    std::lock_guard<std::mutex> lock(mu_);
    if (read_only && !read_pool_.empty()) {
      return read_pool_[next_read_++ % read_pool_.size()];
    }
    if (!key.empty()) return ring_.Lookup(key);
    std::vector<std::string> nodes = ring_.Nodes();
    if (nodes.empty()) return "";
    return nodes[next_round_robin_++ % nodes.size()];
  }

  /// Applies one probe sweep's plan (replicate::PlanFleet): ring
  /// membership and read pool. Fencing happens outside the lock.
  void ApplySweep(const std::vector<replicate::PeerStatus>& peers,
                  const replicate::FleetPlan& plan) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const replicate::PeerStatus& peer : peers) LogTransitionLocked(peer);
    SetRingLocked(plan.writers);
    read_pool_ = plan.read_pool;
  }

  /// Drops an unreachable backend mid-interval (a splice dial failed).
  void MarkDead(const std::string& backend) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.Contains(backend)) {
      ring_.RemoveNode(backend);
      OOCQ_LOG(Warn, "route").Msg("backend out of ring").With("backend",
                                                              backend);
    }
  }

  const std::vector<std::string>& all_backends() const {
    return all_backends_;
  }

  /// Asks the prober to run a sweep now (a splice saw a fenced reply).
  void RequestProbe() {
    {
      std::lock_guard<std::mutex> lock(probe_mu_);
      probe_requested_ = true;
    }
    probe_cv_.notify_one();
  }
  bool WaitProbeInterval(uint64_t interval_ms) {
    std::unique_lock<std::mutex> lock(probe_mu_);
    probe_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return probe_requested_ || stopping_; });
    bool requested = probe_requested_;
    probe_requested_ = false;
    return requested || !stopping_;
  }
  void StopProber() {
    {
      std::lock_guard<std::mutex> lock(probe_mu_);
      stopping_ = true;
    }
    probe_cv_.notify_all();
  }
  bool stopping() {
    std::lock_guard<std::mutex> lock(probe_mu_);
    return stopping_;
  }

 private:
  void SetRingLocked(const std::vector<std::string>& writers) {
    for (const std::string& node : ring_.Nodes()) {
      bool keep = false;
      for (const std::string& writer : writers) {
        if (writer == node) keep = true;
      }
      if (!keep) {
        ring_.RemoveNode(node);
        OOCQ_LOG(Warn, "route").Msg("backend out of ring").With("backend",
                                                                node);
      }
    }
    for (const std::string& writer : writers) {
      if (!ring_.Contains(writer)) {
        ring_.AddNode(writer);
        OOCQ_LOG(Info, "route").Msg("backend into ring").With("backend",
                                                              writer);
      }
    }
  }

  void LogTransitionLocked(const replicate::PeerStatus& peer) {
    const std::string seen =
        (peer.reachable ? peer.role : std::string("unreachable")) +
        " term=" + std::to_string(peer.term);
    auto [it, first] = last_seen_.try_emplace(peer.address, seen);
    if (!first && it->second != seen) {
      OOCQ_LOG(Info, "route")
          .Msg("backend role transition")
          .With("backend", peer.address)
          .With("from", it->second)
          .With("to", seen);
      it->second = seen;
    }
  }

  const std::vector<std::string> all_backends_;
  std::mutex mu_;
  replicate::ConsistentHashRing ring_;
  std::vector<std::string> read_pool_;
  std::map<std::string, std::string> last_seen_;  // address -> "role term=N"
  size_t next_round_robin_ = 0;
  size_t next_read_ = 0;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_requested_ = false;
  bool stopping_ = false;
};

/// Copies bytes both ways until either side closes or errors. Backend
/// traffic is scanned for fenced refusals: instead of forwarding a
/// `fenced term=N` error to the client, the splice closes both sides —
/// retrying clients treat a dropped connection as retryable (unlike
/// FAILED_PRECONDITION) and their reconnect re-resolves through the
/// refreshed ring.
void Splice(int client_fd, int backend_fd, Router* router) {
  pollfd fds[2];
  fds[0] = {client_fd, POLLIN, 0};
  fds[1] = {backend_fd, POLLIN, 0};
  char buf[16 * 1024];
  while (true) {
    fds[0].revents = fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < 2; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ssize_t n = ::recv(fds[i].fd, buf, sizeof(buf), 0);
      if (n <= 0) return;  // EOF or error on either side ends the splice
      if (i == 1 &&
          std::string(buf, static_cast<size_t>(n))
                  .find("ERR FAILED_PRECONDITION fenced") !=
              std::string::npos) {
        OOCQ_LOG(Warn, "route")
            .Msg("backend fenced mid-splice; dropping connection to force "
                 "re-resolve");
        router->RequestProbe();
        return;
      }
      int out = (i == 0) ? backend_fd : client_fd;
      ssize_t sent = 0;
      while (sent < n) {
        ssize_t w = ::send(out, buf + sent, static_cast<size_t>(n - sent),
                           MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          return;
        }
        sent += w;
      }
    }
  }
}

/// One client connection: peek the first line, pick a backend, replay the
/// peeked bytes, then splice until either side closes.
void ServeClient(int client_fd, Router* router) {
  std::string peeked;
  char c;
  // Read byte-wise up to the first newline — no look-ahead is swallowed,
  // so the backend sees the byte stream exactly as the client sent it.
  while (peeked.size() < server::kMaxLineBytes) {
    ssize_t n = ::recv(client_fd, &c, 1, 0);
    if (n <= 0) {
      ::close(client_fd);
      return;
    }
    peeked.push_back(c);
    if (c == '\n') break;
  }
  server::CommandLine first =
      server::ParseCommandLine(peeked.substr(0, peeked.size() - 1));
  std::string key = SessionKeyOf(first);
  std::string backend = router->Pick(key, IsReadOnlyVerb(first.verb));
  int backend_fd = backend.empty() ? -1 : DialBackend(backend);
  if (backend_fd < 0) {
    const char* err = "ERR UNAVAILABLE no live backend\n.\n";
    (void)::send(client_fd, err, std::strlen(err), MSG_NOSIGNAL);
    ::close(client_fd);
    if (!backend.empty()) {
      router->MarkDead(backend);
      router->RequestProbe();
    }
    return;
  }
  OOCQ_LOG(Debug, "route")
      .Msg("routed connection")
      .With("verb", first.verb)
      .With("session", key.empty() ? "-" : key)
      .With("backend", backend);
  ssize_t sent = ::send(backend_fd, peeked.data(), peeked.size(), MSG_NOSIGNAL);
  if (sent == static_cast<ssize_t>(peeked.size())) {
    Splice(client_fd, backend_fd, router);
  }
  ::close(backend_fd);
  ::close(client_fd);
}

/// One prober sweep: HEALTH every backend, update routing state, fence
/// stale/dueling primaries.
void ProbeSweep(Router* router, bool read_from_followers,
                uint64_t max_follower_lag) {
  std::vector<replicate::PeerStatus> peers;
  for (const std::string& backend : router->all_backends()) {
    peers.push_back(replicate::ProbePeer(backend, /*timeout_ms=*/2000));
  }
  const replicate::FleetPlan plan =
      replicate::PlanFleet(peers, read_from_followers, max_follower_lag);
  router->ApplySweep(peers, plan);
  (void)replicate::FenceStalePrimaries(plan, /*timeout_ms=*/2000);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t port = 7744, vnodes = 128, health_interval_s = 2;
  uint64_t max_follower_lag = 64;
  bool read_from_followers = false;
  std::string backends_flag;
  oocq::examples::FlagSet flags(
      "oocq_route", "",
      "Role-aware consistent-hash session router; see "
      "docs/replication.md#router.");
  flags.Uint("port", &port, "N",
             "listen port (default 7744; 0 = ephemeral, printed on startup)");
  flags.Str("backends", &backends_flag, "HOST:PORT,...",
            "comma-separated backend list (required)");
  flags.Uint("vnodes", &vnodes, "N",
             "ring points per backend (default 128)");
  flags.Uint("health_interval_s", &health_interval_s, "N",
             "backend HEALTH probe cadence (default 2; 0 disables probing)");
  flags.Bool("read_from_followers", &read_from_followers,
             "spread connections whose first verb is read-only across "
             "caught-up followers");
  flags.Uint("max_follower_lag", &max_follower_lag, "N",
             "followers lagging more than N records leave the read pool "
             "(default 64)");
  if (flags.Parse(argc, argv) != argc) {
    std::fprintf(stderr, "error: unexpected positional argument\n");
    return flags.UsageError();
  }
  std::vector<std::string> backends;
  size_t start = 0;
  while (start <= backends_flag.size() && !backends_flag.empty()) {
    size_t comma = backends_flag.find(',', start);
    size_t end = comma == std::string::npos ? backends_flag.size() : comma;
    if (end > start) backends.push_back(backends_flag.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (backends.empty() || port > 65535) {
    std::fprintf(stderr, "error: --backends=HOST:PORT[,HOST:PORT...] "
                         "is required\n");
    return flags.UsageError();
  }
  ::signal(SIGPIPE, SIG_IGN);

  Router router(backends, static_cast<uint32_t>(vnodes));

  uint16_t bound_port = 0;
  StatusOr<int> listener =
      server::OpenListener(static_cast<uint16_t>(port), /*loopback_only=*/true,
                           /*nonblocking=*/false, &bound_port);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  const int listen_fd = *listener;
  OOCQ_LOG(Info, "route")
      .Msg("routing on 127.0.0.1")
      .With("port", static_cast<uint64_t>(bound_port))
      .With("backends", backends_flag)
      .With("vnodes", vnodes)
      .With("read_from_followers",
            static_cast<uint64_t>(read_from_followers ? 1 : 0));

  std::thread prober;
  if (health_interval_s > 0) {
    prober = std::thread([&] {
      while (!router.stopping()) {
        ProbeSweep(&router, read_from_followers, max_follower_lag);
        router.WaitProbeInterval(health_interval_s * 1000);
      }
    });
  }

  while (true) {
    int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::thread(ServeClient, client_fd, &router).detach();
  }
  router.StopProber();
  if (prober.joinable()) prober.join();
  ::close(listen_fd);
  return 0;
}
