#include "replicate/peer.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/failpoint.h"
#include "support/log.h"
#include "support/metrics.h"

namespace oocq::replicate {

bool SplitHostPort(const std::string& address, std::string* host,
                   uint16_t* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return false;
  }
  unsigned long parsed = std::strtoul(address.c_str() + colon + 1, nullptr, 10);
  if (parsed == 0 || parsed > 65535) return false;
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return true;
}

int DialPeer(const std::string& host, uint16_t port,
             uint32_t rcv_timeout_ms) {
  const std::string label = host + ":" + std::to_string(port);
  if (!Failpoints::HitLabeled("net/partition", label)) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{};
  timeout.tv_sec = rcv_timeout_ms / 1000;
  timeout.tv_usec = static_cast<suseconds_t>((rcv_timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

Status ReadWireReply(int fd, std::string* buffer, WireReply* reply) {
  reply->status.clear();
  reply->payload.clear();
  bool have_status = false;
  while (true) {
    size_t nl;
    while ((nl = buffer->find('\n')) != std::string::npos) {
      std::string line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!have_status) {
        reply->status = std::move(line);
        have_status = true;
        continue;
      }
      if (line == ".") return Status::Ok();
      if (!line.empty() && line[0] == '.') line.erase(0, 1);
      reply->payload.push_back(std::move(line));
    }
    char chunk[16384];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable("peer read timed out");
      }
      return Status::Unavailable(std::string("peer read failed: ") +
                                 std::strerror(errno));
    }
    if (got == 0) return Status::Unavailable("peer closed the connection");
    buffer->append(chunk, static_cast<size_t>(got));
  }
}

uint64_t FieldUint(const std::string& status, const std::string& key) {
  const std::string needle = " " + key + "=";
  size_t at = status.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + needle.size(), nullptr, 10);
}

std::string FieldString(const std::string& status, const std::string& key) {
  const std::string needle = " " + key + "=";
  size_t at = status.find(needle);
  if (at == std::string::npos) return std::string();
  size_t start = at + needle.size();
  size_t end = status.find(' ', start);
  return status.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
}

bool ReplyOk(const WireReply& reply) {
  return reply.status.rfind("OK", 0) == 0 &&
         (reply.status.size() == 2 || reply.status[2] == ' ');
}

bool ReplyFailedPrecondition(const WireReply& reply) {
  return reply.status.rfind("ERR FAILED_PRECONDITION", 0) == 0;
}

PeerStatus ProbePeer(const std::string& address, uint32_t timeout_ms) {
  PeerStatus status;
  status.address = address;
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(address, &host, &port)) return status;
  int fd = DialPeer(host, port, timeout_ms);
  if (fd < 0) return status;
  std::string buffer;
  WireReply reply;
  if (SendAll(fd, "HEALTH\n") &&
      ReadWireReply(fd, &buffer, &reply).ok() && ReplyOk(reply)) {
    status.reachable = true;
    status.role = FieldString(reply.status, "role");
    status.readonly = FieldUint(reply.status, "readonly") != 0;
    status.fenced = FieldUint(reply.status, "fenced") != 0;
    status.term = FieldUint(reply.status, "term");
    // Stream liveness/lag ride on the optional `repl:` body line.
    for (const std::string& line : reply.payload) {
      if (line.rfind("repl:", 0) != 0) continue;
      status.repl_connected = FieldUint(line, "connected") != 0;
      status.lag_records = FieldUint(line, "lag_records");
    }
  }
  (void)SendAll(fd, "QUIT\n");
  ::close(fd);
  return status;
}

size_t FenceStalePrimaries(const FleetPlan& plan, uint32_t timeout_ms) {
  size_t demoted = 0;
  for (const PeerStatus& peer : plan.to_fence) {
    std::string host;
    uint16_t port = 0;
    if (!SplitHostPort(peer.address, &host, &port)) continue;
    int fd = DialPeer(host, port, timeout_ms);
    if (fd < 0) continue;
    std::string buffer;
    WireReply reply;
    const std::string demote = "REPL DEMOTE " +
                               std::to_string(plan.winner_term) +
                               " primary=" + plan.winner + "\n";
    if (SendAll(fd, demote) && ReadWireReply(fd, &buffer, &reply).ok() &&
        ReplyOk(reply)) {
      ++demoted;
      MetricAdd("fence/demotions_sent", 1);
      OOCQ_LOG(Info, "fence")
          .Msg("demoted stale primary")
          .With("peer", peer.address)
          .With("peer_term", peer.term)
          .With("winner", plan.winner)
          .With("winner_term", plan.winner_term);
    }
    (void)SendAll(fd, "QUIT\n");
    ::close(fd);
  }
  return demoted;
}

}  // namespace oocq::replicate
