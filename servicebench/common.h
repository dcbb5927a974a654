#ifndef SERVICEBENCH_COMMON_H_
#define SERVICEBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace servicebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// FNV-1a: replies are compared by hash so a run keeps no reply bodies
/// resident while it measures peak memory.
inline uint64_t Hash(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One connection's worth of the server's request path, minus the
/// socket: framing (ConnectionHandler) then dispatch (ProtocolHandler).
class Connection {
 public:
  explicit Connection(oocq::server::OocqService* service) : protocol_(service) {}

  /// Feeds one request frame and extracts it; false on a framing error.
  bool Frame(const std::string& bytes) {
    framer_.Feed(bytes.data(), bytes.size());
    return framer_.Next(&command_, &payload_) ==
           oocq::server::ConnectionHandler::FrameResult::kRequest;
  }
  std::string Handle() { return protocol_.Handle(command_, payload_).text; }

  std::string Send(const std::string& bytes) {
    return Frame(bytes) ? Handle() : "ERR FRAMING\n.\n";
  }

 private:
  oocq::server::ConnectionHandler framer_;
  oocq::server::ProtocolHandler protocol_;
  oocq::server::CommandLine command_;
  std::vector<std::string> payload_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_COMMON_H_
