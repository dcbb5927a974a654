#ifndef OOCQ_REPLICATE_PEER_H_
#define OOCQ_REPLICATE_PEER_H_

/// Client-side plumbing for talking to an oocq server as a *peer*:
/// blocking dial with a receive timeout, whole-reply reads of the
/// dot-stuffed line protocol, field extraction off reply status lines,
/// and the two conversations of the fencing sweep (docs/replication.md
/// #terms-and-fencing): the HEALTH probe and REPL DEMOTE. Shared by the
/// follower tail (replicate/follower.cc), the session router's prober
/// (examples/oocq_route.cpp) and tests so all speak the wire identically.
///
/// Every dial funnels through the `net/partition` failpoint labeled
/// with the peer's "host:port", which is how chaos tests black-hole a
/// specific peer without killing its process (docs/robustness.md).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "replicate/role.h"
#include "support/status.h"

namespace oocq::replicate {

/// One "."-terminated reply: the status line plus dot-unstuffed payload.
struct WireReply {
  std::string status;
  std::vector<std::string> payload;
};

/// Splits "host:port" (port 1..65535). False on malformed input.
bool SplitHostPort(const std::string& address, std::string* host,
                   uint16_t* port);

/// Dials host:port (blocking connect) and sets SO_RCVTIMEO so a peer
/// that stops answering — partition, wedged process — can never hang
/// the caller past `rcv_timeout_ms`. Checks the `net/partition`
/// failpoint labeled "host:port" first; an armed partition makes the
/// dial fail exactly like an unreachable host. Returns -1 on failure.
int DialPeer(const std::string& host, uint16_t port, uint32_t rcv_timeout_ms);

/// Sends the whole buffer; false on a closed or failing socket.
bool SendAll(int fd, const std::string& data);

/// Reads one full reply into `reply`, buffering partial reads across
/// calls in `buffer`. kUnavailable on timeout, reset, or close.
Status ReadWireReply(int fd, std::string* buffer, WireReply* reply);

/// "key=value" numeric fields off a reply status line
/// ("OK next=42 epoch=1 ..."). 0 when absent.
uint64_t FieldUint(const std::string& status, const std::string& key);

/// String-valued fields ("OK role=primary ..."). Empty when absent.
std::string FieldString(const std::string& status, const std::string& key);

bool ReplyOk(const WireReply& reply);
bool ReplyFailedPrecondition(const WireReply& reply);

/// Probes `address` with one HEALTH round trip over a fresh connection.
/// Never fails: an unreachable peer comes back with reachable=false.
PeerStatus ProbePeer(const std::string& address, uint32_t timeout_ms);

/// Sends `REPL DEMOTE <winner_term> primary=<winner>` to every primary in
/// `plan.to_fence` (replicate/role.h: PlanFleet). Best-effort; returns
/// how many acknowledged. A primary whose fence fails keeps its role and
/// term, so the next sweep plans it again.
size_t FenceStalePrimaries(const FleetPlan& plan, uint32_t timeout_ms);

}  // namespace oocq::replicate

#endif  // OOCQ_REPLICATE_PEER_H_
