#ifndef SERVICEBENCH_WORKLOAD_H_
#define SERVICEBENCH_WORKLOAD_H_

// Seeded request lists for the in-process oocq service benchmark. The
// schema and each workload's catalog are fixed; the seed draws only the
// requests, so two seeds load identical catalogs and differ only in which
// queries arrive in which order. The verb shares, popularity skew and
// pool sizes in workload.cc are assumptions, not measured traffic; the
// README lists which are assumed.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace servicebench {

enum class Verb { kContain, kEquiv, kMinimize, kSat, kEval, kDefine, kState };

const char* VerbName(Verb verb);

/// One protocol request. `q1`/`q2` hold query text or `@name`; for
/// DEFINE `name` is the view and `q1` its text; for STATE `q1` is the
/// state text.
struct Request {
  Verb verb = Verb::kContain;
  std::string name;
  std::string q1;
  std::string q2;
  /// The request as wire bytes, ready for ConnectionHandler::Feed.
  std::string frame;

  bool write() const { return verb == Verb::kDefine || verb == Verb::kState; }
};

/// The fixed catalog a workload recovers at set-up: written once as a
/// snapshot (base views, state, and the containment-cache entries the
/// `prewarm` requests leave behind) plus a WAL tail (`tail_views`).
struct CatalogPlan {
  std::string schema_text;
  std::vector<std::pair<std::string, std::string>> views;
  std::string state_text;
  std::vector<Request> prewarm;
  std::vector<std::pair<std::string, std::string>> tail_views;
};

struct Workload {
  CatalogPlan catalog;
  /// Sent after recovery inside the timed set-up.
  std::vector<Request> warmup;
  /// The measured requests, identical in every repetition of a run.
  std::vector<Request> window;
  /// EVAL queries the durability check sends to both the live service
  /// and the service recovered from a copy of its data directory.
  std::vector<std::string> probe_queries;
};

/// The session id the prepared catalog creates (the first one minted).
inline constexpr const char* kSession = "s1";

bool IsWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Builds workload `name`: the catalog is fixed, `seed` draws the requests.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// Renders `request.frame` from its fields.
void Frame(Request* request);

}  // namespace servicebench

#endif  // SERVICEBENCH_WORKLOAD_H_
