#ifndef SERVICEBENCH_REPLAY_H_
#define SERVICEBENCH_REPLAY_H_

// The traced run's layer split. The service itself is not instrumented:
// each request is replayed through the same public calls
// OocqService::Run makes, against a mirror session with the same schema,
// catalog contents and cache options, and every call becomes a span.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compile/program_cache.h"
#include "core/containment_cache.h"
#include "core/engine_options.h"
#include "query/query.h"
#include "schema/schema.h"
#include "state/state.h"
#include "workload.h"

namespace servicebench {

enum class Phase : uint8_t { kSetup, kWarmup, kWindow };

struct Span {
  uint32_t request = 0;  // index within its phase
  Phase phase = Phase::kSetup;
  const char* name = "";
  int32_t parent = -1;   // index into the span list; -1 for a root
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// Spans in memory; written out once the run ends.
class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent);
  void End(int32_t id);
  /// Renames an open span (a cache call is a lookup or a decision only
  /// once its hit counter has been read).
  void Rename(int32_t id, const char* name) { spans_[id].name = name; }
  int32_t Add(const char* name, int32_t parent, uint64_t start_ns,
              uint64_t dur_ns);

  uint32_t request = 0;
  Phase phase = Phase::kSetup;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Mirror {
 public:
  /// Recovers the mirror from its own copy of the prepared data
  /// directory: the same records the service replays at construction.
  static std::unique_ptr<Mirror> Open(const std::string& data_dir,
                                      Tracer* tracer);

  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  /// Replays one request under a `replay.run` span whose parent is
  /// `parent`.
  void Replay(const Request& request, Tracer* tracer, int32_t parent);

 private:
  explicit Mirror(oocq::Schema schema) : schema_(std::move(schema)) {}

  oocq::Schema schema_;
  std::map<std::string, oocq::ConjunctiveQuery> named_;
  std::optional<oocq::State> state_;
  oocq::EngineOptions engine_;
  std::unique_ptr<oocq::ContainmentCache> cache_;
  std::unique_ptr<oocq::compile::ProgramCache> programs_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_REPLAY_H_
