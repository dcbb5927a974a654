// In-process benchmark of the oocq service: raw request frames go through
// server::ConnectionHandler, ProtocolHandler::Handle and
// OocqService::Execute with a persist::DurableCatalog on oocq_serve's
// defaults, from one closed-loop client. See README.md for the workloads
// and metrics.
//
//   servicebench prepare --workload W --dir D
//   servicebench run --workload W --seed N --seconds S --trace 0|1 --dir D
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common.h"
#include "oracle.h"
#include "persist/catalog.h"
#include "replay.h"
#include "server/service.h"
#include "support/metrics.h"
#include "workload.h"

#ifndef SERVICEBENCH_BUILD_TYPE
#define SERVICEBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;

namespace servicebench {
namespace {

using oocq::persist::DurableCatalog;
using oocq::server::OocqService;

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  std::string git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ---- Host stamp ---------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.substr(0, model.find('\0'));
    while (!model.empty() && model.back() == ' ') model.pop_back();
    return model;
  }
#endif
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

/// One JSON line ahead of the result, following bench_util.h's
/// BeginBenchJson: what was measured, where, and from which build.
void PrintStamp(const Args& args, const std::string& data_dir, int cpu) {
  const std::string build_type = SERVICEBENCH_BUILD_TYPE;
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"cpu_model\": "
      "\"%s\", \"nproc\": %u, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"data_dir_fs\": \"%s\", \"pinned_cpu\": %d, \"load\": \"closed loop, 1 "
      "client, 1 in flight\", \"service\": \"4 workers, 200us group commit, "
      "60s snapshots\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      CpuModel().c_str(), std::thread::hardware_concurrency(),
      build_type.c_str(), args.git_sha.c_str(),
      FilesystemOf(data_dir).c_str(), cpu);
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "\n*** WARNING: servicebench built as '%s', not Release. "
                 "Its timings are not comparable. ***\n\n",
                 build_type.c_str());
  }
}

/// Restricts this thread, and so every thread it starts later (the
/// service's workers, the WAL's group-commit leader), to the lowest CPU
/// it may run on. With one request in flight the pool handoff is then a
/// same-CPU switch: on a shared 4-vCPU VM, waking a worker on another
/// vCPU cost ~150 us per request and varied up to 2x between runs,
/// swamping the code under test. Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// ---- Small helpers ------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double CpuSeconds() {
  rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set (VmHWM) in MB.
double PeakRssMb() {
  rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// Writes back the filesystem holding `dir`. Called before set-up is
/// timed: otherwise the kernel writes back the copy and the previous
/// repetition's files while set-up is timed.
void SyncFs(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

bool IsOk(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

std::unique_ptr<DurableCatalog> OpenCatalog(const std::string& data_dir) {
  // oocq_serve's defaults: 60 s snapshot cadence, 200 us group commit.
  oocq::persist::DurableCatalogOptions options;
  options.data_dir = data_dir;
  oocq::StatusOr<std::unique_ptr<DurableCatalog>> catalog =
      DurableCatalog::Open(options);
  if (!catalog.ok()) throw std::runtime_error(catalog.status().ToString());
  return *std::move(catalog);
}

std::unique_ptr<OocqService> StartService(
    std::shared_ptr<DurableCatalog> catalog) {
  // oocq_serve's defaults: 4 workers, queue 64, serial engine,
  // compilation on, no deadline, no budget.
  oocq::server::ServiceOptions options;
  options.catalog = std::move(catalog);
  return std::make_unique<OocqService>(options);
}

std::string SessionFrame(const std::string& schema_text) {
  return "SESSION NEW\n" + schema_text + (schema_text.back() == '\n' ? "" : "\n") +
         ".\n";
}

// ---- prepare ------------------------------------------------------------

/// Writes the workload's fixed catalog: a snapshot holding the session,
/// the base views, the state and the containment-cache entries the
/// prewarm requests leave behind, plus a WAL tail of further DEFINEs.
int Prepare(const Args& args) {
  const Workload w = MakeWorkload(args.workload, 0);
  const fs::path final_dir = fs::path(args.dir) / "prepared" / args.workload;
  const fs::path stage = final_dir.string() + ".stage";
  fs::remove_all(final_dir);
  fs::remove_all(stage);
  auto expect_ok = [](const std::string& reply, const std::string& what) {
    if (!IsOk(reply)) {
      throw std::runtime_error("prepare: " + what + " -> " + FirstLine(reply));
    }
  };
  {
    auto service = StartService(OpenCatalog(stage.string()));
    Connection conn(service.get());
    const std::string created = conn.Send(SessionFrame(w.catalog.schema_text));
    if (FirstLine(created) != std::string("OK session=") + kSession) {
      throw std::runtime_error("prepare: SESSION NEW -> " + FirstLine(created));
    }
    for (const auto& [name, text] : w.catalog.views) {
      Request define;
      define.verb = Verb::kDefine;
      define.name = name;
      define.q1 = text;
      Frame(&define);
      expect_ok(conn.Send(define.frame), "DEFINE " + name);
    }
    Request state;
    state.verb = Verb::kState;
    state.q1 = w.catalog.state_text;
    Frame(&state);
    expect_ok(conn.Send(state.frame), "STATE");
    for (const Request& r : w.catalog.prewarm) {
      expect_ok(conn.Send(r.frame), FirstLine(r.frame));
    }
  }  // the service's final snapshot carries the warm cache
  {
    std::shared_ptr<DurableCatalog> catalog = OpenCatalog(stage.string());
    auto service = StartService(catalog);
    const uint64_t cache_entries =
        service->metrics().CounterValue("persist/restored_cache_entries");
    Connection conn(service.get());
    for (const auto& [name, text] : w.catalog.tail_views) {
      Request define;
      define.verb = Verb::kDefine;
      define.name = name;
      define.q1 = text;
      Frame(&define);
      expect_ok(conn.Send(define.frame), "DEFINE " + name);
    }
    // Acked appends are fsynced: copying now captures snapshot + WAL tail,
    // as a crash would leave them.
    CopyDir(stage, final_dir);
    std::fprintf(stderr,
                 "prepared %s: %zu views + %zu in the WAL tail, %llu cache "
                 "entries, state %zu bytes\n",
                 args.workload.c_str(), w.catalog.views.size(),
                 w.catalog.tail_views.size(),
                 static_cast<unsigned long long>(cache_entries),
                 w.catalog.state_text.size());
  }
  fs::remove_all(stage);
  return 0;
}

// ---- run ----------------------------------------------------------------

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 40;
/// A traced run whose spans leave this share of request time unexplained
/// is incorrect: its layer split cannot be trusted.
constexpr double kMaxUnattributedFrac = 0.10;

/// Service counters read per request (per-layer counts) and compared
/// against the replay (the ones the replay must reproduce exactly).
const char* const kCounters[] = {
    "cache/hit",          "cache/miss",
    "expand/raw_disjuncts", "expand/satisfiable_disjuncts",
    "containment/mapping_steps", "containment/membership_subsets",
    "compile/mask_scans", "compile/mask_fallbacks",
    "compile/cache_hits", "compile/cache_misses",
    "eval/assignments",
};
constexpr size_t kNumCounters = std::size(kCounters);
constexpr size_t kComparedCounters[] = {0, 1, 2, 3, 10};

struct CounterSet {
  uint64_t v[kNumCounters] = {};
};

class Counters {
 public:
  explicit Counters(oocq::MetricsRegistry* registry) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters_[i] = registry->Counter(kCounters[i]);
    }
  }
  CounterSet Read() const {
    CounterSet s;
    for (size_t i = 0; i < kNumCounters; ++i) s.v[i] = counters_[i]->value();
    return s;
  }

 private:
  oocq::MetricCounter* counters_[kNumCounters];
};

CounterSet Delta(const CounterSet& a, const CounterSet& b) {
  CounterSet d;
  for (size_t i = 0; i < kNumCounters; ++i) d.v[i] = b.v[i] - a.v[i];
  return d;
}

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double open_us = 0;
  double restore_us = 0;
  double window_s = 0;
  double cpu_us_per_op = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<uint64_t> hashes;
  std::map<size_t, std::string> kept;  // MINIMIZE and error replies
  CounterSet counters;                 // window deltas (untraced reps)
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t writes = 0;
  uint64_t answers = 0;
  double request_sum_us = 0;  // Σ Feed→Handle over the window
  std::unique_ptr<Tracer> tracer;
  uint64_t trace_mismatches = 0;
};

struct Checks {
  uint64_t failed = 0;
  bool warmup_ok = true;
  bool durable = true;
  uint64_t trace_mismatches = 0;
  double peak_rss_mb = 0;
};

uint64_t EvalAnswers(const std::string& reply) {
  uint64_t lines = 0;
  for (char c : reply) lines += c == '\n';
  return lines >= 2 ? lines - 2 : 0;
}

/// After the window: every reply of every repetition against the oracle.
uint64_t CheckReplies(const Workload& w, const std::vector<Rep>& reps) {
  Oracle oracle(w.catalog);
  for (const Request& r : w.warmup) (void)oracle.Expect(r);
  uint64_t failed = 0;
  int reported = 0;
  for (size_t i = 0; i < w.window.size(); ++i) {
    const Request& r = w.window[i];
    const Oracle::Expectation e = oracle.Expect(r);
    for (const Rep& rep : reps) {
      auto kept = rep.kept.find(i);
      const std::string* text = kept != rep.kept.end() ? &kept->second : nullptr;
      if (!oracle.Matches(e, rep.hashes[i], text)) {
        ++failed;
        if (reported++ < 5) {
          std::fprintf(stderr, "MISMATCH request %zu %s\n  got:      %s\n  expected: %s\n",
                       i, FirstLine(r.frame).c_str(),
                       text != nullptr ? FirstLine(*text).c_str() : "(hash only)",
                       FirstLine(e.text).c_str());
        }
      }
    }
  }
  return failed;
}

/// Copies the live data directory, recovers a second service from the
/// copy, and checks that every acknowledged DEFINE resolves there and
/// that the recovered state answers the probe EVALs like the live one.
bool CheckDurability(const Workload& w, const fs::path& live_dir,
                     const fs::path& copy_dir, Connection* live,
                     const std::vector<std::string>& acked_defines) {
  CopyDir(live_dir, copy_dir);
  bool ok = true;
  {
    auto service = StartService(OpenCatalog(copy_dir.string()));
    Connection copy(service.get());
    for (const std::string& name : acked_defines) {
      const std::string reply = copy.Send(std::string("CONTAIN ") + kSession +
                                          "\n@" + name + "\n@" + name + "\n.\n");
      if (reply != "OK contained=1\n.\n") {
        std::fprintf(stderr, "DURABILITY: @%s -> %s\n", name.c_str(),
                     FirstLine(reply).c_str());
        ok = false;
      }
    }
    for (const std::string& q : w.probe_queries) {
      const std::string frame = std::string("EVAL ") + kSession + "\n" + q + "\n.\n";
      const std::string a = live->Send(frame);
      const std::string b = copy.Send(frame);
      if (a != b || !IsOk(a)) {
        std::fprintf(stderr, "DURABILITY: probe EVAL differs: %s vs %s\n",
                     FirstLine(a).c_str(), FirstLine(b).c_str());
        ok = false;
      }
    }
  }
  fs::remove_all(copy_dir);
  return ok;
}

/// EVAL/SAT/MINIMIZE resolve an `@name` payload against the name plus
/// the '\n' protocol.cc's JoinLines appends, so today they answer
/// NOT_FOUND. Printed once per run, outside the window.
void ProbeKnownDefect(const Workload& w, Connection* conn) {
  const std::string& name = w.catalog.views.front().first;
  for (const char* verb : {"EVAL", "SAT", "MINIMIZE"}) {
    const std::string reply = conn->Send(std::string(verb) + " " + kSession +
                                         "\n@" + name + "\n.\n");
    std::printf("known_defect verb=%s payload=@%s reply=\"%s\"\n", verb,
                name.c_str(), FirstLine(reply).c_str());
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Every metric is the median over the run's repetitions, which all
/// send the same requests. On the shared 4-vCPU host the same window's
/// CPU time drifts +-20% in phases of seconds; across same-seed runs the
/// median of the repetitions varied about half as much as their lower
/// quartile or minimum (bench_observability's estimator), so the median
/// is used.
std::vector<Metric> EndToEnd(const std::vector<Rep>& reps, size_t window,
                             double peak_rss_mb) {
  std::vector<double> setup, window_s, read_p50, write_p50, cpu;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s);
    if (rep.traced) continue;
    window_s.push_back(rep.window_s);
    read_p50.push_back(Median(rep.read_us));
    write_p50.push_back(Median(rep.write_us));
    cpu.push_back(rep.cpu_us_per_op);
  }
  return {
      {"setup_s", Median(setup), "s"},
      {"ops_per_s", static_cast<double>(window) / Median(window_s), "1/s"},
      {"latency_p50_us", Median(read_p50), "us"},
      {"write_p50_us", Median(write_p50), "us"},
      {"cpu_us_per_op", Median(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Rep>& reps, const Workload& w) {
  // Span samples by name and phase; a layer the window never calls
  // reports its warm-up (then set-up) samples instead of nothing.
  std::map<std::string, std::vector<double>> by_phase[3];
  std::vector<double> frame, overhead, render;
  double unattributed_ns = 0, total_ns = 0;
  std::vector<double> traced_sums, plain_sums;
  for (const Rep& rep : reps) {
    (rep.traced ? traced_sums : plain_sums).push_back(rep.request_sum_us);
    if (!rep.traced) continue;
    const std::vector<Span>& spans = rep.tracer->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.dur_ns;
    }
    // Window requests: request -> {frame, handle -> served, run}, where
    // served is execute (reads, parent of run) or persist.log (writes).
    for (size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      by_phase[static_cast<int>(s.phase)][s.name].push_back(
          static_cast<double>(s.dur_ns) / 1e3);
      if (s.phase != Phase::kWindow || std::strcmp(s.name, "request") != 0) {
        continue;
      }
      const double f = static_cast<double>(spans[k + 1].dur_ns);
      const double h = static_cast<double>(spans[k + 2].dur_ns);
      const double served = static_cast<double>(spans[k + 3].dur_ns);
      const double run = static_cast<double>(spans[k + 4].dur_ns);
      frame.push_back(f / 1e3);
      // Whatever the spans do not add up to is unattributed, in either
      // direction: a replay slower than the service's Execute, or spans
      // that overlap, counts as much as time no span covers. A request
      // cannot leave more than its own duration unexplained, so a replay
      // that a preemption stretched to many times the request counts
      // once, as fully unexplained.
      double unattributed = std::abs(static_cast<double>(s.dur_ns) - f - h);
      unattributed += run - static_cast<double>(child_ns[k + 4]);
      if (w.window[s.request].write()) {
        unattributed += std::abs(h - served - run);
      } else {
        render.push_back(std::max(0.0, h - served) / 1e3);
        overhead.push_back(std::max(0.0, served - run) / 1e3);
        unattributed += std::max(0.0, served - h) + std::max(0.0, run - served);
      }
      unattributed_ns += std::min(unattributed, static_cast<double>(s.dur_ns));
      total_ns += static_cast<double>(s.dur_ns);
    }
  }
  auto layer = [&](const char* name) {
    for (int phase : {2, 1, 0}) {
      auto it = by_phase[phase].find(name);
      if (it != by_phase[phase].end() && !it->second.empty()) {
        return Median(it->second);
      }
    }
    return 0.0;
  };

  std::vector<double> read_all, write_all, open, restore;
  CounterSet c;
  double ops = 0, writes = 0, syncs = 0, wal_bytes = 0, answers = 0;
  for (const Rep& rep : reps) {
    open.push_back(rep.open_us);
    restore.push_back(rep.restore_us);
    if (rep.traced) continue;
    read_all.insert(read_all.end(), rep.read_us.begin(), rep.read_us.end());
    write_all.insert(write_all.end(), rep.write_us.begin(), rep.write_us.end());
    for (size_t i = 0; i < kNumCounters; ++i) c.v[i] += rep.counters.v[i];
    ops += static_cast<double>(w.window.size());
    writes += static_cast<double>(rep.writes);
    syncs += static_cast<double>(rep.wal_syncs);
    wal_bytes += static_cast<double>(rep.wal_bytes);
    answers += static_cast<double>(rep.answers);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double hits = static_cast<double>(c.v[0]), misses = static_cast<double>(c.v[1]);
  return {
      {"server.frame_us", Median(frame), "us"},
      {"server.execute_overhead_us", Median(overhead), "us"},
      {"server.render_us", Median(render), "us"},
      {"server.body_us", layer("server.body"), "us"},
      {"server.latency_p99_us", Quantile(read_all, 0.99), "us"},
      {"server.write_p99_us", Quantile(write_all, 0.99), "us"},
      {"parser.query_us", layer("parser.query"), "us"},
      {"parser.state_us", layer("parser.state"), "us"},
      {"query.well_form_us", layer("query.well_form"), "us"},
      {"core.expand_us", layer("core.expand"), "us"},
      {"core.cache_lookup_us", layer("core.cache_lookup"), "us"},
      {"core.contain_us", layer("core.contain"), "us"},
      {"core.union_contained_us", layer("core.union_contained"), "us"},
      {"core.minimize_us", layer("core.minimize"), "us"},
      {"core.satisfiable_us", layer("core.satisfiable"), "us"},
      {"core.cache_hit_rate", ratio(hits, hits + misses), "ratio"},
      {"core.expand_disjuncts_per_op", ratio(static_cast<double>(c.v[3]), ops), "count"},
      {"core.mapping_steps_per_op", ratio(static_cast<double>(c.v[4]), ops), "count"},
      {"core.subsets_tested_per_op", ratio(static_cast<double>(c.v[5]), ops), "count"},
      {"compile.mask_scans_per_op", ratio(static_cast<double>(c.v[6]), ops), "count"},
      {"compile.mask_fallback_frac",
       ratio(static_cast<double>(c.v[7]), static_cast<double>(c.v[6] + c.v[7])), "ratio"},
      {"compile.program_us", layer("compile.program"), "us"},
      {"compile.program_hit_rate",
       ratio(static_cast<double>(c.v[8]), static_cast<double>(c.v[8] + c.v[9])), "ratio"},
      {"state.evaluate_us", layer("state.evaluate"), "us"},
      {"state.bindings_per_op", ratio(static_cast<double>(c.v[10]), ops), "count"},
      {"state.answers_per_op", ratio(answers, ops), "count"},
      {"persist.open_us", Median(open), "us"},
      {"persist.restore_us", Median(restore), "us"},
      {"persist.log_us", layer("persist.log"), "us"},
      {"persist.fsyncs_per_write", ratio(syncs, writes), "count"},
      {"persist.wal_bytes_per_write", ratio(wal_bytes, writes), "B"},
      {"trace.unattributed_frac", ratio(unattributed_ns, total_ns), "ratio"},
      {"trace.overhead_frac", ratio(Median(traced_sums), Median(plain_sums)) - 1.0,
       "ratio"},
  };
}

void WriteSpans(const fs::path& path, const Rep& rep) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  static const char* kPhase[] = {"setup", "warmup", "window"};
  const std::vector<Span>& spans = rep.tracer->spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"phase\": \""
        << kPhase[static_cast<int>(s.phase)] << "\", \"request\": " << s.request
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"dur_ns\": " << s.dur_ns << "}\n";
  }
}

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload, args.seed);
  const fs::path root = fs::path(args.dir);
  const fs::path prepared = root / "prepared" / args.workload;
  if (!fs::exists(prepared)) {
    std::fprintf(stderr, "no prepared catalog at %s\n", prepared.c_str());
    return 2;
  }
  const fs::path run_dir = root / ("run-" + std::to_string(getpid()));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  PrintStamp(args, run_dir.string(), PinToOneCpu());

  std::vector<Rep> reps;
  Checks checks;
  const uint64_t start_ns = NowNs();
  double longest_rep_s = 0;
  for (size_t index = 0;; ++index) {
    const uint64_t rep_start = NowNs();
    Rep rep;
    rep.traced = args.trace && index % 2 == 1;
    const fs::path live_dir = run_dir / "live";
    CopyDir(prepared, live_dir);
    SyncFs(live_dir);

    // ---- set-up (timed): recovery, restore, warm-up ----
    const uint64_t t0 = NowNs();
    std::shared_ptr<DurableCatalog> catalog = OpenCatalog(live_dir.string());
    const uint64_t t1 = NowNs();
    auto service = StartService(catalog);
    const uint64_t t2 = NowNs();
    Connection conn(service.get());
    for (const Request& r : w.warmup) {
      const std::string reply = conn.Send(r.frame);
      if (!IsOk(reply)) {
        checks.warmup_ok = false;
        std::fprintf(stderr, "warm-up %s -> %s\n", FirstLine(r.frame).c_str(),
                     FirstLine(reply).c_str());
      }
    }
    const uint64_t t3 = NowNs();
    rep.setup_s = static_cast<double>(t3 - t0) / 1e9;
    rep.open_us = static_cast<double>(t1 - t0) / 1e3;
    rep.restore_us = static_cast<double>(t2 - t1) / 1e3;

    std::unique_ptr<Mirror> mirror;
    const fs::path mirror_dir = run_dir / "mirror";
    if (rep.traced) {
      rep.tracer = std::make_unique<Tracer>();
      CopyDir(prepared, mirror_dir);
      mirror = Mirror::Open(mirror_dir.string(), rep.tracer.get());
      rep.tracer->phase = Phase::kWarmup;
      for (size_t i = 0; i < w.warmup.size(); ++i) {
        rep.tracer->request = static_cast<uint32_t>(i);
        mirror->Replay(w.warmup[i], rep.tracer.get(), -1);
      }
      rep.tracer->phase = Phase::kWindow;
    }

    // ---- window ----
    Counters counters(service->metrics_registry());
    oocq::MetricHistogram* exec_hist =
        service->metrics_registry()->Histogram("server/latency_us");
    oocq::MetricHistogram* log_hist =
        service->metrics_registry()->Histogram("persist/wal_append_us");
    oocq::persist::WriteAheadLog* wal = catalog->wal();
    const CounterSet c0 = counters.Read();
    const uint64_t syncs0 = wal->syncs();
    const uint64_t bytes0 = wal->synced_bytes();
    rep.hashes.resize(w.window.size());
    std::vector<std::string> acked_defines;
    const double cpu0 = CpuSeconds();
    const uint64_t wall0 = NowNs();
    for (size_t i = 0; i < w.window.size(); ++i) {
      const Request& r = w.window[i];
      const uint64_t exec0 = rep.traced ? exec_hist->sum() : 0;
      const uint64_t log0 = rep.traced ? log_hist->sum() : 0;
      const CounterSet before = rep.traced ? counters.Read() : CounterSet{};
      const uint64_t a = NowNs();
      const bool framed = conn.Frame(r.frame);
      const uint64_t b = NowNs();
      std::string reply = framed ? conn.Handle() : "ERR FRAMING\n.\n";
      const uint64_t c = NowNs();
      const double us = static_cast<double>(c - a) / 1e3;
      (r.write() ? rep.write_us : rep.read_us).push_back(us);
      rep.request_sum_us += us;
      rep.hashes[i] = Hash(reply);
      if (r.verb == Verb::kMinimize || !IsOk(reply)) rep.kept.emplace(i, reply);
      if (r.verb == Verb::kEval) rep.answers += EvalAnswers(reply);
      if (r.verb == Verb::kDefine && IsOk(reply)) acked_defines.push_back(r.name);
      rep.writes += r.write() ? 1 : 0;
      if (rep.traced) {
        Tracer* t = rep.tracer.get();
        t->request = static_cast<uint32_t>(i);
        const CounterSet served = Delta(before, counters.Read());
        const int32_t req = t->Add("request", -1, a, c - a);
        t->Add("server.frame", req, a, b - a);
        const int32_t handle = t->Add("server.handle", req, b, c - b);
        // The service's own histograms time the call a request spends
        // most of its time in: Execute for reads, the WAL append for
        // writes. The replay, re-timed, splits the rest.
        const int32_t served_span =
            r.write() ? t->Add("persist.log", handle, b, (log_hist->sum() - log0) * 1000)
                      : t->Add("server.execute", handle, b,
                               (exec_hist->sum() - exec0) * 1000);
        const CounterSet replay0 = counters.Read();
        mirror->Replay(r, t, r.write() ? handle : served_span);
        const CounterSet replayed = Delta(replay0, counters.Read());
        for (size_t k : kComparedCounters) {
          if (served.v[k] != replayed.v[k]) {
            if (rep.trace_mismatches++ < 5) {
              std::fprintf(stderr, "TRACE: request %zu %s: %s service=%llu replay=%llu\n",
                           i, FirstLine(r.frame).c_str(), kCounters[k],
                           static_cast<unsigned long long>(served.v[k]),
                           static_cast<unsigned long long>(replayed.v[k]));
            }
          }
        }
      }
    }
    const uint64_t wall1 = NowNs();
    const double cpu1 = CpuSeconds();
    rep.window_s = static_cast<double>(wall1 - wall0) / 1e9;
    rep.cpu_us_per_op = (cpu1 - cpu0) * 1e6 / static_cast<double>(w.window.size());
    std::fprintf(stderr, "rep %zu%s: setup_s=%.4f (open_us=%.0f restore_us=%.0f) "
                 "window_s=%.4f cpu_us_per_op=%.1f read_p50_us=%.1f write_p50_us=%.1f\n",
                 index, rep.traced ? " (traced)" : "", rep.setup_s, rep.open_us,
                 rep.restore_us, rep.window_s,
                 rep.cpu_us_per_op, Median(rep.read_us), Median(rep.write_us));
    rep.counters = Delta(c0, counters.Read());
    rep.wal_syncs = wal->syncs() - syncs0;
    rep.wal_bytes = wal->synced_bytes() - bytes0;
    checks.peak_rss_mb = PeakRssMb();
    checks.trace_mismatches += rep.trace_mismatches;
    reps.push_back(std::move(rep));

    const double elapsed_s = static_cast<double>(NowNs() - start_ns) / 1e9;
    longest_rep_s = std::max(longest_rep_s, static_cast<double>(NowNs() - rep_start) / 1e9);
    const bool last = reps.size() >= kMaxReps ||
                      (reps.size() >= kMinReps && elapsed_s + longest_rep_s > args.seconds);
    if (last) {
      // ---- checks (untimed) ----
      ProbeKnownDefect(w, &conn);
      std::vector<std::string> names;
      for (const auto* views : {&w.catalog.views, &w.catalog.tail_views}) {
        for (const auto& [name, text] : *views) names.push_back(name);
      }
      for (const Request& r : w.warmup) {
        if (r.verb == Verb::kDefine) names.push_back(r.name);
      }
      names.insert(names.end(), acked_defines.begin(), acked_defines.end());
      checks.durable = CheckDurability(w, live_dir, run_dir / "copy", &conn, names);
      for (auto it = reps.rbegin(); it != reps.rend(); ++it) {
        if (!it->traced) continue;
        // One file per workload, overwritten by each traced run.
        WriteSpans(root / "trace" / (args.workload + ".jsonl"), *it);
        break;
      }
    }
    mirror.reset();
    service.reset();
    catalog.reset();
    fs::remove_all(live_dir);
    fs::remove_all(mirror_dir);
    if (last) break;
  }
  checks.failed = CheckReplies(w, reps);
  fs::remove_all(run_dir);

  uint64_t attempted = 0;
  for (const Rep& rep : reps) attempted += rep.hashes.size();
  bool correct = checks.failed == 0 && checks.warmup_ok && checks.durable &&
                 checks.trace_mismatches == 0;
  std::fprintf(stderr,
               "%s seed=%llu: %zu reps of %zu requests, failed=%llu warmup_ok=%d "
               "durable=%d trace_mismatches=%llu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               reps.size(), w.window.size(), static_cast<unsigned long long>(checks.failed),
               checks.warmup_ok, checks.durable,
               static_cast<unsigned long long>(checks.trace_mismatches));
  std::vector<Metric> metrics =
      args.trace ? PerLayer(reps, w) : EndToEnd(reps, w.window.size(), checks.peak_rss_mb);
  if (args.trace) {
    // The layer split is only trusted while it explains the requests.
    for (const Metric& m : metrics) {
      if (m.name == "trace.unattributed_frac" && m.value >= kMaxUnattributedFrac) {
        std::fprintf(stderr, "TRACE: unattributed_frac %.4f >= %.2f\n", m.value,
                     kMaxUnattributedFrac);
        correct = false;
      }
    }
  }
  PrintResult(correct, attempted, checks.failed, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--dir") args->dir = value;
    else if (key == "--git-sha") args->git_sha = value;
    else if (key == "--seed") args->seed = std::stoull(value);
    else if (key == "--seconds") args->seconds = std::stod(value);
    else if (key == "--trace") args->trace = value == "1";
    else return false;
  }
  return (args->mode == "prepare" || args->mode == "run") &&
         IsWorkload(args->workload) && !args->dir.empty();
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  servicebench::Args args;
  if (!servicebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servicebench prepare|run --workload W --dir D "
                 "[--seed N] [--seconds S] [--trace 0|1] [--git-sha SHA]\n");
    return 2;
  }
  try {
    return args.mode == "prepare" ? servicebench::Prepare(args)
                                  : servicebench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servicebench: %s\n", e.what());
    return 1;
  }
}
