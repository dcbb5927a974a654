#include "replay.h"

#include <stdexcept>

#include "common.h"
#include "core/containment.h"
#include "core/expansion.h"
#include "core/general_minimization.h"
#include "core/minimization.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "persist/catalog.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"

namespace servicebench {

using oocq::ConjunctiveQuery;
using oocq::StatusOr;
using oocq::UnionQuery;

int32_t Tracer::Begin(const char* name, int32_t parent) {
  Span span;
  span.request = request;
  span.phase = phase;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  spans_[id].dur_ns = NowNs() - spans_[id].start_ns;
}

int32_t Tracer::Add(const char* name, int32_t parent, uint64_t start_ns,
                    uint64_t dur_ns) {
  Span span;
  span.request = request;
  span.phase = phase;
  span.name = name;
  span.parent = parent;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

namespace {

class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, int32_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~Scoped() { tracer_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace

std::unique_ptr<Mirror> Mirror::Open(const std::string& data_dir,
                                     Tracer* tracer) {
  oocq::persist::DurableCatalogOptions options;
  options.data_dir = data_dir;
  options.snapshot_interval_s = 0;
  StatusOr<std::unique_ptr<oocq::persist::DurableCatalog>> catalog =
      oocq::persist::DurableCatalog::Open(options);
  if (!catalog.ok()) throw std::runtime_error(catalog.status().ToString());
  std::unique_ptr<Mirror> mirror;
  for (const oocq::persist::Record& record : (*catalog)->recovered()) {
    if (record.session_id != kSession) continue;
    switch (record.type) {
      case oocq::persist::RecordType::kCreateSession: {
        StatusOr<oocq::Schema> schema = oocq::ParseSchema(record.text);
        if (!schema.ok()) throw std::runtime_error(schema.status().ToString());
        mirror.reset(new Mirror(*std::move(schema)));
        // The service's session caches, built as OocqService::MakeSession
        // builds them from oocq_serve's default engine options.
        oocq::ContainmentCache::Options cache_options;
        cache_options.containment = mirror->engine_.containment;
        cache_options.containment.enable_compilation =
            mirror->engine_.enable_compilation;
        cache_options.max_entries = mirror->engine_.cache.max_entries;
        cache_options.num_shards = mirror->engine_.cache.num_shards;
        mirror->cache_ = std::make_unique<oocq::ContainmentCache>(
            &mirror->schema_, cache_options);
        mirror->programs_ = std::make_unique<oocq::compile::ProgramCache>();
        break;
      }
      case oocq::persist::RecordType::kDefineQuery: {
        Scoped span(tracer, "parser.query", -1);
        StatusOr<ConjunctiveQuery> q =
            oocq::ParseQuery(mirror->schema_, record.text);
        if (q.ok()) mirror->named_.insert_or_assign(record.name, *std::move(q));
        break;
      }
      case oocq::persist::RecordType::kSetState: {
        Scoped span(tracer, "parser.state", -1);
        StatusOr<oocq::State> state =
            oocq::ParseState(&mirror->schema_, record.text);
        if (state.ok()) mirror->state_.emplace(*std::move(state));
        break;
      }
      case oocq::persist::RecordType::kCacheEntry:
        mirror->cache_->Preload(record.text, record.verdict);
        break;
      case oocq::persist::RecordType::kDropSession:
        break;
    }
  }
  if (mirror == nullptr) throw std::runtime_error("no session in catalog");
  return mirror;
}

void Mirror::Replay(const Request& request, Tracer* tracer, int32_t parent) {
  Scoped run(tracer, "replay.run", parent);
  const int32_t root = run.id();
  oocq::EngineOptions opts = oocq::WithPropagatedParallelism(engine_);
  opts.cache.enabled = false;

  auto resolve = [&](const std::string& text) -> StatusOr<ConjunctiveQuery> {
    if (!text.empty() && text[0] == '@') {
      auto it = named_.find(text.substr(1));
      if (it == named_.end()) return oocq::Status::NotFound(text);
      return it->second;
    }
    Scoped span(tracer, "parser.query", root);
    return oocq::ParseQuery(schema_, text);
  };
  auto well_form = [&](const ConjunctiveQuery& q) {
    Scoped span(tracer, "query.well_form", root);
    return oocq::NormalizeToWellFormed(schema_, q);
  };
  auto expand = [&](const ConjunctiveQuery& q) -> StatusOr<UnionQuery> {
    StatusOr<ConjunctiveQuery> wf = well_form(q);
    if (!wf.ok()) return wf.status();
    Scoped span(tracer, "core.expand", root);
    return oocq::ExpandToTerminalQueries(schema_, *wf, opts.expansion);
  };
  auto contained = [&](const ConjunctiveQuery& q1,
                       const ConjunctiveQuery& q2) -> StatusOr<bool> {
    StatusOr<UnionQuery> m = expand(q1);
    if (!m.ok()) return m.status();
    StatusOr<UnionQuery> n = expand(q2);
    if (!n.ok()) return n.status();
    if (n->disjuncts.size() == 1) {
      for (const ConjunctiveQuery& qi : m->disjuncts) {
        const uint64_t hits = cache_->hits();
        Scoped span(tracer, "core.contain", root);
        StatusOr<bool> c = cache_->Contained(qi, n->disjuncts[0]);
        if (cache_->hits() != hits) tracer->Rename(span.id(), "core.cache_lookup");
        if (!c.ok() || !*c) return c;
      }
      return true;
    }
    if (n->disjuncts.empty()) return m->disjuncts.empty();
    Scoped span(tracer, "core.union_contained", root);
    return oocq::UnionContained(schema_, *m, *n, opts.containment, nullptr,
                                cache_.get());
  };

  switch (request.verb) {
    case Verb::kContain:
    case Verb::kEquiv: {
      StatusOr<ConjunctiveQuery> q1 = resolve(request.q1);
      StatusOr<ConjunctiveQuery> q2 = resolve(request.q2);
      if (!q1.ok() || !q2.ok()) break;
      StatusOr<bool> forward = contained(*q1, *q2);
      if (request.verb == Verb::kEquiv && forward.ok() && *forward) {
        (void)contained(*q2, *q1);
      }
      break;
    }
    case Verb::kMinimize: {
      StatusOr<ConjunctiveQuery> q = resolve(request.q1);
      if (!q.ok()) break;
      StatusOr<ConjunctiveQuery> wf = well_form(*q);
      if (!wf.ok()) break;
      UnionQuery minimized;
      {
        Scoped span(tracer, "core.minimize", root);
        if (wf->IsPositive()) {
          StatusOr<oocq::MinimizationReport> r =
              oocq::MinimizePositiveQuery(schema_, *wf, opts, cache_.get());
          if (r.ok()) minimized = std::move(r->minimized);
        } else {
          StatusOr<oocq::GeneralMinimizationReport> r =
              oocq::MinimizeConjunctiveQuery(schema_, *wf, opts, cache_.get());
          if (r.ok()) minimized = std::move(r->minimized);
        }
      }
      Scoped span(tracer, "server.body", root);
      std::string body = oocq::UnionQueryToString(schema_, minimized);
      (void)body;
      break;
    }
    case Verb::kSat: {
      StatusOr<ConjunctiveQuery> q = resolve(request.q1);
      if (!q.ok()) break;
      StatusOr<ConjunctiveQuery> wf = well_form(*q);
      if (!wf.ok() || !wf->IsTerminal(schema_)) break;
      Scoped span(tracer, "core.satisfiable", root);
      (void)oocq::CheckSatisfiable(schema_, *wf);
      break;
    }
    case Verb::kEval: {
      if (!state_.has_value()) break;
      StatusOr<ConjunctiveQuery> q = resolve(request.q1);
      if (!q.ok()) break;
      StatusOr<ConjunctiveQuery> wf = well_form(*q);
      if (!wf.ok()) break;
      oocq::EvalOptions eval;
      eval.enable_compilation = opts.enable_compilation;
      {
        Scoped span(tracer, "compile.program", root);
        eval.program = programs_->GetOrCompile(schema_, *wf);
      }
      if (eval.program == nullptr) eval.enable_compilation = false;
      StatusOr<std::vector<oocq::Oid>> result = [&] {
        Scoped span(tracer, "state.evaluate", root);
        return oocq::Evaluate(*state_, *wf, eval);
      }();
      if (!result.ok()) break;
      Scoped span(tracer, "server.body", root);
      std::string body;
      for (oocq::Oid oid : *result) {
        body += state_->DebugString(oid);
        body += '\n';
      }
      break;
    }
    // Writes replay their parse only: the WAL append is timed on the
    // service itself (persist/wal_append_us), since a second fsync would
    // not explain the first.
    case Verb::kDefine: {
      // The protocol joins payload lines with '\n'; the mirror parses
      // exactly the text the service sees.
      const std::string text = request.q1 + "\n";
      StatusOr<ConjunctiveQuery> q = [&] {
        Scoped span(tracer, "parser.query", root);
        return oocq::ParseQuery(schema_, text);
      }();
      if (q.ok()) named_.insert_or_assign(request.name, *std::move(q));
      break;
    }
    case Verb::kState: {
      const std::string text = request.q1.back() == '\n' ? request.q1 : request.q1 + "\n";
      StatusOr<oocq::State> state = [&] {
        Scoped span(tracer, "parser.state", root);
        return oocq::ParseState(&schema_, text);
      }();
      if (state.ok()) state_.emplace(*std::move(state));
      break;
    }
  }
}

}  // namespace servicebench
