#include "oracle.h"

#include <algorithm>
#include <stdexcept>

#include "common.h"
#include "core/canonical.h"
#include "core/containment.h"
#include "core/engine_options.h"
#include "core/expansion.h"
#include "core/general_minimization.h"
#include "core/minimization.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"
#include "state/indexed_evaluation.h"

namespace servicebench {

namespace {

using oocq::ConjunctiveQuery;
using oocq::StatusOr;
using oocq::UnionQuery;

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             value.status().ToString());
  }
  return *std::move(value);
}

/// The reply a protocol handler renders for `fields` and `body`: the
/// status line, the body split into dot-stuffed lines, the "." line.
std::string RenderReply(const std::string& fields, const std::string& body) {
  std::string out = fields.empty() ? "OK\n" : "OK " + fields + "\n";
  size_t start = 0;
  while (start < body.size()) {
    size_t nl = body.find('\n', start);
    if (nl == std::string::npos) nl = body.size();
    if (body[start] == '.') out += '.';
    out.append(body, start, nl - start);
    out += '\n';
    start = nl + 1;
  }
  return out + ".\n";
}

/// The payload lines of a reply (status line and terminator dropped,
/// dot-stuffing undone), joined with '\n'.
std::string ReplyBody(const std::string& reply) {
  std::string body;
  size_t start = reply.find('\n');
  if (start == std::string::npos) return body;
  ++start;
  while (start < reply.size()) {
    size_t nl = reply.find('\n', start);
    if (nl == std::string::npos) nl = reply.size();
    std::string line = reply.substr(start, nl - start);
    start = nl + 1;
    if (line == ".") break;
    if (!line.empty() && line[0] == '.') line.erase(0, 1);
    if (!body.empty()) body += '\n';
    body += line;
  }
  return body;
}

/// Engine options with every shared or compiled fast path off.
oocq::EngineOptions Interpreted() {
  oocq::EngineOptions options;
  options.enable_compilation = false;
  options.cache.enabled = false;
  return oocq::WithPropagatedParallelism(options);
}

/// States above this many objects are checked with the interpreted
/// index-nested-loop evaluator: the plain tree walker enumerates the
/// full extent product and would need minutes per join on them.
constexpr size_t kTreeWalkerMaxObjects = 1000;

}  // namespace

Oracle::Oracle(const CatalogPlan& plan)
    : schema_(Must(oocq::ParseSchema(plan.schema_text), "schema")) {
  for (const auto* views : {&plan.views, &plan.tail_views}) {
    for (const auto& [name, text] : *views) {
      named_.insert_or_assign(
          name, Must(oocq::ParseQuery(schema_, text), "catalog view"));
    }
  }
  Request state;
  state.verb = Verb::kState;
  state.q1 = plan.state_text;
  Expect(state);
}

std::string Oracle::Decide(const Request& request) {
  auto resolve = [&](const std::string& text) -> StatusOr<ConjunctiveQuery> {
    if (!text.empty() && text[0] == '@') {
      auto it = named_.find(text.substr(1));
      if (it == named_.end()) return oocq::Status::NotFound(text);
      return it->second;
    }
    return oocq::ParseQuery(schema_, text);
  };
  const oocq::EngineOptions opts = Interpreted();
  auto well_formed = [&](const std::string& text) {
    StatusOr<ConjunctiveQuery> q = resolve(text);
    if (!q.ok()) return q;
    return oocq::NormalizeToWellFormed(schema_, *q);
  };
  auto expand = [&](const std::string& text) -> StatusOr<UnionQuery> {
    StatusOr<ConjunctiveQuery> wf = well_formed(text);
    if (!wf.ok()) return wf.status();
    return oocq::ExpandToTerminalQueries(schema_, *wf, opts.expansion);
  };
  // Q1 ⊆ Q2 as the service defines it: Thm 3.1 per disjunct when Q2 is
  // one terminal query, Thm 4.1 otherwise.
  auto contained = [&](const std::string& a,
                       const std::string& b) -> StatusOr<bool> {
    StatusOr<UnionQuery> m = expand(a);
    if (!m.ok()) return m.status();
    StatusOr<UnionQuery> n = expand(b);
    if (!n.ok()) return n.status();
    if (n->disjuncts.size() == 1) {
      for (const ConjunctiveQuery& qi : m->disjuncts) {
        StatusOr<bool> c =
            oocq::Contained(schema_, qi, n->disjuncts[0], opts.containment);
        if (!c.ok() || !*c) return c;
      }
      return true;
    }
    if (n->disjuncts.empty()) return m->disjuncts.empty();
    return oocq::UnionContained(schema_, *m, *n, opts.containment);
  };
  auto flag = [](const char* field, bool value) {
    return RenderReply(std::string(field) + "=" + (value ? "1" : "0"), "");
  };

  switch (request.verb) {
    case Verb::kContain: {
      StatusOr<bool> c = contained(request.q1, request.q2);
      return c.ok() ? flag("contained", *c) : "oracle: " + c.status().ToString();
    }
    case Verb::kEquiv: {
      StatusOr<bool> c = contained(request.q1, request.q2);
      if (c.ok() && *c) c = contained(request.q2, request.q1);
      return c.ok() ? flag("equivalent", *c) : "oracle: " + c.status().ToString();
    }
    case Verb::kSat: {
      StatusOr<ConjunctiveQuery> wf = well_formed(request.q1);
      if (!wf.ok()) return "oracle: " + wf.status().ToString();
      if (!wf->IsTerminal(schema_)) return "oracle: SAT of a non-terminal query";
      oocq::SatisfiabilityResult r = oocq::CheckSatisfiable(schema_, *wf);
      return RenderReply(std::string("satisfiable=") + (r.satisfiable ? "1" : "0"),
                         r.satisfiable ? "" : r.reason);
    }
    case Verb::kEval: {
      StatusOr<ConjunctiveQuery> wf = well_formed(request.q1);
      if (!wf.ok()) return "oracle: " + wf.status().ToString();
      oocq::EvalOptions eval;
      eval.enable_compilation = false;
      StatusOr<std::vector<oocq::Oid>> answers =
          state_->num_objects() <= kTreeWalkerMaxObjects
              ? oocq::Evaluate(*state_, *wf, eval)
              : oocq::EvaluateIndexed(*index_, *wf, eval);
      if (!answers.ok()) return "oracle: " + answers.status().ToString();
      std::string body;
      for (oocq::Oid oid : *answers) body += state_->DebugString(oid) + "\n";
      return RenderReply(std::string("nonempty=") + (answers->empty() ? "0" : "1"),
                         body);
    }
    default:
      return "oracle: unexpected verb";
  }
}

std::vector<std::string> Oracle::UnionKeys(const std::string& text) const {
  std::vector<std::string> keys;
  if (text.empty()) return keys;
  StatusOr<UnionQuery> parsed = oocq::ParseUnionQuery(schema_, text);
  if (!parsed.ok()) return {"unparseable: " + text};
  for (const ConjunctiveQuery& q : parsed->disjuncts) {
    keys.push_back(oocq::CanonicalKey(q));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Oracle::Expectation Oracle::ExpectMinimize(const Request& request) {
  Expectation e;
  e.canonical = true;
  auto fail = [&e](const oocq::Status& status) {
    e.text = "oracle: " + status.ToString();
    e.exact_field = "unreachable";  // matches no reply's status line
    return e;
  };
  StatusOr<ConjunctiveQuery> q = oocq::ParseQuery(schema_, request.q1);
  if (q.ok()) q = oocq::NormalizeToWellFormed(schema_, *q);
  if (!q.ok()) return fail(q.status());
  const oocq::EngineOptions opts = Interpreted();
  UnionQuery minimized;
  if (q->IsPositive()) {
    StatusOr<oocq::MinimizationReport> r =
        oocq::MinimizePositiveQuery(schema_, *q, opts, nullptr);
    if (!r.ok()) return fail(r.status());
    minimized = std::move(r->minimized);
    e.exact_field = "exact=1";
  } else {
    StatusOr<oocq::GeneralMinimizationReport> r =
        oocq::MinimizeConjunctiveQuery(schema_, *q, opts, nullptr);
    if (!r.ok()) return fail(r.status());
    minimized = std::move(r->minimized);
    e.exact_field = "exact=0";
  }
  // Both sides go through print + parse, so the keys compare the same
  // representation.
  e.text = oocq::UnionQueryToString(schema_, minimized);
  e.keys = UnionKeys(e.text);
  return e;
}

Oracle::Expectation Oracle::Expect(const Request& request) {
  if (request.write()) {
    if (request.verb == Verb::kDefine) {
      named_.insert_or_assign(
          request.name, Must(oocq::ParseQuery(schema_, request.q1), "DEFINE"));
    } else {
      index_.reset();
      state_.emplace(Must(oocq::ParseState(&schema_, request.q1), "STATE"));
      index_ = std::make_unique<oocq::StateIndex>(*state_);
      ++state_version_;
    }
    Expectation e;
    e.text = RenderReply("", "");
    e.hash = Hash(e.text);
    return e;
  }
  // Views are never redefined, so a frame names one decision; only EVAL
  // depends on the current state.
  std::string key = request.frame;
  if (request.verb == Verb::kEval) key += "#" + std::to_string(state_version_);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  Expectation e;
  if (request.verb == Verb::kMinimize) {
    e = ExpectMinimize(request);
  } else {
    e.text = Decide(request);
    e.hash = Hash(e.text);
  }
  memo_.emplace(std::move(key), e);
  return e;
}

bool Oracle::Matches(const Expectation& expected, uint64_t reply_hash,
                     const std::string* reply_text) const {
  if (!expected.canonical) return reply_hash == expected.hash;
  if (reply_text == nullptr) return false;
  const std::string status = reply_text->substr(0, reply_text->find('\n'));
  if (status != "OK " + expected.exact_field) return false;
  return UnionKeys(ReplyBody(*reply_text)) == expected.keys;
}

}  // namespace servicebench
