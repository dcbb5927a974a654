#include "core/containment.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <set>
#include <utility>
#include <vector>

#include "compile/mask_scan.h"
#include "core/augmentation.h"
#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/mapping.h"
#include "core/satisfiability.h"
#include "query/equality_graph.h"
#include "query/well_formed.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace oocq {

namespace {

/// What one Contained() call decided structurally: which Thm 3.1
/// specialization dispatch fired, and the largest membership pool |T| it
/// enumerated subsets of. Deterministic — the dispatch depends only on
/// Q2's atom kinds and the pool only on the (augmented) query.
struct ContainedTraceInfo {
  const char* specialization = "trivial";  // decided by a shortcut
  uint64_t max_pool = 0;
};

bool HasAtomKind(const ConjunctiveQuery& query, AtomKind kind) {
  return std::any_of(
      query.atoms().begin(), query.atoms().end(),
      [kind](const Atom& atom) { return atom.kind() == kind; });
}

/// Atomically lowers `target` to `value` if `value` is smaller. Workers
/// publish decisive events through this so later indices can stop early;
/// the final minimum is schedule-independent because indices are claimed
/// in order (support/thread_pool.h).
template <typename T>
void AtomicMin(std::atomic<T>& target, T value) {
  T current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_acq_rel)) {
  }
}

}  // namespace

StatusOr<std::vector<Atom>> MembershipCandidatePool(
    const Schema& schema, const ConjunctiveQuery& base,
    const ContainmentOptions& options) {
  EqualityGraph graph = EqualityGraph::Build(base);

  // Representative element variables: one per variable equivalence class.
  std::vector<VarId> element_reps;
  {
    std::set<TermId> seen;
    for (VarId v = 0; v < base.num_vars(); ++v) {
      if (seen.insert(graph.Find(graph.VarNode(v))).second) {
        element_reps.push_back(v);
      }
    }
  }
  // Representative set terms: one per (set-variable class, attribute).
  std::vector<std::pair<VarId, std::string>> set_reps;
  {
    std::set<std::pair<TermId, std::string>> seen;
    for (const Atom& atom : base.atoms()) {
      if (atom.kind() != AtomKind::kMembership &&
          atom.kind() != AtomKind::kNonMembership) {
        continue;
      }
      TermId rep = graph.Find(graph.VarNode(atom.set_term().var));
      if (seen.insert({rep, atom.set_term().attr}).second) {
        set_reps.emplace_back(atom.set_term().var, atom.set_term().attr);
      }
    }
  }

  std::vector<Atom> candidates;
  for (VarId element : element_reps) {
    for (const auto& [set_var, attr] : set_reps) {
      Atom candidate = Atom::Membership(element, set_var, attr);
      ConjunctiveQuery extended = base;
      extended.AddAtom(candidate);
      if (!CheckSatisfiable(schema, extended).satisfiable) continue;
      // Skip candidates already derivable: adding them changes nothing.
      bool derivable = false;
      for (const Atom& atom : base.atoms()) {
        if (atom.kind() != AtomKind::kMembership) continue;
        if (graph.Equivalent(graph.VarNode(atom.var()),
                             graph.VarNode(element)) &&
            graph.Equivalent(graph.VarNode(atom.set_term().var),
                             graph.VarNode(set_var)) &&
            atom.set_term().attr == attr) {
          derivable = true;
          break;
        }
      }
      if (derivable) continue;
      candidates.push_back(std::move(candidate));
      if (candidates.size() > options.max_membership_candidates) {
        return Status::ResourceExhausted(
            "more than " + std::to_string(options.max_membership_candidates) +
            " candidate membership atoms (2^|T| subsets would be "
            "enumerated); raise "
            "ContainmentOptions::max_membership_candidates");
      }
    }
  }
  return candidates;
}


namespace {

/// The Thm 3.1 decision procedure proper; the public Contained() wraps it
/// with a trace span and metrics. `tinfo` receives the dispatch outcome.
StatusOr<bool> ContainedImpl(const Schema& schema, const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             const ContainmentOptions& options,
                             ContainmentStats* stats,
                             ContainedTraceInfo* tinfo) {
  if (options.cancel != nullptr) {
    OOCQ_RETURN_IF_ERROR(options.cancel->Check());
  }
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, q1));
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, q2));
  if (!q1.IsTerminal(schema) || !q2.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "Contained requires terminal conjunctive queries; expand with "
        "ExpandToTerminalQueries first");
  }

  if (!CheckSatisfiable(schema, q1).satisfiable) return true;
  if (!CheckSatisfiable(schema, q2).satisfiable) return false;

  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery n1, NormalizeTerminalQuery(schema, q1));
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery n2, NormalizeTerminalQuery(schema, q2));

  const bool rhs_has_inequality =
      options.force_full_theorem || HasAtomKind(n2, AtomKind::kInequality);
  const bool rhs_has_non_membership =
      options.force_full_theorem ||
      HasAtomKind(n2, AtomKind::kNonMembership);
  // Thm 3.1's specialization lattice over Q2's atom kinds (§3, Cor
  // 3.2–3.4): inequalities force the augmentation axis, non-membership
  // atoms force the membership-subset axis.
  tinfo->specialization =
      rhs_has_inequality ? (rhs_has_non_membership ? "Thm3.1" : "Cor3.3")
                         : (rhs_has_non_membership ? "Cor3.2" : "Cor3.4");

  MappingConstraints constraints;
  constraints.free_target = n1.free_var();
  constraints.max_steps = options.max_mapping_steps;

  // Checks the Thm 3.1 condition against one consistent augmentation
  // Q1&S, enumerating the subsets W of T when Q2 has non-membership atoms.
  auto check_augmentation =
      [&](const ConjunctiveQuery& base) -> StatusOr<bool> {
    // Cancellation is polled once per augmentation here and once per
    // mask inside the subset scan, so both Thm 3.1 axes abort promptly.
    if (options.cancel != nullptr) {
      OOCQ_RETURN_IF_ERROR(options.cancel->Check());
    }
    if (stats != nullptr) ++stats->augmentations;
    std::vector<Atom> membership_pool;
    if (rhs_has_non_membership) {
      OOCQ_ASSIGN_OR_RETURN(membership_pool,
                            MembershipCandidatePool(schema, base, options));
    }
    const size_t t_size = membership_pool.size();
    tinfo->max_pool = std::max<uint64_t>(tinfo->max_pool, t_size);
    const uint64_t total = uint64_t{1} << t_size;

    // Compiled subset scan (src/compile/mask_scan.h): one mapping
    // enumeration plus a word-parallel coverage test replaces the 2^|T|
    // per-mask mapping searches. It decides exactly when its
    // W-independence preconditions verify; otherwise fall through to the
    // interpreted per-mask scan below.
    if (options.enable_compilation && t_size > 0) {
      compile::MaskScanOptions scan_options;
      scan_options.max_steps = options.max_mapping_steps;
      scan_options.cancel = options.cancel;
      scan_options.budget = options.budget;
      compile::MaskScanResult scan = compile::RunCompiledMaskScan(
          schema, base, membership_pool, n2, constraints, scan_options);
      if (scan.decided) {
        OOCQ_METRIC_ADD("compile/mask_scans", 1);
        if (stats != nullptr) {
          stats->membership_subsets += scan.masks_tested;
          stats->membership_subsets_skipped += scan.masks_skipped;
          ++stats->mapping_searches;
          stats->mapping_steps += scan.mapping_steps;
        }
        if (!scan.error.ok()) return scan.error;
        return scan.contained;
      }
      OOCQ_METRIC_ADD("compile/mask_fallbacks", 1);
    }

    // Interpreted per-mask scan, in mask order. The first decisive mask
    // settles the verdict: an abort before it is tested (failpoint,
    // cancel, budget), or a tested mask that errs or violates the
    // condition. Masks never tested — behind the decisive one, or
    // unsatisfiable — count as skipped, so membership_subsets keeps
    // meaning "masks actually tested".
    ContainmentStats scan_stats;
    uint64_t& skipped = scan_stats.membership_subsets_skipped;
    Status live = Failpoints::Check("core/subset_scan");
    StatusOr<bool> verdict = true;
    for (uint64_t mask = 0; mask < total; ++mask) {
      if (live.ok() && options.cancel != nullptr) {
        live = options.cancel->Check();
      }
      if (live.ok() && options.budget != nullptr) {
        live = options.budget->ChargeSubsetWork(1);
      }
      if (!live.ok()) {
        skipped += total - mask;
        verdict = std::move(live);
        break;
      }
      ConjunctiveQuery target = base;
      for (size_t i = 0; i < t_size; ++i) {
        if (mask & (uint64_t{1} << i)) target.AddAtom(membership_pool[i]);
      }
      if (!CheckSatisfiable(schema, target).satisfiable) {
        ++skipped;
        continue;
      }
      ++scan_stats.membership_subsets;
      ++scan_stats.mapping_searches;
      StatusOr<QueryAnalysis> analysis = QueryAnalysis::Create(schema, target);
      if (analysis.ok()) {
        MappingResult mapping =
            FindNonContradictoryMapping(schema, n2, *analysis, constraints);
        scan_stats.mapping_steps += mapping.steps;
        if (mapping.exhausted) {
          verdict = Status::ResourceExhausted(
              "mapping search exceeded ContainmentOptions::max_mapping_steps");
        } else if (!mapping.found()) {
          verdict = false;
        }
      } else {
        verdict = analysis.status();
      }
      if (!verdict.ok() || !*verdict) {
        skipped += total - mask - 1;
        break;
      }
    }
    if (stats != nullptr) stats->Add(scan_stats);
    return verdict;
  };

  if (!rhs_has_inequality) {
    // Cor 3.4 (positive Q2) and Cor 3.2 (no inequalities): S = ∅ only.
    return check_augmentation(n1);
  }

  // Cor 3.3 / Thm 3.1: enumerate every consistent augmentation.
  AugmentationOptions augmentation_options;
  augmentation_options.max_augmentations = options.max_augmentations;
  Status inner_error = Status::Ok();
  StatusOr<bool> outcome = ForEachConsistentAugmentation(
      schema, n1, augmentation_options,
      [&](const ConjunctiveQuery& augmented) -> bool {
        StatusOr<bool> ok = check_augmentation(augmented);
        if (!ok.ok()) {
          inner_error = ok.status();
          return false;
        }
        return *ok;
      });
  if (!inner_error.ok()) return inner_error;
  if (!outcome.ok()) return outcome.status();
  return *outcome;
}

/// "Cor3.4" -> "containment/cor34", "Thm3.1" -> "containment/thm31", …
std::string SpecializationCounterName(const char* specialization) {
  std::string name = "containment/";
  for (const char* p = specialization; *p != '\0'; ++p) {
    if (*p == '.') continue;
    name += static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p)));
  }
  return name;
}

}  // namespace

StatusOr<bool> Contained(const Schema& schema, const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2,
                         const ContainmentOptions& options,
                         ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, "Contained");
  ContainedTraceInfo tinfo;
  ContainmentStats local;
  StatusOr<bool> verdict =
      ContainedImpl(schema, q1, q2, options, &local, &tinfo);
  if (stats != nullptr) stats->Add(local);
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->Add("containment/calls", 1);
    metrics->Add(SpecializationCounterName(tinfo.specialization), 1);
    metrics->Add("containment/augmentations", local.augmentations);
    metrics->Add("containment/membership_subsets", local.membership_subsets);
    metrics->Add("containment/membership_subsets_skipped",
                 local.membership_subsets_skipped);
    metrics->Add("containment/mapping_searches", local.mapping_searches);
    metrics->Add("containment/mapping_steps", local.mapping_steps);
    metrics->Record("containment/pool_size", tinfo.max_pool);
  }
  if (span.recording()) {
    // All annotations are scheduling-independent on the positive
    // pipeline (docs/observability.md); the work counters can differ on
    // early-exit paths, mirroring the PR 1 determinism contract.
    span.Arg("spec", tinfo.specialization)
        .Arg("pool", tinfo.max_pool)
        .Arg("augmentations", local.augmentations)
        .Arg("subsets", local.membership_subsets)
        .Arg("mapping_steps", local.mapping_steps);
    if (verdict.ok()) span.Arg("contained", *verdict ? "true" : "false");
  }
  return verdict;
}

StatusOr<bool> EquivalentQueries(const Schema& schema,
                                 const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2,
                                 const ContainmentOptions& options,
                                 ContainmentStats* stats) {
  OOCQ_ASSIGN_OR_RETURN(bool forward, Contained(schema, q1, q2, options, stats));
  if (!forward) return false;
  return Contained(schema, q2, q1, options, stats);
}

StatusOr<bool> UnionContained(const Schema& schema, const UnionQuery& m,
                              const UnionQuery& n,
                              const ContainmentOptions& options,
                              ContainmentStats* stats,
                              ContainmentCache* cache) {
  OOCQ_TRACE_SPAN(span, "UnionContained");
  span.Arg("m_disjuncts", static_cast<uint64_t>(m.disjuncts.size()))
      .Arg("n_disjuncts", static_cast<uint64_t>(n.disjuncts.size()));
  OOCQ_METRIC_ADD("containment/union_calls", 1);
  // Thm 4.1 is stated (and true) for unions of terminal positive
  // conjunctive queries; reject anything else.
  for (const UnionQuery* side : {&m, &n}) {
    for (const ConjunctiveQuery& q : side->disjuncts) {
      OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, q));
      if (!q.IsTerminal(schema)) {
        return Status::FailedPrecondition(
            "UnionContained requires terminal disjuncts");
      }
      if (!CheckSatisfiable(schema, q).satisfiable) continue;
      OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery normalized,
                            NormalizeTerminalQuery(schema, q));
      if (!normalized.IsPositive()) {
        return Status::FailedPrecondition(
            "UnionContained requires positive disjuncts (Thm 4.1)");
      }
    }
  }

  // Thm 4.1 fan-out: each disjunct of M is tested independently. The
  // verdict is the smallest decisive disjunct index (a "not contained
  // anywhere" or an error), matching the serial in-order scan.
  struct DisjunctResult {
    bool decisive = false;
    bool is_error = false;
    Status error = Status::Ok();
    ContainmentStats stats;
  };
  std::atomic<size_t> first_event{static_cast<size_t>(-1)};
  OOCQ_ASSIGN_OR_RETURN(
      std::vector<DisjunctResult> outcomes,
      (ParallelMap<DisjunctResult>(
          options.parallel, m.disjuncts.size(),
          [&](size_t i) -> StatusOr<DisjunctResult> {
            DisjunctResult result;
            if (i > first_event.load(std::memory_order_acquire)) {
              return result;  // a smaller index already decided
            }
            if (options.cancel != nullptr) {
              Status live = options.cancel->Check();
              if (!live.ok()) {
                result.decisive = true;
                result.is_error = true;
                result.error = std::move(live);
                AtomicMin(first_event, i);
                return result;
              }
            }
            const ConjunctiveQuery& qi = m.disjuncts[i];
            if (!CheckSatisfiable(schema, qi).satisfiable) return result;
            for (const ConjunctiveQuery& pj : n.disjuncts) {
              StatusOr<bool> contained =
                  cache != nullptr
                      ? cache->Contained(qi, pj, &result.stats,
                                         options.cancel, options.budget)
                      : Contained(schema, qi, pj, options, &result.stats);
              if (!contained.ok()) {
                result.decisive = true;
                result.is_error = true;
                result.error = contained.status();
                AtomicMin(first_event, i);
                return result;
              }
              if (*contained) return result;
            }
            result.decisive = true;  // contained in no disjunct of N
            AtomicMin(first_event, i);
            return result;
          })));
  for (const DisjunctResult& outcome : outcomes) {
    if (stats != nullptr) stats->Add(outcome.stats);
  }
  for (const DisjunctResult& outcome : outcomes) {
    if (!outcome.decisive) continue;
    if (outcome.is_error) return outcome.error;
    return false;
  }
  return true;
}

StatusOr<bool> UnionEquivalent(const Schema& schema, const UnionQuery& m,
                               const UnionQuery& n,
                               const ContainmentOptions& options,
                               ContainmentStats* stats,
                               ContainmentCache* cache) {
  OOCQ_ASSIGN_OR_RETURN(bool forward,
                        UnionContained(schema, m, n, options, stats, cache));
  if (!forward) return false;
  return UnionContained(schema, n, m, options, stats, cache);
}

}  // namespace oocq
