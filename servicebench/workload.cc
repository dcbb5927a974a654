#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <stdexcept>

#include "parser/parser.h"
#include "parser/state_parser.h"
#include "schema/schema.h"
#include "state/generator.h"

namespace servicebench {

namespace {

// A three-level hierarchy (Asset > Vehicle > Car) with object and set
// attributes in both directions, so expansion, membership subsets and
// attribute joins all have work to do.
const char kSchemaText[] =
    "schema Fleet {\n"
    "  class Asset { Tag: String; Site: Depot; }\n"
    "  class Vehicle under Asset { Owner: Person; Parts: {Part}; }\n"
    "  class Car under Vehicle { Seats: Int; }\n"
    "  class Van under Vehicle { Cargo: Real; }\n"
    "  class Truck under Vehicle { Axles: Int; Hauls: {Asset}; }\n"
    "  class Part under Asset { Fits: {Vehicle}; }\n"
    "  class Person { Name: String; Drives: {Vehicle}; Boss: Person; "
    "Home: Depot; }\n"
    "  class Courier under Person { Licence: Int; }\n"
    "  class Clerk under Person { Desk: Int; }\n"
    "  class Depot { Fleet: {Vehicle}; Staff: {Person}; Manager: Person; }\n"
    "}\n";

struct ClassDef {
  const char* name;
  const char* parent;  // nullptr for a root
};

const ClassDef kClasses[] = {
    {"Asset", nullptr},  {"Vehicle", "Asset"}, {"Car", "Vehicle"},
    {"Van", "Vehicle"},  {"Truck", "Vehicle"}, {"Part", "Asset"},
    {"Person", nullptr}, {"Courier", "Person"}, {"Clerk", "Person"},
    {"Depot", nullptr},
};

struct AttrDef {
  const char* owner;
  const char* name;
  const char* target;
  bool set;
};

const AttrDef kAttrs[] = {
    {"Asset", "Site", "Depot", false},   {"Vehicle", "Owner", "Person", false},
    {"Vehicle", "Parts", "Part", true},  {"Truck", "Hauls", "Asset", true},
    {"Part", "Fits", "Vehicle", true},   {"Person", "Boss", "Person", false},
    {"Person", "Home", "Depot", false},  {"Person", "Drives", "Vehicle", true},
    {"Depot", "Fleet", "Vehicle", true}, {"Depot", "Staff", "Person", true},
    {"Depot", "Manager", "Person", false},
};

const char* ParentOf(const std::string& cls) {
  for (const ClassDef& c : kClasses) {
    if (cls == c.name) return c.parent;
  }
  return nullptr;
}

/// Descendant-or-self.
bool IsA(const std::string& cls, const std::string& ancestor) {
  for (const char* c = cls.c_str(); c != nullptr; c = ParentOf(c)) {
    if (ancestor == c) return true;
  }
  return false;
}

bool IsTerminal(const std::string& cls) {
  for (const ClassDef& c : kClasses) {
    if (c.parent != nullptr && cls == c.parent) return false;
  }
  return true;
}

std::vector<std::string> DescendantsOf(const std::string& cls) {
  std::vector<std::string> out;
  for (const ClassDef& c : kClasses) {
    if (IsA(c.name, cls)) out.push_back(c.name);
  }
  return out;
}

size_t TerminalCount(const std::string& cls) {
  size_t n = 0;
  for (const std::string& d : DescendantsOf(cls)) n += IsTerminal(d) ? 1 : 0;
  return n;
}

std::vector<const AttrDef*> AttrsOf(const std::string& cls) {
  std::vector<const AttrDef*> out;
  for (const AttrDef& a : kAttrs) {
    if (IsA(cls, a.owner)) out.push_back(&a);
  }
  return out;
}

const AttrDef* FindAttr(const std::string& cls, const std::string& name) {
  for (const AttrDef* a : AttrsOf(cls)) {
    if (name == a->name) return a;
  }
  return nullptr;
}

/// A query kept structurally so that variants (relaxations, refinements,
/// duplicated witnesses) can be derived from it before rendering.
struct Gen {
  enum Kind { kEqAttr, kMember, kNe, kNotMember };
  struct Atom {
    Kind kind;
    int a;  // the element / equated variable
    int b;  // the attribute owner (kNe: the other variable)
    std::string attr;
    bool operator==(const Atom& o) const {
      return kind == o.kind && a == o.a && b == o.b && attr == o.attr;
    }
  };
  std::vector<std::string> cls;  // variable i is named <prefix><i>; 0 free
  std::vector<Atom> atoms;

  bool positive() const {
    for (const Atom& atom : atoms) {
      if (atom.kind == kNe || atom.kind == kNotMember) return false;
    }
    return true;
  }
  size_t product() const {
    size_t p = 1;
    for (const std::string& c : cls) p *= TerminalCount(c);
    return p;
  }
  bool Has(const Atom& atom) const {
    return std::find(atoms.begin(), atoms.end(), atom) != atoms.end();
  }
  bool HasChildren(int v) const {
    for (const Atom& atom : atoms) {
      if ((atom.kind == kEqAttr || atom.kind == kMember) && atom.b == v &&
          atom.a != v) {
        return true;
      }
    }
    return false;
  }
  /// Removes variable `v` and every atom mentioning it.
  void RemoveVar(int v) {
    std::vector<Atom> kept;
    for (Atom atom : atoms) {
      if (atom.a == v || atom.b == v) continue;
      if (atom.a > v) --atom.a;
      if (atom.b > v) --atom.b;
      kept.push_back(atom);
    }
    atoms = std::move(kept);
    cls.erase(cls.begin() + v);
  }

  std::string Text(const std::string& prefix) const {
    auto var = [&](int i) { return prefix + std::to_string(i); };
    std::string out = "{ " + var(0) + " |";
    for (size_t i = 1; i < cls.size(); ++i) {
      out += " exists " + var(static_cast<int>(i));
    }
    out += " (";
    for (size_t i = 0; i < cls.size(); ++i) {
      if (i != 0) out += " & ";
      out += var(static_cast<int>(i)) + " in " + cls[i];
    }
    for (const Atom& atom : atoms) {
      out += " & ";
      switch (atom.kind) {
        case kEqAttr:
          out += var(atom.a) + " = " + var(atom.b) + "." + atom.attr;
          break;
        case kMember:
          out += var(atom.a) + " in " + var(atom.b) + "." + atom.attr;
          break;
        case kNe:
          out += var(atom.a) + " != " + var(atom.b);
          break;
        case kNotMember:
          out += var(atom.a) + " notin " + var(atom.b) + "." + atom.attr;
          break;
      }
    }
    out += ") }";
    return out;
  }
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(engine_);
  }
  size_t Between(size_t lo, size_t hi) { return lo + Below(hi - lo + 1); }
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(engine_) < p;
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// "<prefix><i>", built without `const char* + std::string&&`, which
/// trips GCC 12's -Wrestrict false positive.
std::string Name(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

struct GenOptions {
  size_t min_vars = 3;
  size_t max_vars = 5;
  /// Chance that a variable's range is a terminal class; otherwise the
  /// attribute's declared type (possibly a superclass) is kept.
  double terminal_prob = 0.6;
  size_t max_product = 4;
  size_t min_product = 1;
  bool negative = false;
  double extra_member_prob = 0.5;
};

std::string PickTerminal(Rng& rng, const std::string& cls) {
  std::vector<std::string> terms;
  for (const std::string& d : DescendantsOf(cls)) {
    if (IsTerminal(d)) terms.push_back(d);
  }
  return rng.Pick(terms);
}

/// Adds a membership atom `a in b.A` between two existing variables.
bool AddExtraMember(Rng& rng, Gen* q, Gen::Kind kind) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    int a = static_cast<int>(rng.Below(q->cls.size()));
    int b = static_cast<int>(rng.Below(q->cls.size()));
    std::vector<const AttrDef*> sets;
    for (const AttrDef* attr : AttrsOf(q->cls[b])) {
      if (attr->set && IsA(q->cls[a], attr->target)) sets.push_back(attr);
    }
    if (sets.empty()) continue;
    Gen::Atom atom{kind, a, b, rng.Pick(sets)->name};
    Gen::Atom opposite{kind == Gen::kMember ? Gen::kNotMember : Gen::kMember,
                       a, b, atom.attr};
    if (q->Has(atom) || q->Has(opposite)) continue;
    q->atoms.push_back(atom);
    return true;
  }
  return false;
}

bool AddInequality(Rng& rng, Gen* q) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    int a = static_cast<int>(rng.Below(q->cls.size()));
    int b = static_cast<int>(rng.Below(q->cls.size()));
    if (a == b) continue;
    if (!IsA(q->cls[a], q->cls[b]) && !IsA(q->cls[b], q->cls[a])) continue;
    Gen::Atom atom{Gen::kNe, std::min(a, b), std::max(a, b), ""};
    if (q->Has(atom)) continue;
    q->atoms.push_back(atom);
    return true;
  }
  return false;
}

void AddNegative(Rng& rng, Gen* q) {
  const bool ne_first = rng.Chance(0.5);
  if (ne_first ? AddInequality(rng, q) : AddExtraMember(rng, q, Gen::kNotMember))
    return;
  if (!(ne_first ? AddExtraMember(rng, q, Gen::kNotMember)
                 : AddInequality(rng, q))) {
    // Every query has at least two variables of comparable class or a
    // set attribute; fall back to a self-typed inequality on a fresh
    // witness of the free variable's class.
    q->cls.push_back(q->cls[0]);
    q->atoms.push_back(Gen::Atom{Gen::kNe, 0,
                                 static_cast<int>(q->cls.size()) - 1, ""});
  }
}

Gen Cap(Rng& rng, Gen q, size_t max_product);

Gen Generate(Rng& rng, const GenOptions& opt) {
  while (true) {
    Gen q;
    const std::string& root = kClasses[rng.Below(std::size(kClasses))].name;
    q.cls.push_back(rng.Chance(opt.terminal_prob) ? PickTerminal(rng, root)
                                                  : root);
    const size_t k = rng.Between(opt.min_vars, opt.max_vars);
    while (q.cls.size() < k) {
      int u = static_cast<int>(rng.Below(q.cls.size()));
      std::vector<const AttrDef*> attrs = AttrsOf(q.cls[u]);
      const AttrDef* attr = rng.Pick(attrs);
      const int v = static_cast<int>(q.cls.size());
      if (!attr->set) {
        // One variable per object term keeps forced equalities rare.
        bool taken = false;
        for (const Gen::Atom& atom : q.atoms) {
          taken |= atom.kind == Gen::kEqAttr && atom.b == u &&
                   atom.attr == attr->name;
        }
        if (taken) continue;
      }
      q.cls.push_back(rng.Chance(opt.terminal_prob)
                          ? PickTerminal(rng, attr->target)
                          : rng.Pick(DescendantsOf(attr->target)));
      q.atoms.push_back(
          Gen::Atom{attr->set ? Gen::kMember : Gen::kEqAttr, v, u, attr->name});
    }
    if (rng.Chance(opt.extra_member_prob)) AddExtraMember(rng, &q, Gen::kMember);
    if (opt.negative) AddNegative(rng, &q);
    q = Cap(rng, std::move(q), opt.max_product);
    if (q.product() >= opt.min_product) return q;
  }
}

/// Specializes ranges until the Prop 2.1 expansion has at most
/// `max_product` disjuncts, keeping every request's cost in the same
/// order of magnitude (a few heavy requests would otherwise make a
/// seed's throughput depend on how many it drew).
Gen Cap(Rng& rng, Gen q, size_t max_product) {
  while (q.product() > max_product) {
    std::vector<int> wide;
    for (size_t i = 0; i < q.cls.size(); ++i) {
      if (!IsTerminal(q.cls[i])) wide.push_back(static_cast<int>(i));
    }
    const int i = rng.Pick(wide);
    q.cls[i] = PickTerminal(rng, q.cls[i]);
  }
  return q;
}

/// Drops one or two leaf witnesses (never the free variable) and every
/// negative atom: the result contains the input.
Gen Relax(Rng& rng, Gen q) {
  std::vector<Gen::Atom> positive;
  for (const Gen::Atom& atom : q.atoms) {
    if (atom.kind == Gen::kEqAttr || atom.kind == Gen::kMember) {
      positive.push_back(atom);
    }
  }
  q.atoms = std::move(positive);
  const size_t drops = rng.Between(1, 2);
  for (size_t d = 0; d < drops && q.cls.size() > 2; ++d) {
    std::vector<int> leaves;
    for (size_t i = 1; i < q.cls.size(); ++i) {
      if (!q.HasChildren(static_cast<int>(i))) leaves.push_back(static_cast<int>(i));
    }
    if (leaves.empty()) break;
    q.RemoveVar(rng.Pick(leaves));
  }
  return q;
}

/// Widens one variable's range to its superclass where every attribute
/// it owns is still declared there.
Gen Generalize(Rng& rng, Gen q) {
  std::vector<int> candidates;
  for (size_t i = 0; i < q.cls.size(); ++i) {
    const char* parent = ParentOf(q.cls[i]);
    if (parent == nullptr) continue;
    bool ok = true;
    for (const Gen::Atom& atom : q.atoms) {
      if (atom.kind != Gen::kNe && atom.b == static_cast<int>(i) &&
          FindAttr(parent, atom.attr) == nullptr) {
        ok = false;
      }
    }
    if (ok) candidates.push_back(static_cast<int>(i));
  }
  if (!candidates.empty()) {
    int i = rng.Pick(candidates);
    q.cls[i] = ParentOf(q.cls[i]);
  }
  return q;
}

/// Adds a constraint: the result is contained in the input.
Gen Refine(Rng& rng, Gen q) {
  if (!AddExtraMember(rng, &q, Gen::kMember)) {
    std::vector<int> wide;
    for (size_t i = 0; i < q.cls.size(); ++i) {
      if (!IsTerminal(q.cls[i])) wide.push_back(static_cast<int>(i));
    }
    if (!wide.empty()) {
      int i = rng.Pick(wide);
      q.cls[i] = PickTerminal(rng, q.cls[i]);
    }
  }
  return q;
}

/// Duplicates a leaf witness with its link: an equivalent query with one
/// redundant variable for the minimizer to fold.
Gen DupLeaf(Rng& rng, Gen q) {
  std::vector<int> leaves;
  for (size_t i = 1; i < q.cls.size(); ++i) {
    if (!q.HasChildren(static_cast<int>(i))) leaves.push_back(static_cast<int>(i));
  }
  if (leaves.empty()) return q;
  // A terminal leaf keeps the copy from multiplying the expansion.
  std::vector<int> terminal;
  for (int leaf : leaves) {
    if (IsTerminal(q.cls[leaf])) terminal.push_back(leaf);
  }
  const int leaf = rng.Pick(terminal.empty() ? leaves : terminal);
  const int copy = static_cast<int>(q.cls.size());
  q.cls.push_back(q.cls[leaf]);
  bool linked = false;
  for (size_t n = q.atoms.size(), i = 0; i < n; ++i) {
    const Gen::Atom atom = q.atoms[i];
    if (atom.a == leaf && atom.kind == Gen::kMember) {
      q.atoms.push_back(Gen::Atom{atom.kind, copy, atom.b, atom.attr});
      linked = true;
    }
  }
  // A leaf hanging off an object attribute: its copy is equated to the
  // same term, which folds as well.
  for (size_t n = q.atoms.size(), i = 0; i < n && !linked; ++i) {
    const Gen::Atom atom = q.atoms[i];
    if (atom.a == leaf && atom.kind == Gen::kEqAttr) {
      q.atoms.push_back(Gen::Atom{atom.kind, copy, atom.b, atom.attr});
      linked = true;
    }
  }
  return q;
}

std::string DotStuff(const std::string& text) {
  std::string out;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    if (text[start] == '.') out += '.';
    out.append(text, start, nl - start);
    out += '\n';
    start = nl + 1;
  }
  return out;
}

Request Binary(Verb verb, std::string q1, std::string q2) {
  Request r;
  r.verb = verb;
  r.q1 = std::move(q1);
  r.q2 = std::move(q2);
  Frame(&r);
  return r;
}

Request Unary(Verb verb, std::string q1) {
  Request r;
  r.verb = verb;
  r.q1 = std::move(q1);
  Frame(&r);
  return r;
}

Request Define(std::string name, std::string text) {
  Request r;
  r.verb = Verb::kDefine;
  r.name = std::move(name);
  r.q1 = std::move(text);
  Frame(&r);
  return r;
}

Request LoadState(std::string text) {
  Request r;
  r.verb = Verb::kState;
  r.q1 = std::move(text);
  Frame(&r);
  return r;
}

std::string StateText(size_t objects_per_class, uint64_t seed) {
  oocq::StatusOr<oocq::Schema> schema = oocq::ParseSchema(kSchemaText);
  if (!schema.ok()) throw std::runtime_error("bench schema does not parse");
  oocq::GeneratorParams params;
  params.objects_per_class = static_cast<uint32_t>(objects_per_class);
  params.seed = seed;
  params.max_set_size = 3;
  return oocq::StateToString(oocq::GenerateRandomState(*schema, params));
}

/// Fixed views named <prefix><i>, drawn from a seed of their own so every
/// run seed recovers the same catalog.
std::vector<std::pair<std::string, std::string>> FixedViews(
    const std::string& prefix, size_t count, uint64_t seed) {
  Rng rng(seed);
  GenOptions opt;
  std::vector<std::pair<std::string, std::string>> views;
  for (size_t i = 0; i < count; ++i) {
    views.emplace_back(prefix + std::to_string(i),
                       Generate(rng, opt).Text("x"));
  }
  return views;
}

/// A cold decision request: CONTAIN/EQUIV/MINIMIZE/SAT over fresh queries,
/// about a quarter of them with `!=` / `notin`. Pairs that carry a
/// negative atom keep the right side terminal, since Thm 4.1's union
/// test is defined for positive disjuncts only.
Request ColdDecision(Rng& rng) {
  GenOptions opt;
  opt.negative = rng.Chance(0.25);
  const size_t pick = rng.Below(100);
  if (pick < 45) {  // CONTAIN
    if (opt.negative) opt.terminal_prob = 1.0;
    Gen q1 = Generate(rng, opt);
    Gen q2;
    switch (rng.Below(3)) {
      case 0: q2 = Relax(rng, q1); break;
      case 1: q2 = opt.negative ? Relax(rng, q1) : Generalize(rng, Relax(rng, q1)); break;
      default: q2 = Refine(rng, Relax(rng, q1)); break;
    }
    q2 = Cap(rng, std::move(q2), opt.max_product);
    if (rng.Chance(0.5)) std::swap(q1, q2);
    if (!q1.positive() || !q2.positive()) {
      for (std::string& c : q2.cls) {
        if (!IsTerminal(c)) c = PickTerminal(rng, c);
      }
    }
    return Binary(Verb::kContain, q1.Text("x"), q2.Text("y"));
  }
  if (pick < 62) {  // EQUIV
    if (opt.negative) opt.terminal_prob = 1.0;
    Gen q1 = Generate(rng, opt);
    Gen q2 = Cap(rng, rng.Chance(0.6) ? DupLeaf(rng, q1) : Relax(rng, q1),
                 opt.max_product);
    return Binary(Verb::kEquiv, q1.Text("x"), q2.Text("y"));
  }
  if (pick < 84) {  // MINIMIZE
    opt.max_vars = 4;
    Gen q = Cap(rng, DupLeaf(rng, Generate(rng, opt)), opt.max_product);
    return Unary(Verb::kMinimize, q.Text("x"));
  }
  opt.terminal_prob = 1.0;  // SAT takes terminal queries
  return Unary(Verb::kSat, Generate(rng, opt).Text("x"));
}

/// A star join around the free variable: every other variable hangs off
/// one of x0's attributes, so the compiled join seeds on x0 and binds the
/// rest through slot loads and set scans. Work per query is then bounded
/// by x0's extent times the set fan-out instead of an extent product.
Gen EvalQuery(Rng& rng) {
  Gen q;
  const std::string root = kClasses[rng.Below(std::size(kClasses))].name;
  q.cls.push_back(rng.Chance(0.5) ? PickTerminal(rng, root) : root);
  std::vector<const AttrDef*> attrs = AttrsOf(q.cls[0]);
  const size_t k = rng.Between(2, 4);
  while (q.cls.size() < k && !attrs.empty()) {
    const size_t pick = rng.Below(attrs.size());
    const AttrDef* attr = attrs[pick];
    // One variable per object attribute; a set may feed several.
    if (!attr->set) attrs.erase(attrs.begin() + pick);
    const int v = static_cast<int>(q.cls.size());
    q.cls.push_back(rng.Chance(0.5) ? PickTerminal(rng, attr->target)
                                    : rng.Pick(DescendantsOf(attr->target)));
    q.atoms.push_back(
        Gen::Atom{attr->set ? Gen::kMember : Gen::kEqAttr, v, 0, attr->name});
  }
  if (q.cls.size() >= 3 && rng.Chance(0.25)) {
    Gen::Atom ne{Gen::kNe, 1, 2, ""};
    if (IsA(q.cls[1], q.cls[2]) || IsA(q.cls[2], q.cls[1])) q.atoms.push_back(ne);
  }
  return q;
}

std::vector<std::string> EvalPool(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::set<std::string> seen;
  std::vector<std::string> pool;
  while (pool.size() < count) {
    std::string text = EvalQuery(rng).Text("x");
    if (seen.insert(text).second) pool.push_back(std::move(text));
  }
  return pool;
}

/// A few requests, one per layer the workload's own mix does not call,
/// so every per-layer span has samples in the traced run.
void AppendLayerCoverage(Rng& rng, std::vector<Request>* warmup) {
  GenOptions opt;
  Gen q = Generate(rng, opt);
  warmup->push_back(Binary(Verb::kContain, q.Text("x"), Relax(rng, q).Text("y")));
  warmup->push_back(Binary(Verb::kContain, q.Text("x"), Relax(rng, q).Text("y")));
  warmup->push_back(Unary(Verb::kMinimize, DupLeaf(rng, q).Text("x")));
  opt.terminal_prob = 1.0;
  warmup->push_back(Unary(Verb::kSat, Generate(rng, opt).Text("x")));
  warmup->push_back(Unary(Verb::kEval, EvalQuery(rng).Text("x")));
}

// Catalogs and warm-ups come from fixed seeds: set-up does the same work
// whatever the run seed, which draws only the window.
constexpr uint64_t kCatalogSeed = 0x5eed;
constexpr size_t kSmallStateObjects = 20;

// Warm-up reads of the cold and churn workloads. Enough that set-up takes
// over 100 ms: on a shared VM the vCPU is taken away in ~10 ms stalls a
// few times a second, so a set-up of a few tens of milliseconds grew by
// half whenever one hit it, and its median over a run's repetitions
// swung with them.
constexpr int kSetupWarmup = 500;

// Window sizes: each repetition of a run sends exactly these requests.
constexpr size_t kColdWindow = 3000;
constexpr size_t kHotWindow = 1200;
constexpr size_t kEvalWindow = 4500;
constexpr size_t kChurnWindow = 2000;

Workload DecideCold(uint64_t seed) {
  Workload w;
  w.catalog.views = FixedViews("v", 300, kCatalogSeed + 1);
  w.catalog.tail_views = FixedViews("t", 50, kCatalogSeed + 2);
  w.catalog.state_text = StateText(kSmallStateObjects, kCatalogSeed + 3);
  std::set<std::string> seen;
  auto fresh = [&](Rng& rng) {
    while (true) {
      Request r = ColdDecision(rng);
      if (seen.insert(r.frame).second) return r;
    }
  };
  Rng warm(kCatalogSeed + 4);
  for (int i = 0; i < kSetupWarmup; ++i) w.warmup.push_back(fresh(warm));
  // Repeats exercise the cache-hit path once before the window.
  for (int i = 0; i < 5; ++i) w.warmup.push_back(w.warmup[i]);
  AppendLayerCoverage(warm, &w.warmup);
  Rng rng(seed);
  size_t defines = 0;
  for (size_t i = 0; i < kColdWindow; ++i) {
    if (rng.Chance(0.10)) {
      GenOptions opt;
      w.window.push_back(Define(Name("c", defines++),
                                Generate(rng, opt).Text("x")));
    } else {
      w.window.push_back(fresh(rng));
    }
  }
  return w;
}

Workload DecideHot(uint64_t seed) {
  Workload w;
  // Families of related views (a base query and derived variants), so
  // pair verdicts mix contained and not contained.
  Rng cat(kCatalogSeed + 10);
  std::vector<std::string> texts;
  const size_t kFamilies = 70;
  const size_t kPerFamily = 4;
  for (size_t f = 0; f < kFamilies; ++f) {
    GenOptions opt;
    opt.min_vars = 3;
    opt.max_vars = 5;
    opt.terminal_prob = 0.5;
    opt.min_product = 3;
    opt.max_product = 4;
    Gen base = Generate(cat, opt);
    std::vector<Gen> family = {base, Relax(cat, base), DupLeaf(cat, base),
                               Refine(cat, base)};
    for (Gen& g : family) {
      if (g.product() < 3) g = Generalize(cat, g);
      texts.push_back(Cap(cat, g, 4).Text("x"));
    }
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    w.catalog.views.emplace_back(Name("h", i), texts[i]);
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t f = 0; f < kFamilies; ++f) {
    for (size_t a = 0; a < kPerFamily; ++a) {
      for (size_t b = 0; b < kPerFamily; ++b) {
        if (a != b) pairs.emplace_back(f * kPerFamily + a, f * kPerFamily + b);
      }
    }
  }
  while (pairs.size() < 1400) {
    pairs.emplace_back(cat.Below(texts.size()), cat.Below(texts.size()));
  }
  for (const auto& [a, b] : pairs) {
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
      w.catalog.prewarm.push_back(Binary(Verb::kContain,
                                         Name("@h", x),
                                         Name("@h", y)));
    }
  }
  w.catalog.tail_views = FixedViews("ht", 20, kCatalogSeed + 11);
  w.catalog.state_text = StateText(kSmallStateObjects, kCatalogSeed + 12);

  // Skewed popularity: Zipf(0.7) over a seed-chosen ranking of the pairs.
  // Views expand to 3..4 disjuncts, so a pair's cost barely depends on
  // which pairs a seed ranks first.
  Rng rng(seed);
  std::vector<size_t> rank(pairs.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  std::shuffle(rank.begin(), rank.end(), rng.engine());
  std::vector<double> cdf(pairs.size());
  double total = 0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 0.7);
    cdf[i] = total;
  }
  auto side = [&](size_t view) {
    return rng.Chance(0.65) ? Name("@h", view) : texts[view];
  };
  size_t defines = 0;
  auto next = [&]() {
    if (rng.Chance(0.05)) {
      return Define(Name("hn", defines++), rng.Pick(texts));
    }
    double u = std::uniform_real_distribution<double>(0, total)(rng.engine());
    size_t r = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    const auto& [a, b] = pairs[rank[std::min(r, rank.size() - 1)]];
    return Binary(rng.Chance(0.7) ? Verb::kContain : Verb::kEquiv, side(a),
                  side(b));
  };
  for (size_t i = 0; i < 200; ++i) {
    const auto& [a, b] = pairs[i * 7 % pairs.size()];
    w.warmup.push_back(Binary(Verb::kContain, Name("@h", a), Name("@h", b)));
  }
  Rng warm(kCatalogSeed + 13);
  AppendLayerCoverage(warm, &w.warmup);
  for (size_t i = 0; i < kHotWindow; ++i) w.window.push_back(next());
  return w;
}

Workload EvalScan(uint64_t seed) {
  Workload w;
  w.catalog.views = FixedViews("e", 20, kCatalogSeed + 20);
  w.catalog.tail_views = FixedViews("et", 5, kCatalogSeed + 21);
  w.catalog.state_text = StateText(500, kCatalogSeed + 22);
  const std::vector<std::string> pool = EvalPool(1200, kCatalogSeed + 23);
  for (const std::string& q : pool) w.warmup.push_back(Unary(Verb::kEval, q));
  Rng warm(kCatalogSeed + 24);
  AppendLayerCoverage(warm, &w.warmup);
  Rng rng(seed);
  // Fresh texts come from a generator seeded by the run seed; any that
  // collide with the pool are simply pool hits.
  const std::vector<std::string> fresh = EvalPool(kEvalWindow / 5, seed);
  size_t next_fresh = 0;
  size_t defines = 0;
  for (size_t i = 0; i < kEvalWindow; ++i) {
    const size_t pick = rng.Below(100);
    if (pick < 5) {
      GenOptions opt;
      w.window.push_back(Define(Name("en", defines++),
                                Generate(rng, opt).Text("x")));
    } else if (pick < 15) {
      w.window.push_back(Unary(Verb::kEval, fresh[next_fresh++]));
    } else {
      w.window.push_back(Unary(Verb::kEval, rng.Pick(pool)));
    }
  }
  w.probe_queries.assign(pool.begin(), pool.begin() + 5);
  return w;
}

Workload CatalogChurn(uint64_t seed) {
  Workload w;
  Rng cat(kCatalogSeed + 30);
  const GenOptions view_opt;
  std::vector<Gen> views;
  for (size_t i = 0; i < 300; ++i) {
    views.push_back(Generate(cat, view_opt));
    w.catalog.views.emplace_back(Name("c", i), views.back().Text("x"));
  }
  w.catalog.tail_views = FixedViews("ct", 50, kCatalogSeed + 31);
  w.catalog.state_text = StateText(kSmallStateObjects, kCatalogSeed + 32);
  std::vector<std::string> states;
  for (uint64_t s = 0; s < 4; ++s) {
    states.push_back(StateText(kSmallStateObjects, kCatalogSeed + 33 + s));
  }
  const std::vector<std::string> pool = EvalPool(200, kCatalogSeed + 40);

  std::vector<std::string> defined;  // names defined so far, with texts
  std::vector<Gen> defined_gen;
  auto next = [&](Rng& rng, bool writes) {
    const size_t pick = writes ? rng.Below(100) : 30 + rng.Below(70);
    if (pick < 25) {
      Gen g = Generate(rng, view_opt);
      defined.push_back(Name("n", defined.size()));
      defined_gen.push_back(g);
      return Define(defined.back(), g.Text("x"));
    }
    if (pick < 30) return LoadState(rng.Pick(states));
    if (pick < 70) {
      // Fresh view against an existing one: a refinement of it (usually
      // contained) or an unrelated fresh query (usually not).
      const bool recent = !defined.empty() && rng.Chance(0.3);
      const size_t k = recent ? defined.size() - 1 - rng.Below(std::min<size_t>(defined.size(), 20))
                              : rng.Below(views.size());
      const Gen& target = recent ? defined_gen[k] : views[k];
      const std::string name = recent ? "@" + defined[k] : Name("@c", k);
      Gen q1 = rng.Chance(0.5) ? Refine(rng, target) : Generate(rng, view_opt);
      return Binary(Verb::kContain, q1.Text("y"), name);
    }
    return Unary(Verb::kEval, rng.Pick(pool));
  };
  // The warm-up sends reads only. A write's ack waits for an fsync, and
  // on a shared disk fsync latency varies tenfold between repetitions,
  // which would make setup_s measure the disk.
  Rng warm(kCatalogSeed + 41);
  for (int i = 0; i < kSetupWarmup; ++i) w.warmup.push_back(next(warm, false));
  AppendLayerCoverage(warm, &w.warmup);
  Rng rng(seed);
  for (size_t i = 0; i < kChurnWindow; ++i) w.window.push_back(next(rng, true));
  w.probe_queries.assign(pool.begin(), pool.begin() + 5);
  return w;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kContain: return "CONTAIN";
    case Verb::kEquiv: return "EQUIV";
    case Verb::kMinimize: return "MINIMIZE";
    case Verb::kSat: return "SAT";
    case Verb::kEval: return "EVAL";
    case Verb::kDefine: return "DEFINE";
    case Verb::kState: return "STATE";
  }
  return "?";
}

void Frame(Request* r) {
  std::string head = std::string(VerbName(r->verb)) + " " + kSession;
  switch (r->verb) {
    case Verb::kContain:
    case Verb::kEquiv:
      r->frame = head + "\n" + DotStuff(r->q1) + DotStuff(r->q2) + ".\n";
      return;
    case Verb::kDefine:
      r->frame = head + " " + r->name + "\n" + DotStuff(r->q1) + ".\n";
      return;
    default:
      r->frame = head + "\n" + DotStuff(r->q1) + ".\n";
      return;
  }
}

std::vector<std::string> WorkloadNames() {
  return {"decide_cold", "decide_hot", "eval_scan", "catalog_churn"};
}

bool IsWorkload(const std::string& name) {
  for (const std::string& w : WorkloadNames()) {
    if (w == name) return true;
  }
  return false;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "decide_cold") w = DecideCold(seed);
  else if (name == "decide_hot") w = DecideHot(seed);
  else if (name == "eval_scan") w = EvalScan(seed);
  else if (name == "catalog_churn") w = CatalogChurn(seed);
  else throw std::invalid_argument("unknown workload " + name);
  w.catalog.schema_text = kSchemaText;
  if (w.probe_queries.empty()) {
    w.probe_queries = EvalPool(5, kCatalogSeed + 50);
  }
  return w;
}

}  // namespace servicebench
