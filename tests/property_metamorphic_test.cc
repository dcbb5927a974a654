// Metamorphic oracles from the theory: relations between two runs that
// must hold without knowing either answer.
//
//  * Monotonicity. A positive query's answers on a state are kept on any
//    state that only adds objects (Surinx & Van den Bussche characterize
//    the monotone queries; positive conjunctive queries are among them).
//    Checked on both the bytecode VM and the tree walker.
//  * Uniqueness up to renaming (Thm 4.5). Minimizing a bijective variable
//    renaming of Q gives the same canonical keys as minimizing Q.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/minimization.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

const char* const kSchema = R"(
schema Metamorphic {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; T: {E}; }
})";

class MetamorphicProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Schema schema_ = MustParseSchema(kSchema);

  /// A random positive well-formed query, or nullopt for an unusable draw.
  std::optional<ConjunctiveQuery> Draw(std::mt19937_64& rng) {
    RandomQueryParams params;
    params.terminal_only = false;
    params.max_vars = 4;
    ConjunctiveQuery query = GenerateRandomQuery(schema_, rng, params);
    if (!query.IsPositive() || !CheckWellFormed(schema_, query).ok()) {
      return std::nullopt;
    }
    return query;
  }

  /// `base` plus the objects of a second random state, appended so every
  /// base oid keeps its identity and its attributes. The new objects'
  /// references point at other new objects or, half the time, at a base
  /// object of the same class, so new joins reach old objects too.
  State Grow(const State& base, uint64_t seed, std::mt19937_64& rng) {
    GeneratorParams params;
    params.objects_per_class = 2;
    params.seed = seed;
    State extra = GenerateRandomState(schema_, params);
    State grown = base;
    // The schema has no primitive-typed attributes, so the generator's
    // interned primitives are referenced by nothing and stay behind.
    std::vector<Oid> image(extra.num_objects(), kInvalidOid);
    for (Oid oid = 0; oid < extra.num_objects(); ++oid) {
      if (schema_.class_info(extra.class_of(oid)).is_builtin) continue;
      image[oid] = *grown.AddObject(extra.class_of(oid));
    }
    auto target = [&](Oid ref) {
      std::vector<Oid> same_class = base.Extent(extra.class_of(ref));
      if (same_class.empty() || rng() % 2 == 0) return image[ref];
      return same_class[rng() % same_class.size()];
    };
    for (Oid oid = 0; oid < extra.num_objects(); ++oid) {
      if (image[oid] == kInvalidOid) continue;
      for (const AttributeDef& attr :
           schema_.class_info(extra.class_of(oid)).all_attributes) {
        const Value* value = extra.GetAttribute(oid, attr.name);
        if (value == nullptr || value->is_null()) continue;
        Value mapped = Value::Null();
        if (value->kind() == Value::Kind::kRef) {
          mapped = Value::Ref(target(value->ref()));
        } else {
          std::vector<Oid> members;
          for (Oid member : value->set()) members.push_back(target(member));
          mapped = Value::Set(std::move(members));
        }
        OOCQ_EXPECT_OK(grown.SetAttribute(image[oid], attr.name, mapped));
      }
    }
    OOCQ_EXPECT_OK(grown.Validate());
    return grown;
  }
};

std::vector<Oid> MustEvaluate(const State& state, const ConjunctiveQuery& query,
                              bool compiled) {
  EvalOptions options;
  options.enable_compilation = compiled;
  StatusOr<std::vector<Oid>> answers = Evaluate(state, query, options);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  return answers.ok() ? *std::move(answers) : std::vector<Oid>{};
}

TEST_P(MetamorphicProperty, AddingObjectsNeverShrinksPositiveAnswers) {
  std::mt19937_64 rng(GetParam());
  GeneratorParams params;
  params.objects_per_class = 3;
  params.seed = 1000 + GetParam();
  const State base = GenerateRandomState(schema_, params);
  const State grown = Grow(base, 2000 + GetParam(), rng);
  ASSERT_GT(grown.num_objects(), base.num_objects());

  int checked = 0;
  int grew = 0;
  for (int draw = 0; draw < 400 && checked < 40; ++draw) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    for (bool compiled : {true, false}) {
      std::vector<Oid> before = MustEvaluate(base, *query, compiled);
      std::vector<Oid> after = MustEvaluate(grown, *query, compiled);
      EXPECT_TRUE(std::includes(after.begin(), after.end(), before.begin(),
                                before.end()))
          << (compiled ? "vm" : "walker") << ": "
          << QueryToString(schema_, *query);
      if (compiled && after.size() > before.size()) ++grew;
    }
    ++checked;
  }
  EXPECT_GE(checked, 20);
  EXPECT_GT(grew, 0) << "no draw gained an answer; the check is vacuous";
}

TEST_P(MetamorphicProperty, MinimizingARenamingGivesTheSameCanonicalKeys) {
  std::mt19937_64 rng(GetParam());
  auto keys = [](const UnionQuery& query) {
    std::vector<std::string> out;
    for (const ConjunctiveQuery& q : query.disjuncts) {
      out.push_back(CanonicalKey(q));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  int checked = 0;
  for (int draw = 0; draw < 200 && checked < 15; ++draw) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;

    // A random bijection on the variable ids, fresh names included.
    std::vector<VarId> image(query->num_vars());
    std::iota(image.begin(), image.end(), VarId{0});
    std::shuffle(image.begin(), image.end(), rng);
    std::vector<VarId> inverse(image.size());
    for (VarId v = 0; v < image.size(); ++v) inverse[image[v]] = v;
    ConjunctiveQuery renamed;
    for (VarId v = 0; v < image.size(); ++v) {
      renamed.AddVariable("r" + std::to_string(v) + "_" +
                          query->var_name(inverse[v]));
    }
    renamed.set_free_var(image[query->free_var()]);
    for (const Atom& atom : query->atoms()) {
      renamed.AddAtom(atom.MapVariables(image));
    }

    StatusOr<MinimizationReport> original =
        MinimizePositiveQuery(schema_, *query);
    StatusOr<MinimizationReport> of_renamed =
        MinimizePositiveQuery(schema_, renamed);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    ASSERT_TRUE(of_renamed.ok()) << of_renamed.status().ToString();
    EXPECT_EQ(keys(original->minimized), keys(of_renamed->minimized))
        << QueryToString(schema_, *query) << "\nrenamed: "
        << QueryToString(schema_, renamed);
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace oocq
