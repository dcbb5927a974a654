// Unit tests for the 3-valued-logic evaluator, including the null
// semantics the containment theory depends on (Ex 3.1 / Ex 3.3).

#include <gtest/gtest.h>

#include "state/evaluation.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class EvaluationTest : public ::testing::Test {
 protected:
  EvaluationTest() : state_(&schema_) {
    c_ = schema_.FindClass("C").value();
    e_ = schema_.FindClass("E").value();
    f_ = schema_.FindClass("F").value();
  }

  Schema schema_ = MustParseSchema(R"(
schema Eval {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");
  State state_;
  ClassId c_, e_, f_;

  std::vector<Oid> Eval(const std::string& text) {
    ConjunctiveQuery query = MustParseQuery(schema_, text);
    StatusOr<std::vector<Oid>> result = Evaluate(state_, query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : std::vector<Oid>{};
  }
};

TEST_F(EvaluationTest, RangeAtomFiltersByClass) {
  Oid e1 = *state_.AddObject(e_);
  *state_.AddObject(f_);
  EXPECT_EQ(Eval("{ x | x in E }"), (std::vector<Oid>{e1}));
  EXPECT_EQ(Eval("{ x | x in D }").size(), 2u);
}

TEST_F(EvaluationTest, EmptyExtentGivesEmptyAnswer) {
  EXPECT_TRUE(Eval("{ x | x in E }").empty());
}

TEST_F(EvaluationTest, EqualityOnAttribute) {
  Oid e1 = *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  Oid c2 = *state_.AddObject(c_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  // c2.A stays null.
  EXPECT_EQ(Eval("{ x | exists u (x in C & u in E & u = x.A) }"),
            (std::vector<Oid>{c1}));
  (void)c2;
}

TEST_F(EvaluationTest, NullAttributeIsUnknownNotFalse) {
  // Example 3.1's semantics: z = y.A selects objects with a NON-NULL A.
  Oid c1 = *state_.AddObject(c_);
  *state_.AddObject(e_);
  // c1.A null: no answer, even though an E object exists.
  EXPECT_TRUE(Eval("{ x | exists u (x in C & u in E & u = x.A) }").empty());
  (void)c1;
}

TEST_F(EvaluationTest, InequalityWithNullIsUnknown) {
  Oid c1 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  // x.A is null: x.A != u is unknown, not true.
  EXPECT_TRUE(Eval("{ x | exists u (x in C & u in E & x.A != u) }").empty());
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  // Now x.A = e1, and e1 != e1 is false: still empty.
  EXPECT_TRUE(Eval("{ x | exists u (x in C & u in E & x.A != u) }").empty());
  Oid e2 = *state_.AddObject(e_);
  // e2 differs from e1: answer appears.
  EXPECT_EQ(Eval("{ x | exists u (x in C & u in E & x.A != u) }"),
            (std::vector<Oid>{c1}));
  (void)e2;
}

TEST_F(EvaluationTest, MembershipSemantics) {
  Oid c1 = *state_.AddObject(c_);
  Oid c2 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e1})));
  OOCQ_ASSERT_OK(state_.SetAttribute(c2, "S", Value::Set({})));
  EXPECT_EQ(Eval("{ x | exists u (x in C & u in E & u in x.S) }"),
            (std::vector<Oid>{c1}));
}

TEST_F(EvaluationTest, NonMembershipNullSetIsUnknown) {
  // Example 3.3's semantics: u notin x.S requires x.S non-null.
  Oid c1 = *state_.AddObject(c_);
  Oid c2 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({})));
  // c2.S stays null: only c1 answers.
  EXPECT_EQ(Eval("{ x | exists u (x in C & u in E & u notin x.S) }"),
            (std::vector<Oid>{c1}));
  // Put e1 inside c1.S: no answers at all.
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e1})));
  EXPECT_TRUE(
      Eval("{ x | exists u (x in C & u in E & u notin x.S) }").empty());
  (void)c2;
}

TEST_F(EvaluationTest, NonRangeAtom) {
  Oid e1 = *state_.AddObject(e_);
  Oid f1 = *state_.AddObject(f_);
  EXPECT_EQ(Eval("{ x | x in D & x notin F }"), (std::vector<Oid>{e1}));
  (void)f1;
}

TEST_F(EvaluationTest, InequalityNeedsTwoObjects) {
  // Example 3.2's semantics.
  Oid e1 = *state_.AddObject(e_);
  EXPECT_TRUE(
      Eval("{ x | exists y exists z (x in E & y in E & z in E & x != y & "
           "y != z) }")
          .empty());
  Oid e2 = *state_.AddObject(e_);
  // Two objects satisfy x != y & y != z (z = x).
  EXPECT_EQ(Eval("{ x | exists y exists z (x in E & y in E & z in E & "
                 "x != y & y != z) }")
                .size(),
            2u);
  // But not the pairwise-distinct Q3.
  EXPECT_TRUE(
      Eval("{ x | exists y exists z (x in E & y in E & z in E & x != y & "
           "y != z & x != z) }")
          .empty());
  Oid e3 = *state_.AddObject(e_);
  EXPECT_EQ(Eval("{ x | exists y exists z (x in E & y in E & z in E & "
                 "x != y & y != z & x != z) }")
                .size(),
            3u);
  (void)e1;
  (void)e2;
  (void)e3;
}

TEST_F(EvaluationTest, ClassDisjunctionRange) {
  Oid e1 = *state_.AddObject(e_);
  Oid f1 = *state_.AddObject(f_);
  *state_.AddObject(c_);
  std::vector<Oid> result = Eval("{ x | x in E|F }");
  EXPECT_EQ(result, (std::vector<Oid>{e1, f1}));
}

TEST_F(EvaluationTest, AnswersAreDeduplicated) {
  Oid c1 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  Oid e2 = *state_.AddObject(e_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e1, e2})));
  // Two witnesses for u, one answer.
  EXPECT_EQ(Eval("{ x | exists u (x in C & u in E & u in x.S) }"),
            (std::vector<Oid>{c1}));
}

TEST_F(EvaluationTest, StatsCountWork) {
  for (int i = 0; i < 5; ++i) *state_.AddObject(e_);
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in E) }");
  EvalStats stats;
  StatusOr<std::vector<Oid>> result = Evaluate(state_, query, {}, &stats);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_EQ(stats.candidate_pool, 10u);  // 5 + 5.
  EXPECT_GE(stats.assignments_tried, 25u);
}

TEST_F(EvaluationTest, AssignmentCapEnforced) {
  for (int i = 0; i < 10; ++i) *state_.AddObject(e_);
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y exists z (x in E & y in E & z in E) }");
  EvalOptions options;
  options.max_assignments = 50;
  EXPECT_EQ(Evaluate(state_, query, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(EvaluationTest, JoinOrderDoesNotChangeAnswers) {
  for (int i = 0; i < 6; ++i) *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  Oid e_target = state_.Extent(e_)[2];
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e_target})));
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ u | exists x (u in E & x in C & u in x.S) }");
  // reorder_variables shapes the tree walker's binding order; the VM
  // runs the compiler's plan either way.
  EvalOptions ordered;
  ordered.enable_compilation = false;
  ordered.reorder_variables = true;
  EvalOptions declared;
  declared.enable_compilation = false;
  declared.reorder_variables = false;
  EvalStats ordered_stats, declared_stats;
  std::vector<Oid> a = *Evaluate(state_, query, ordered, &ordered_stats);
  std::vector<Oid> b = *Evaluate(state_, query, declared, &declared_stats);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, std::vector<Oid>{e_target});
  // The selective variable (x over one C object) binds first when
  // reordering: strictly less work.
  EXPECT_LT(ordered_stats.assignments_tried,
            declared_stats.assignments_tried);
}

TEST_F(EvaluationTest, JoinOrderPrefersConnectedVariables) {
  // Regression: a small-extent variable connected only to the largest
  // extent must not be bound before that extent's partner — selectivity
  // alone would defer every check to the innermost loop.
  for (int i = 0; i < 30; ++i) *state_.AddObject(e_);   // E: large
  for (int i = 0; i < 20; ++i) *state_.AddObject(c_);   // C: medium
  // Each C object holds one E element.
  std::vector<Oid> es = state_.Extent(e_);
  std::vector<Oid> cs = state_.Extent(c_);
  for (size_t i = 0; i < cs.size(); ++i) {
    OOCQ_ASSERT_OK(state_.SetAttribute(cs[i], "S", Value::Set({es[i]})));
    OOCQ_ASSERT_OK(state_.SetAttribute(cs[i], "A", Value::Ref(es[i])));
  }
  // u and w both hang off x, and the declaration order binds them first:
  // without reordering every check defers to the innermost loop. The
  // connectivity-aware order seeds with x (smallest pool) and keeps the
  // join checks early.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ u | exists w exists x (u in E & w in E & x in C & u in x.S & "
      "w = x.A) }");
  EvalStats ordered, declared;
  EvalOptions walker;
  walker.enable_compilation = false;
  EvalOptions no_reorder = walker;
  no_reorder.reorder_variables = false;
  std::vector<Oid> a = *Evaluate(state_, query, walker, &ordered);
  std::vector<Oid> b = *Evaluate(state_, query, no_reorder, &declared);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), cs.size());  // One member per C object.
  // Connected order: at worst |C| + |C|*|E| + matches; the declaration
  // order pays |E|^2 * |C|-ish. Require a decisive improvement.
  EXPECT_LT(ordered.assignments_tried, declared.assignments_tried / 5);
}

TEST_F(EvaluationTest, UnionEvaluationMergesAnswers) {
  Oid e1 = *state_.AddObject(e_);
  Oid f1 = *state_.AddObject(f_);
  StatusOr<UnionQuery> query =
      ParseUnionQuery(schema_, "{ x | x in E } union { x | x in F }");
  OOCQ_ASSERT_OK(query.status());
  StatusOr<std::vector<Oid>> result = EvaluateUnion(state_, *query);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_EQ(*result, (std::vector<Oid>{e1, f1}));
}

TEST_F(EvaluationTest, MembershipOnObjectTypedSlotIsUnknown) {
  // x.A is object-typed; u in x.A is a type error -> unknown -> no answer.
  Oid c1 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  EXPECT_TRUE(Eval("{ x | exists u (x in C & u in E & u in x.A) }").empty());
}

TEST_F(EvaluationTest, EqualityOnSetTypedSlotIsUnknown) {
  Oid c1 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e1})));
  EXPECT_TRUE(Eval("{ x | exists u (x in C & u in E & u = x.S) }").empty());
}

}  // namespace
}  // namespace oocq
