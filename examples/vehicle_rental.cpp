// The full Example 1.1 pipeline, end to end: schema, a concrete database
// state, the unoptimized query, the minimized query, and a side-by-side
// evaluation showing the search-space reduction that motivates the paper.
//
//   $ ./vehicle_rental

#include <cstdio>

#include "core/optimizer.h"
#include "parser/parser.h"
#include "query/printer.h"
#include "state/evaluation.h"
#include "state/state.h"

namespace {

using namespace oocq;

template <typename T>
T Must(StatusOr<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(value);
}

void MustOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  Schema schema = Must(ParseSchema(R"(
schema VehicleRental {
  class Vehicle  { VehId: String; }
  class Auto     under Vehicle { Doors: Int; }
  class Trailer  under Vehicle { Axles: Int; }
  class Truck    under Vehicle { Payload: Real; }
  class Client   { Name: String; VehRented: {Vehicle}; Deposit: Real; }
  class Regular  under Client { }
  class Discount under Client { Rate: Real; VehRented: {Auto}; }
})"));

  // --- Build a small rental database -------------------------------
  State db(&schema);
  ClassId auto_cls = Must(schema.FindClass("Auto"));
  ClassId truck_cls = Must(schema.FindClass("Truck"));
  ClassId trailer_cls = Must(schema.FindClass("Trailer"));
  ClassId regular_cls = Must(schema.FindClass("Regular"));
  ClassId discount_cls = Must(schema.FindClass("Discount"));

  Oid corolla = Must(db.AddObject(auto_cls));
  Oid civic = Must(db.AddObject(auto_cls));
  Oid f150 = Must(db.AddObject(truck_cls));
  Oid flatbed = Must(db.AddObject(trailer_cls));
  MustOk(db.SetAttribute(corolla, "VehId", Value::Ref(db.InternString("COR-1"))));
  MustOk(db.SetAttribute(civic, "VehId", Value::Ref(db.InternString("CIV-7"))));
  MustOk(db.SetAttribute(f150, "VehId", Value::Ref(db.InternString("TRK-3"))));

  Oid alice = Must(db.AddObject(discount_cls));   // Discount: autos only.
  Oid bob = Must(db.AddObject(regular_cls));      // Regular: anything.
  MustOk(db.SetAttribute(alice, "Name", Value::Ref(db.InternString("Alice"))));
  MustOk(db.SetAttribute(alice, "VehRented", Value::Set({corolla})));
  MustOk(db.SetAttribute(bob, "Name", Value::Ref(db.InternString("Bob"))));
  MustOk(db.SetAttribute(bob, "VehRented", Value::Set({f150, flatbed, civic})));
  MustOk(db.Validate());

  std::printf("database: %zu objects (3 autos/trucks/trailers, 2 clients)\n\n",
              db.num_objects());

  // --- The user's query --------------------------------------------
  const char* text =
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }";
  ConjunctiveQuery query = Must(ParseQuery(schema, text));
  std::printf("query:     %s\n", text);

  // --- Optimize ------------------------------------------------------
  QueryOptimizer optimizer(schema);
  OptimizeReport report = Must(optimizer.Optimize(query));
  std::printf("optimized: %s\n\n",
              UnionQueryToString(schema, report.optimized).c_str());
  std::printf("%s\n", report.Summary(schema).c_str());

  // --- Evaluate both and compare the work done -----------------------
  // The counters are the bytecode VM's, the evaluator the server runs.
  EvalStats original_stats;
  std::vector<Oid> original = Must(Evaluate(db, query, {}, &original_stats));
  EvalStats optimized_stats;
  std::vector<Oid> optimized =
      Must(EvaluateUnion(db, report.optimized, {}, &optimized_stats));

  std::printf("answers (original):  ");
  for (Oid oid : original) std::printf("%s ", db.DebugString(oid).c_str());
  std::printf("\nanswers (optimized): ");
  for (Oid oid : optimized) std::printf("%s ", db.DebugString(oid).c_str());
  std::printf("\n\nsearch space: %llu candidate objects -> %llu\n",
              static_cast<unsigned long long>(original_stats.candidate_pool),
              static_cast<unsigned long long>(optimized_stats.candidate_pool));
  std::printf("assignments tried: %llu -> %llu\n",
              static_cast<unsigned long long>(original_stats.assignments_tried),
              static_cast<unsigned long long>(
                  optimized_stats.assignments_tried));

  return original == optimized ? 0 : 1;
}
