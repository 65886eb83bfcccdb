// lint-fixture: expect(plan-compile-sites)
// A core consumer compiling its own per-term plan instead of taking the
// plan table's: the conjugated layer's topology would be compiled twice.
#include "tn/plan.hpp"

noisim::tn::ContractionPlan fixture_bottom_layer_plan(const noisim::tn::Network& net) {
  return noisim::tn::ContractionPlan::compile(net);
}
