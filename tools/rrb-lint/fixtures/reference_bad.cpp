// Fixture: the distribution tests' reference simulator must stay
// independent of the engine it checks — it may see only the graph, the
// random source and common. Linted with --as tests/reference/fixture.cpp;
// expects 2 findings of module-layering.
#include "rrb/common/types.hpp"          // ok: declared dependency
#include "rrb/graph/graph.hpp"           // ok: declared dependency
#include "rrb/rng/rng.hpp"               // ok: declared dependency
#include "rrb/phonecall/engine.hpp"      // finding: the engine under test
#include "rrb/protocols/baselines.hpp"   // finding: its protocols

namespace rrb::reference {
void fixture();
}
