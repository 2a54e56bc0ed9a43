/// Parameterised property suite for the replicated database: convergence,
/// agreement, and cost invariants across an (n, d, batch) grid.

#include <gtest/gtest.h>

#include <string>

#include "rrb/graph/generators.hpp"
#include "rrb/p2p/replicated_db.hpp"

namespace rrb {
namespace {

/// `prefix` followed by the decimal i ("k3"). Built with append: GCC 12's
/// -Wrestrict misfires on "k" + std::to_string(i) at -O3.
std::string numbered(const char* prefix, int i) {
  std::string s(prefix);
  s.append(std::to_string(i));
  return s;
}

struct DbGridParam {
  int n;
  int d;
  int batch;
};

class DbGrid : public ::testing::TestWithParam<DbGridParam> {};

TEST_P(DbGrid, AllUpdatesConvergeAndAgree) {
  const auto param = GetParam();
  Rng grng(static_cast<std::uint64_t>(param.n * 31 + param.d * 7 +
                                      param.batch));
  const Graph g = random_regular_simple(static_cast<NodeId>(param.n),
                                        static_cast<NodeId>(param.d), grng);
  ReplicatedDbConfig cfg;
  cfg.seed = derive_seed(0xdb, static_cast<std::uint64_t>(param.batch));
  ReplicatedDb db(g, cfg);

  for (int i = 0; i < param.batch; ++i)
    db.put(static_cast<NodeId>((i * 131) % param.n),
           numbered("key", i), numbered("value", i));

  ASSERT_TRUE(db.run_to_convergence(800));

  // Agreement: every replica returns the same value for every key.
  for (int i = 0; i < param.batch; ++i) {
    const std::string key = numbered("key", i);
    const std::string* expected = db.get(0, key);
    ASSERT_NE(expected, nullptr);
    for (NodeId v = 1; v < g.num_nodes(); ++v) {
      const std::string* got = db.get(v, key);
      ASSERT_NE(got, nullptr) << key << " missing at " << v;
      EXPECT_EQ(*got, *expected);
    }
  }
}

TEST_P(DbGrid, CostInvariants) {
  const auto param = GetParam();
  Rng grng(static_cast<std::uint64_t>(param.n * 17 + param.d + param.batch));
  const Graph g = random_regular_simple(static_cast<NodeId>(param.n),
                                        static_cast<NodeId>(param.d), grng);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  for (int i = 0; i < param.batch; ++i)
    db.put(static_cast<NodeId>((i * 37) % param.n),
           numbered("k", i), "v");
  ASSERT_TRUE(db.run_to_convergence(800));

  // Each update reaches n replicas, so entry transmissions are at least
  // batch * (n - 1) (every non-origin replica received >= 1 copy), and
  // channel messages never exceed entry transmissions.
  const auto n = static_cast<Count>(param.n);
  EXPECT_GE(db.entry_transmissions(),
            static_cast<Count>(param.batch) * (n - 1));
  EXPECT_LE(db.channel_messages(), db.entry_transmissions());
  // Combining: with more than one update in flight, strictly fewer channel
  // messages than entries.
  if (param.batch > 1) {
    EXPECT_LT(db.channel_messages(), db.entry_transmissions());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DbGrid,
    ::testing::Values(DbGridParam{128, 6, 1}, DbGridParam{128, 6, 8},
                      DbGridParam{256, 8, 4}, DbGridParam{256, 8, 32},
                      DbGridParam{512, 10, 16}, DbGridParam{1024, 8, 2}));

/// Interleaved write/step schedules keep last-writer-wins deterministic.
class DbInterleavingGrid : public ::testing::TestWithParam<int> {};

TEST_P(DbInterleavingGrid, RepeatedOverwritesEndAtLastValue) {
  const int rewrites = GetParam();
  Rng grng(0x1db);
  const Graph g = random_regular_simple(256, 8, grng);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  for (int i = 0; i < rewrites; ++i) {
    db.put(static_cast<NodeId>((i * 97) % 256), "hot",
           numbered("v", i));
    db.step();
    db.step();
    db.step();
  }
  ASSERT_TRUE(db.run_to_convergence(800));
  const std::string expected = numbered("v", rewrites - 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::string* got = db.get(v, "hot");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, expected) << "replica " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DbInterleavingGrid,
                         ::testing::Values(2, 5, 9));

}  // namespace
}  // namespace rrb
