#include "rrb/p2p/replicated_db.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "rrb/graph/generators.hpp"

namespace rrb {
namespace {

/// `prefix` followed by the decimal i ("k3"). Built with append: GCC 12's
/// -Wrestrict misfires on "k" + std::to_string(i) at -O3.
std::string numbered(const char* prefix, int i) {
  std::string s(prefix);
  s.append(std::to_string(i));
  return s;
}

Graph small_overlay(NodeId n, NodeId d, std::uint64_t seed) {
  Rng rng(seed);
  return random_regular_simple(n, d, rng);
}

TEST(ReplicatedDb, SingleUpdateConverges) {
  const Graph g = small_overlay(512, 8, 1);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  const UpdateId u = db.put(0, "motd", "hello");
  EXPECT_TRUE(db.run_to_convergence(500));
  EXPECT_TRUE(db.delivered_everywhere(u));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::string* val = db.get(v, "motd");
    ASSERT_NE(val, nullptr);
    EXPECT_EQ(*val, "hello");
  }
}

// step() writes each node's choices into a 64-entry buffer, so the
// constructor must refuse more choices, as PhoneCallEngine's does.
TEST(ReplicatedDb, RejectsMoreThan64Choices) {
  const Graph g = complete(70);  // degree 69 > 64
  ReplicatedDbConfig config;
  config.num_choices = 65;
  EXPECT_THROW(ReplicatedDb(g, config), std::logic_error);
  config.num_choices = 64;
  ReplicatedDb db(g, config);
  db.put(0, "k", "v");
  db.step();
  EXPECT_EQ(db.channels_opened(), Count{70} * 64);
}

TEST(ReplicatedDb, GetMissingKeyIsNull) {
  const Graph g = small_overlay(64, 6, 2);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  EXPECT_EQ(db.get(0, "absent"), nullptr);
}

TEST(ReplicatedDb, OriginHasValueImmediately) {
  const Graph g = small_overlay(64, 6, 3);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  db.put(5, "k", "v");
  const std::string* val = db.get(5, "k");
  ASSERT_NE(val, nullptr);
  EXPECT_EQ(*val, "v");
  EXPECT_EQ(db.replicas(0), 1U);
}

TEST(ReplicatedDb, MultipleKeysConvergeTogether) {
  const Graph g = small_overlay(256, 8, 4);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  db.put(0, "a", "1");
  db.put(10, "b", "2");
  db.put(20, "c", "3");
  EXPECT_TRUE(db.run_to_convergence(500));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(*db.get(v, "a"), "1");
    EXPECT_EQ(*db.get(v, "b"), "2");
    EXPECT_EQ(*db.get(v, "c"), "3");
  }
}

TEST(ReplicatedDb, LaterWriteWinsEverywhere) {
  const Graph g = small_overlay(256, 8, 5);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  db.put(0, "config", "old");
  // Let the first update spread a bit, then overwrite from elsewhere.
  for (int i = 0; i < 5; ++i) db.step();
  db.put(99, "config", "new");
  EXPECT_TRUE(db.run_to_convergence(500));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(*db.get(v, "config"), "new");
}

TEST(ReplicatedDb, ConcurrentWritesResolveDeterministically) {
  // Two writes to the same key in the same round: ties break by update id,
  // so the later put() wins on every replica.
  const Graph g = small_overlay(256, 8, 6);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  db.put(0, "k", "first");
  db.put(128, "k", "second");
  EXPECT_TRUE(db.run_to_convergence(500));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(*db.get(v, "k"), "second");
}

TEST(ReplicatedDb, ReplicaCountIsMonotone) {
  const Graph g = small_overlay(128, 6, 7);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  const UpdateId u = db.put(0, "k", "v");
  Count last = db.replicas(u);
  for (int i = 0; i < 40; ++i) {
    db.step();
    const Count now = db.replicas(u);
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(ReplicatedDb, CombiningReducesChannelMessages) {
  // With many concurrent updates, combined channel messages must be far
  // fewer than entry transmissions (that is what combining buys).
  const Graph g = small_overlay(256, 8, 8);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  for (int i = 0; i < 16; ++i)
    db.put(static_cast<NodeId>(i * 7), numbered("k", i), "v");
  EXPECT_TRUE(db.run_to_convergence(500));
  EXPECT_GT(db.entry_transmissions(), db.channel_messages());
}

TEST(ReplicatedDb, EntryTransmissionsScaleGentlyPerUpdate) {
  // Each update follows Algorithm 1, so it costs O(n log log n) entry
  // transmissions: a per-update, per-node cost of a small multiple of
  // log log n (about 4 + 6*alpha*loglog n ≈ 30 at alpha = 1.5), far from
  // the Θ(n log n) a push-till-done scheme would pay.
  const NodeId n = 512;
  const Graph g = small_overlay(n, 8, 9);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  constexpr int kUpdates = 8;
  for (int i = 0; i < kUpdates; ++i)
    db.put(static_cast<NodeId>(i * 11), numbered("key", i), "v");
  ASSERT_TRUE(db.run_to_convergence(500));
  const double per_update_per_node =
      static_cast<double>(db.entry_transmissions()) / kUpdates / n;
  const double lglg = std::log2(std::log2(static_cast<double>(n)));
  EXPECT_LT(per_update_per_node, 12.0 * lglg);
  EXPECT_GT(per_update_per_node, 1.0);
}

TEST(ReplicatedDb, StaggeredInjectionsConverge) {
  const Graph g = small_overlay(256, 8, 10);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  for (int i = 0; i < 10; ++i) {
    db.put(static_cast<NodeId>(i * 20), numbered("s", i), "v");
    db.step();
    db.step();
  }
  EXPECT_TRUE(db.run_to_convergence(500));
}

TEST(ReplicatedDb, ValidatesArguments) {
  const Graph g = small_overlay(64, 6, 11);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  EXPECT_THROW((void)db.put(64, "k", "v"), std::logic_error);
  EXPECT_THROW((void)db.replicas(0), std::logic_error);
  EXPECT_THROW((void)db.get(100, "k"), std::logic_error);
}

TEST(ReplicatedDb, NoUpdatesMeansTrivialConvergence) {
  const Graph g = small_overlay(64, 6, 12);
  ReplicatedDb db(g, ReplicatedDbConfig{});
  EXPECT_TRUE(db.converged());
  EXPECT_TRUE(db.run_to_convergence(10));
  EXPECT_EQ(db.entry_transmissions(), 0U);
}

}  // namespace
}  // namespace rrb
