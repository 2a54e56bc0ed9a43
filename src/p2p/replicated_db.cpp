#include "rrb/p2p/replicated_db.hpp"

#include <algorithm>
#include <array>

#include "rrb/common/check.hpp"

namespace rrb {

ReplicatedDb::ReplicatedDb(const Graph& graph, ReplicatedDbConfig config)
    : graph_(&graph),
      config_(config),
      rng_(config.seed),
      stores_(graph.num_nodes()) {
  RRB_REQUIRE(graph.num_nodes() >= 2, "replicated db needs >= 2 nodes");
  RRB_REQUIRE(config_.num_choices >= 1, "num_choices >= 1");
  RRB_REQUIRE(config_.num_choices <= 64, "choices capped at 64");
}

UpdateId ReplicatedDb::put(NodeId origin, std::string key, std::string value) {
  RRB_REQUIRE(origin < graph_->num_nodes(), "origin out of range");
  Update u;
  u.origin = origin;
  u.injected_at = round_;
  u.key = std::move(key);
  u.value = std::move(value);
  FourChoiceConfig fc;
  fc.alpha = config_.alpha;
  fc.n_estimate = graph_->num_nodes();
  u.schedule = make_schedule_small_d(fc);
  u.informed_at.assign(graph_->num_nodes(), kNever);
  u.informed_at[origin] = round_;  // local age 0 at the origin
  u.replica_count = 1;

  const auto id = static_cast<UpdateId>(updates_.size());
  updates_.push_back(std::move(u));
  // Apply the write locally.
  auto& entry = stores_[origin][updates_.back().key];
  if (entry.version_round < round_ ||
      (entry.version_round == round_ && entry.version_id <= id)) {
    entry.version_round = round_;
    entry.version_id = id;
    entry.value = updates_.back().value;
  }
  return id;
}

Action ReplicatedDb::update_action(const Update& u, NodeId v, Round t) const {
  const Round informed = u.informed_at[v];
  if (informed == kNever) return Action::kNone;
  const Round age = t - u.injected_at;          // update age this round
  const Round informed_age = informed - u.injected_at;
  if (informed >= t) return Action::kNone;      // learned this very round
  const PhaseSchedule& s = u.schedule;
  if (age <= s.phase1_end)
    return informed_age == age - 1 ? Action::kPush : Action::kNone;
  if (age <= s.phase2_end) return Action::kPush;
  if (age <= s.phase3_end) return Action::kPull;
  if (age <= s.phase4_end)
    return informed_age > s.phase2_end ? Action::kPush : Action::kNone;
  return Action::kNone;
}

bool ReplicatedDb::in_flight(const Update& u, Round t) const {
  return t - u.injected_at <= u.schedule.phase4_end;
}

void ReplicatedDb::deliver(Update& u, UpdateId id, NodeId to, Round t) {
  ++entry_tx_;
  if (u.informed_at[to] != kNever) return;  // duplicate copy
  u.informed_at[to] = t;
  ++u.replica_count;
  auto& entry = stores_[to][u.key];
  if (entry.version_round < u.injected_at ||
      (entry.version_round == u.injected_at && entry.version_id <= id)) {
    entry.version_round = u.injected_at;
    entry.version_id = id;
    entry.value = u.value;
  }
}

void ReplicatedDb::step() {
  const Round t = ++round_;
  const NodeId n = graph_->num_nodes();

  // In-flight update ids (all others are silent this round).
  std::vector<UpdateId> flying;
  for (UpdateId id = 0; id < updates_.size(); ++id)
    if (in_flight(updates_[id], t)) flying.push_back(id);
  if (flying.empty()) return;

  std::array<std::uint32_t, 64> choice_buf{};
  for (NodeId v = 0; v < n; ++v) {
    const NodeId d = graph_->degree(v);
    if (d == 0) continue;
    const auto k = static_cast<std::size_t>(
        std::min<NodeId>(static_cast<NodeId>(config_.num_choices), d));
    rng_.sample_distinct_small(d, k,
                               std::span<std::uint32_t>(choice_buf.data(), k));
    for (std::size_t i = 0; i < k; ++i) {
      const NodeId w = graph_->neighbor(v, choice_buf[i]);
      ++channels_;
      if (w == v) continue;  // self-loop stub: nothing to exchange
      // Combine pushes of v and pulls of w over this channel.
      bool pushed_any = false;
      bool pulled_any = false;
      for (const UpdateId id : flying) {
        Update& u = updates_[id];
        const Action av = update_action(u, v, t);
        if (does_push(av)) {
          deliver(u, id, w, t);
          pushed_any = true;
        }
        const Action aw = update_action(u, w, t);
        if (does_pull(aw)) {
          deliver(u, id, v, t);
          pulled_any = true;
        }
      }
      if (pushed_any) ++channel_msgs_;
      if (pulled_any) ++channel_msgs_;
    }
  }
}

bool ReplicatedDb::delivered_everywhere(UpdateId u) const {
  RRB_REQUIRE(u < updates_.size(), "bad update id");
  return updates_[u].replica_count == graph_->num_nodes();
}

bool ReplicatedDb::converged() const {
  return std::all_of(updates_.begin(), updates_.end(), [&](const Update& u) {
    return u.replica_count == graph_->num_nodes();
  });
}

bool ReplicatedDb::run_to_convergence(Round max_rounds) {
  const Round limit = round_ + max_rounds;
  while (round_ < limit && !converged()) step();
  // Let remaining schedules play out so transmission accounting matches
  // what the fixed-horizon algorithm actually costs.
  while (round_ < limit) {
    bool any_flying = false;
    for (const Update& u : updates_)
      if (in_flight(u, round_ + 1)) {
        any_flying = true;
        break;
      }
    if (!any_flying) break;
    step();
  }
  return converged();
}

const std::string* ReplicatedDb::get(NodeId v, const std::string& key) const {
  RRB_REQUIRE(v < stores_.size(), "node out of range");
  const auto it = stores_[v].find(key);
  return it == stores_[v].end() ? nullptr : &it->second.value;
}

Count ReplicatedDb::replicas(UpdateId u) const {
  RRB_REQUIRE(u < updates_.size(), "bad update id");
  return updates_[u].replica_count;
}

}  // namespace rrb
