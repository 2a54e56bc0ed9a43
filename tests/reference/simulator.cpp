#include "rrb/reference/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

namespace rrb::reference {

namespace {

/// Algorithm 1's phase ends (§3), logs to base 2: phase 1 lasts
/// ⌈α log n̂⌉ rounds, phase 2 ends at ⌈α (log n̂ + log log n̂)⌉, phase 3 is
/// one round, and phase 4 ends at 2⌈α log n̂⌉ + ⌈α log log n̂⌉.
struct Schedule {
  std::int64_t phase1 = 0;
  std::int64_t phase2 = 0;
  std::int64_t phase3 = 0;
  std::int64_t horizon = 0;
};

Schedule algorithm1_schedule(const Model& model, NodeId n) {
  const double log_n = std::log2(static_cast<double>(
      model.n_estimate == 0 ? n : model.n_estimate));
  const double loglog_n = std::log2(log_n);
  const auto up = [](double x) { return static_cast<std::int64_t>(std::ceil(x)); };
  Schedule s;
  s.phase1 = up(model.alpha * log_n);
  s.phase2 = up(model.alpha * (log_n + loglog_n));
  s.phase3 = s.phase2 + 1;
  s.horizon = 2 * up(model.alpha * log_n) + up(model.alpha * loglog_n);
  return s;
}

struct Moves {
  bool push = false;
  bool pull = false;
};

/// Algorithm 1 in round p for a node that first knew the message in round
/// q (the source: 0). Phase 1: push once, right after receipt. Phase 2:
/// push. Phase 3: pull. Phase 4: nodes that learnt it in phase 3 or 4
/// push.
Moves algorithm1(const Schedule& s, std::int64_t p, std::int64_t q) {
  if (p <= s.phase1) return {q == p - 1, false};
  if (p <= s.phase2) return {true, false};
  if (p <= s.phase3) return {false, true};
  if (p <= s.horizon) return {q > s.phase2, false};
  return {};
}

/// The round of the parallel model that sequential step t belongs to:
/// four steps make one round (footnote 2).
std::int64_t round_of_step(std::int64_t t) { return (t + 3) / 4; }

/// Safety cap for the run-to-completion schemes, as the engine's.
constexpr std::int64_t kMaxSteps = std::int64_t{1} << 20;

}  // namespace

Outcome simulate(const Graph& g, NodeId source, const Model& model, Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> neighbours(n);
  for (NodeId v = 0; v < n; ++v)
    neighbours[v].assign(g.neighbors(v).begin(), g.neighbors(v).end());

  const Scheme scheme = model.scheme;
  const bool to_completion = scheme == Scheme::kPush ||
                             scheme == Scheme::kPull ||
                             scheme == Scheme::kPushPull;
  const Schedule schedule = algorithm1_schedule(model, n);
  const std::int64_t last_step = scheme == Scheme::kSequentialised
                                     ? 4 * schedule.horizon
                                     : schedule.horizon;

  // Step in which each node first knew the message; -1: not yet.
  std::vector<std::int64_t> known_since(n, -1);
  known_since[source] = 0;
  std::uint64_t knowing = 1;
  // Sequentialised model: each node's callees of the last three steps.
  std::vector<std::vector<NodeId>> recent(n);

  const auto moves = [&](NodeId v, std::int64_t t) -> Moves {
    switch (scheme) {
      case Scheme::kPush:
        return {true, false};
      case Scheme::kPull:
        return {false, true};
      case Scheme::kPushPull:
        return {true, true};
      case Scheme::kFourChoice:
        return algorithm1(schedule, t, known_since[v]);
      case Scheme::kSequentialised:
        return algorithm1(schedule, round_of_step(t),
                          round_of_step(known_since[v]));
    }
    return {};
  };

  Outcome out;
  std::vector<std::pair<NodeId, NodeId>> calls;  // (caller, callee)
  std::vector<NodeId> slots;
  std::vector<NodeId> learnt;
  for (std::int64_t t = 1;; ++t) {
    // Every node places its calls; a failed call carries nothing.
    calls.clear();
    for (NodeId v = 0; v < n; ++v) {
      const std::vector<NodeId>& list = neighbours[v];
      if (list.empty()) continue;
      slots.clear();
      if (scheme == Scheme::kSequentialised) {
        // One neighbour, uniform among those not called in the last three
        // steps (all of them when none is left).
        for (NodeId i = 0; i < list.size(); ++i)
          if (std::find(recent[v].begin(), recent[v].end(), list[i]) ==
              recent[v].end())
            slots.push_back(i);
        if (slots.empty()) {
          slots.resize(list.size());
          std::iota(slots.begin(), slots.end(), NodeId{0});
        }
        const NodeId pick = slots[rng.uniform_u64(slots.size())];
        slots.assign(1, pick);
        recent[v].insert(recent[v].begin(), list[pick]);
        if (recent[v].size() > 3) recent[v].pop_back();
      } else {
        // Distinct adjacency slots, uniform: a partial Fisher–Yates draw.
        const std::size_t k = std::min<std::size_t>(
            scheme == Scheme::kFourChoice ? 4 : 1, list.size());
        slots.resize(list.size());
        std::iota(slots.begin(), slots.end(), NodeId{0});
        for (std::size_t i = 0; i < k; ++i)
          std::swap(slots[i], slots[i + rng.uniform_u64(list.size() - i)]);
        slots.resize(k);
      }
      for (const NodeId slot : slots)
        if (!(model.failure_prob > 0.0 &&
              rng.uniform_double() < model.failure_prob))
          calls.emplace_back(v, list[slot]);
    }

    // The calls carry the message by what their two ends knew before this
    // step: learning it now makes a node a sender only from the next step.
    learnt.clear();
    for (const auto& [caller, callee] : calls) {
      if (known_since[caller] >= 0 && moves(caller, t).push) {
        ++out.transmissions;
        if (known_since[callee] < 0) learnt.push_back(callee);
      }
      if (known_since[callee] >= 0 && moves(callee, t).pull) {
        ++out.transmissions;
        if (known_since[caller] < 0) learnt.push_back(caller);
      }
    }
    for (const NodeId w : learnt)
      if (known_since[w] < 0) {
        known_since[w] = t;
        ++knowing;
      }

    if (knowing == n && out.completion == kNever)
      out.completion = static_cast<Round>(t);
    if (to_completion ? knowing == n : t >= last_step) break;
    if (t >= kMaxSteps) break;  // a graph the message cannot cover
  }
  out.informed = knowing;
  return out;
}

}  // namespace rrb::reference
