/// X3 (extension) — receipt-latency distribution: *when* do individual
/// nodes receive the message under each protocol? The paper's phase
/// analysis predicts distinctive shapes: push's informed times concentrate
/// in the doubling phase with an exponential tail; the four-choice
/// algorithm front-loads phase 1 and sweeps the stragglers in one pull
/// round (a spike at the phase 3 boundary).

#include "bench_util.hpp"

#include "rrb/analysis/histogram.hpp"
#include "rrb/protocols/median_counter.hpp"

using namespace rrb;
using namespace rrb::bench;

namespace {

template <ProtocolImpl ProtocolT>
void latency_histogram(const std::string& name, ProtocolT& proto,
                       const Graph& g, const ChannelConfig& chan,
                       std::uint64_t seed) {
  GraphTopology topo(g);
  Rng rng(seed);
  PhoneCallEngine<GraphTopology> engine(topo, chan, rng);
  const RunResult r = engine.run(proto, NodeId{0}, RunLimits{});

  std::vector<double> receipt_rounds;
  Round max_round = 1;
  for (const Round at : engine.informed_at())
    if (at != kNever) {
      receipt_rounds.push_back(static_cast<double>(at));
      max_round = std::max(max_round, at);
    }
  Histogram hist(0.0, static_cast<double>(max_round + 1),
                 static_cast<std::size_t>(max_round + 1));
  hist.add_all(receipt_rounds);

  std::cout << "--- " << name << " (informed " << receipt_rounds.size()
            << "/" << g.num_nodes() << ", done@" << r.completion_round
            << ") ---\n";
  std::cout << "p50 receipt round: "
            << quantile(receipt_rounds, 0.5) << ", p99: "
            << quantile(receipt_rounds, 0.99) << ", p100: "
            << quantile(receipt_rounds, 1.0) << "\n";
  std::cout << hist.to_string(48) << "\n";
}

}  // namespace

int main() {
  banner("X3: receipt-latency distributions — the phases made visible",
         "push: doubling then exponential tail; four-choice: phase-1 bulk "
         "+ pull-round spike");

  const NodeId n = 1 << 14;
  Rng grng(0xc3);
  const Graph g = random_regular_simple(n, 8, grng);

  PushProtocol push;
  latency_histogram("push (1 choice)", push, g, ChannelConfig{}, 0xc31);

  FourChoiceConfig fc;
  fc.n_estimate = n;
  FourChoiceBroadcast alg(fc);
  ChannelConfig four;
  four.num_choices = 4;
  latency_histogram("four-choice Algorithm 1", alg, g, four, 0xc32);

  MedianCounterConfig mc;
  mc.n_estimate = n;
  MedianCounterProtocol karp(mc);
  latency_histogram("median-counter push&pull", karp, g, ChannelConfig{},
                    0xc33);

  std::cout << "expected shape: push's histogram is a smooth bell with an "
               "exponential right\ntail; the four-choice histogram is "
               "front-loaded (phase-1 doubling saturates\nearly) and then "
               "nearly empty until the phase-3 pull round catches the\n"
               "handful of stragglers at once.\n";
  return 0;
}
