#pragma once

#include <vector>

#include "rrb/common/types.hpp"

/// \file aggregate.hpp
/// Summary statistics over repeated trials.

namespace rrb {

/// Five-number-ish summary of a sample.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  std::size_t count = 0;
};

/// Compute a Summary; empty input yields a zero summary with count 0.
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// Online accumulator for building summaries incrementally.
///
/// Not thread-safe: concurrent add() calls race on the backing vector, and
/// even a locked vector would record samples in scheduling order, making
/// the Summary depend on thread timing. Parallel reductions instead park
/// one result per trial and add them in trial order once the pool has
/// drained.
class SummaryAccumulator {
 public:
  void add(double value) { values_.push_back(value); }

  [[nodiscard]] Summary finish() const { return summarize(values_); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace rrb
