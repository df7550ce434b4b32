// min_tree.hpp -- a value array with a point-update, global-min index.
//
// Holds the t table behind min t, and the per-objective row sums behind
// omega, of the incremental solver and LocalResolver: an edit rewrites a few
// values in O(log n) each and the minimum stays one read.  The values are
// the tree's leaves, and each level above keeps the minimum of kFan
// consecutive entries of the level below, so the index costs n / (kFan - 1)
// extra doubles.  min() is exact -- a minimum does not round -- so for
// finite, sign-consistent values (row sums of non-negative terms, t >= +0)
// it is bitwise the linear fold MaxMinInstance::utility computes, whatever
// the tree shape.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace locmm {

class MinTree {
 public:
  MinTree() : levels_(1) {}

  explicit MinTree(std::vector<double> values) {
    levels_.push_back(std::move(values));
    while (levels_.back().size() > 1) {
      const std::vector<double>& below = levels_.back();
      std::vector<double> above((below.size() + kFan - 1) / kFan);
      for (std::size_t j = 0; j < above.size(); ++j) above[j] = fold(below, j);
      levels_.push_back(std::move(above));
    }
  }

  const std::vector<double>& values() const { return levels_.front(); }

  // +infinity when there are no values.
  double min() const {
    return levels_.back().empty() ? std::numeric_limits<double>::infinity()
                                  : levels_.back().front();
  }

  void set(std::size_t i, double value) {
    levels_.front()[i] = value;
    for (std::size_t l = 1; l < levels_.size(); ++l) {
      i /= kFan;
      levels_[l][i] = fold(levels_[l - 1], i);
    }
  }

 private:
  static constexpr std::size_t kFan = 8;

  // The minimum of entries [j * kFan, (j + 1) * kFan) of `below`.
  static double fold(const std::vector<double>& below, std::size_t j) {
    const auto first = below.begin() + static_cast<std::ptrdiff_t>(j * kFan);
    const auto last =
        below.begin() +
        static_cast<std::ptrdiff_t>(std::min(below.size(), (j + 1) * kFan));
    return *std::min_element(first, last);
  }

  std::vector<std::vector<double>> levels_;  // levels_[0]: the values
};

}  // namespace locmm
