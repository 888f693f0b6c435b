// Latency recording split by core type — every figure reports "Big P99",
// "Little P99" and "Overall P99" separately.
#pragma once

#include <cstdint>
#include <utility>

#include "platform/topology.h"
#include "stats/histogram.h"

namespace asl {

class LatencySplit {
 public:
  LatencySplit() = default;
  // The split of two separately folded halves: overall is their merge, so
  // big().count() + little().count() == overall().count() by construction.
  LatencySplit(Histogram big, Histogram little)
      : overall_(big), big_(std::move(big)), little_(std::move(little)) {
    overall_.merge(little_);
  }

  void record(CoreType type, std::uint64_t latency_ns) {
    overall_.record(latency_ns);
    (type == CoreType::kBig ? big_ : little_).record(latency_ns);
  }

  void merge(const LatencySplit& other) {
    overall_.merge(other.overall_);
    big_.merge(other.big_);
    little_.merge(other.little_);
  }

  const Histogram& overall() const { return overall_; }
  const Histogram& big() const { return big_; }
  const Histogram& little() const { return little_; }

  std::uint64_t p99_overall() const { return overall_.p99(); }
  std::uint64_t p99_big() const { return big_.p99(); }
  std::uint64_t p99_little() const { return little_.p99(); }

  void reset() {
    overall_.reset();
    big_.reset();
    little_.reset();
  }

 private:
  Histogram overall_;
  Histogram big_;
  Histogram little_;
};

}  // namespace asl
