#ifndef HASJ_CORE_QUERY_STATS_H_
#define HASJ_CORE_QUERY_STATS_H_

#include <cstdint>

namespace hasj::core {

// Per-stage wall-clock costs of one query, matching the paper's three-stage
// measurement breakdown (Figure 8 / §4.1.1): MBR filtering, intermediate
// filtering, geometry comparison. Milliseconds.
struct StageCosts {
  double mbr_ms = 0.0;
  double filter_ms = 0.0;
  double compare_ms = 0.0;

  double total_ms() const { return mbr_ms + filter_ms + compare_ms; }

  StageCosts& operator+=(const StageCosts& o) {
    mbr_ms += o.mbr_ms;
    filter_ms += o.filter_ms;
    compare_ms += o.compare_ms;
    return *this;
  }
};

// Cardinalities at each pipeline stage.
struct StageCounts {
  int64_t candidates = 0;    // survivors of MBR filtering
  int64_t filter_hits = 0;   // decided by the intermediate filter
  int64_t compared = 0;      // pairs that reached geometry comparison
  int64_t results = 0;       // final result size
  // A deadline or cancellation truncated the run: the result is an exact
  // prefix of the full result in candidate order (DESIGN.md §11), and the
  // pipeline's status is kDeadlineExceeded.
  bool truncated = false;

  StageCounts& operator+=(const StageCounts& o) {
    candidates += o.candidates;
    filter_hits += o.filter_hits;
    compared += o.compared;
    results += o.results;
    truncated = truncated || o.truncated;
    return *this;
  }
};

}  // namespace hasj::core

#endif  // HASJ_CORE_QUERY_STATS_H_
