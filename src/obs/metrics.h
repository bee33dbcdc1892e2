#ifndef HASJ_OBS_METRICS_H_
#define HASJ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hasj::obs {

// Metrics registry (DESIGN.md §10).
//
// A Registry owns named Counter / Gauge / Histogram instruments. Lookup
// (Get*) takes a mutex and is meant to happen once per call site — hot
// paths resolve the returned reference at construction time and then
// record through it lock-free. Counters and histograms are sharded: each
// recording thread lands on one of kMetricShards cache-line-padded slots
// (relaxed atomics, no contention below kMetricShards concurrent writers),
// and Snapshot() merges the shards. Totals are therefore exact and
// scheduling-independent at every thread count; only the merge pays a
// full-fence read.
//
// The registry absorbs the per-query StageCosts / StageCounts / HwCounters
// aggregation (core/query_obs.h ingests those structs under canonical
// names, obs/names.h) and adds what plain struct totals cannot express:
// distribution histograms (per-pair n+m, pixels colored, per-worker queue
// wait) with power-of-two buckets.

// Number of metric shards; threads beyond this share slots (still safe,
// just contended).
inline constexpr int kMetricShards = 16;

// Power-of-two histogram buckets: bucket 0 holds values <= 0, bucket b >= 1
// holds [2^(b-1), 2^b - 1], and the last bucket absorbs the overflow tail.
inline constexpr int kHistogramBuckets = 64;

// Stable per-thread shard index in [0, kMetricShards).
int ThreadShard();

// Monotonic integer counter. Add() is lock-free (relaxed fetch_add on the
// calling thread's shard); Sum() merges shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    shards_[static_cast<size_t>(ThreadShard())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Sum() const;

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

// Double-valued gauge: Set() overwrites, Add() accumulates (CAS loop; gauges
// record per-run aggregates, not per-pair events, so contention is nil).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Merged view of one histogram: totals plus the power-of-two bucket counts.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // meaningful only when count > 0
  int64_t max = 0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  // Exact bucket-resolved quantile: the value reported for the
  // ceil(q * count)-th smallest sample is its bucket's inclusive upper
  // bound (2^b - 1), clamped to the recorded [min, max]. Deterministic,
  // hand-computable from the bucket layout, and merge-invariant: because
  // shard/snapshot merges sum buckets exactly, quantiles are identical at
  // every thread count. 0 when the histogram is empty; q is clamped to
  // [0, 1].
  int64_t Quantile(double q) const;
  int64_t P50() const { return Quantile(0.50); }
  int64_t P90() const { return Quantile(0.90); }
  int64_t P99() const { return Quantile(0.99); }

  HistogramSnapshot& operator+=(const HistogramSnapshot& o);
  bool operator==(const HistogramSnapshot& o) const = default;
};

// Sharded power-of-two-bucket histogram of int64 samples.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);

  // Bucket index of a value (see kHistogramBuckets for the layout).
  static int BucketOf(int64_t value);
  // Smallest value a bucket holds (bucket 0 has no lower bound; returns the
  // most negative int64 there).
  static int64_t BucketLowerBound(int bucket);
  // Largest value a bucket holds: 0 for bucket 0 (which ends at <= 0),
  // 2^b - 1 for 1 <= b < 63, INT64_MAX for the overflow tail bucket.
  static int64_t BucketUpperBound(int bucket);

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
  };
  std::array<Shard, kMetricShards> shards_;
};

// Point-in-time merge of a whole registry. std::map keeps the iteration
// order deterministic for reports and JSON output.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  MetricsSnapshot& operator+=(const MetricsSnapshot& o);

  // Lookup with default; absent metrics read as zero so report code can
  // stay branch-light.
  int64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create by name. The returned reference stays valid for the
  // registry's lifetime (instruments are never removed). Each call takes
  // mu_ itself — resolve references once per call site, then record through
  // them lock-free (the instruments are sharded atomics, not guarded
  // state; mu_ protects only the name → instrument maps).
  Counter& GetCounter(std::string_view name) HASJ_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) HASJ_EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view name) HASJ_EXCLUDES(mu_);

  // Merges every instrument's shards into a point-in-time view. Takes mu_
  // for the map walk; the per-shard reads are the atomics' own full-fence
  // loads, so the merge must never be called with mu_ already held.
  MetricsSnapshot Snapshot() const HASJ_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      HASJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      HASJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      HASJ_GUARDED_BY(mu_);
};

}  // namespace hasj::obs

#endif  // HASJ_OBS_METRICS_H_
