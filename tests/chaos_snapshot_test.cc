// Chaos suite for the snapshot-isolated store (ISSUE 10): writer threads
// apply generated insert/delete streams while reader threads pin snapshots
// and run every query form at rotating degradation levels, with and
// without hardware fault injection. The invariant is absolute: every
// query's verdicts equal the serial oracle's on the snapshot that query
// pinned — updates racing past the pin, faults rerouting pairs to
// software, and the ladder may change cost, never answers. Runs clean
// under TSan and HASJ_PARANOID (scripts/check_tsan.sh, paranoid preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "core/snapshot_query.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/slot_interval_grid.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj {
namespace {

using core::DegradeLevel;
using core::SnapshotQueryOptions;
using core::SnapshotQueryResult;

constexpr double kExtent = 160.0;
constexpr int kBaseObjects = 60;
constexpr int64_t kOpsPerWriter = 200;
constexpr int kQueriesPerReader = 96;

data::GeneratorProfile ObjectProfile(uint64_t seed) {
  data::GeneratorProfile profile;
  profile.name = "chaos-snapshot";
  profile.count = kBaseObjects;
  profile.mean_vertices = 10;
  profile.max_vertices = 32;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = seed;
  return profile;
}

geom::Polygon Probe(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::pair<int64_t, int64_t>> Sorted(
    std::vector<std::pair<int64_t, int64_t>> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct ChaosParam {
  int threads = 1;       // writer threads == reader threads
  double fault_rate = 0.0;
};

std::string ParamName(const ::testing::TestParamInfo<ChaosParam>& info) {
  std::ostringstream out;
  out << "Threads" << info.param.threads << "Fault"
      << static_cast<int>(info.param.fault_rate * 100);
  return out.str();
}

class ChaosSnapshotTest : public ::testing::TestWithParam<ChaosParam> {};

// Writers mutate, readers query pinned snapshots, and every verdict is
// replayed through the serial oracle on the same snapshot.
TEST_P(ChaosSnapshotTest, QueriesMatchOracleUnderConcurrentUpdates) {
  const ChaosParam param = GetParam();
  const size_t capacity =
      static_cast<size_t>(kBaseObjects) +
      static_cast<size_t>(param.threads) * static_cast<size_t>(kOpsPerWriter);
  data::VersionedDataset store("chaos", capacity);
  ASSERT_TRUE(store.SeedFrom(data::GenerateDataset(ObjectProfile(3))).ok());

  auto grid = filter::SlotIntervalGrid::Create(
      geom::Box(0, 0, kExtent, kExtent), store.capacity(), {.grid_bits = 5});
  ASSERT_TRUE(grid.ok());

  // One shared deterministic injector; Check() is thread-safe. Verdicts
  // must be identical whether or not a pair's hardware op faulted.
  FaultInjector faults(17);
  if (param.fault_rate > 0.0) {
    faults.SetPlan(FaultSite::kRenderPass,
                   FaultPlan::Probability(param.fault_rate));
    faults.SetPlan(FaultSite::kScanReadback,
                   FaultPlan::Probability(param.fault_rate));
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> writer_errors{0};
  std::atomic<int64_t> queries_run{0};
  std::atomic<int64_t> mismatches{0};
  Mutex detail_mu;
  std::string first_mismatch;

  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(param.threads));
  for (int w = 0; w < param.threads; ++w) {
    writers.emplace_back([&, w] {
      data::UpdateStreamProfile stream;
      stream.objects = ObjectProfile(100 + static_cast<uint64_t>(w));
      stream.operations = kOpsPerWriter;
      stream.insert_fraction = 0.5;
      stream.seed = 40 + static_cast<uint64_t>(w);
      std::unordered_map<int64_t, int64_t> key_to_id;
      for (const data::UpdateOp& op : data::GenerateUpdateStream(stream)) {
        if (stop.load(std::memory_order_acquire)) break;
        if (!data::ApplyUpdateOp(op, &store, &key_to_id).ok()) {
          writer_errors.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(param.threads));
  for (int r = 0; r < param.threads; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        SnapshotQueryOptions options;
        options.degrade = static_cast<DegradeLevel>((i + r) % 4);
        options.intervals = &grid.value();
        options.hw.faults = param.fault_rate > 0.0 ? &faults : nullptr;
        // The paper's plan, so the intersection forms take the hardware
        // step and its faults, as the distance forms do.
        options.hw.routing = core::HwRouting::kStatic;
        const geom::Polygon probe =
            Probe(20.0 + 10.0 * ((i + 3 * r) % 13),
                  20.0 + 10.0 * ((2 * i + r) % 13), 14.0);
        const double d = 3.0 + (i % 3);
        // Pin once; the query and its oracle replay see the same version.
        const data::VersionedDataset::Snapshot snap = store.snapshot();
        bool match = true;
        std::string kind;
        switch (i % 4) {
          case 0: {
            kind = "selection";
            const SnapshotQueryResult got =
                core::SnapshotSelection(snap, probe, options);
            match = got.status.ok() &&
                    Sorted(got.ids) == core::OracleSelection(snap, probe);
            break;
          }
          case 1: {
            kind = "distance-selection";
            const SnapshotQueryResult got =
                core::SnapshotDistanceSelection(snap, probe, d, options);
            match = got.status.ok() &&
                    Sorted(got.ids) ==
                        core::OracleDistanceSelection(snap, probe, d);
            break;
          }
          case 2: {
            kind = "join";
            const SnapshotQueryResult got =
                core::SnapshotJoin(snap, options);
            match = got.status.ok() &&
                    Sorted(got.pairs) == core::OracleJoin(snap);
            break;
          }
          default: {
            kind = "distance-join";
            const SnapshotQueryResult got =
                core::SnapshotDistanceJoin(snap, d, options);
            match = got.status.ok() &&
                    Sorted(got.pairs) ==
                        core::OracleDistanceJoin(snap, d);
            break;
          }
        }
        queries_run.fetch_add(1, std::memory_order_acq_rel);
        if (!match) {
          mismatches.fetch_add(1, std::memory_order_acq_rel);
          MutexLock lock(&detail_mu);
          if (first_mismatch.empty()) {
            std::ostringstream out;
            out << kind << " diverged at epoch " << snap.epoch()
                << " (reader " << r << ", query " << i << ", degrade "
                << ((i + r) % 4) << ")";
            first_mismatch = out.str();
          }
        }
      }
    });
  }

  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(writer_errors.load(std::memory_order_acquire), 0);
  EXPECT_EQ(queries_run.load(std::memory_order_acquire),
            static_cast<int64_t>(param.threads) * kQueriesPerReader);
  {
    MutexLock lock(&detail_mu);
    EXPECT_EQ(mismatches.load(std::memory_order_acquire), 0)
        << first_mismatch;
  }
}

// 96 queries/reader x (1+2+4) readers x 2 fault rates = 1344 verified
// queries across the matrix (acceptance floor: 1000).
INSTANTIATE_TEST_SUITE_P(Matrix, ChaosSnapshotTest,
                         ::testing::Values(ChaosParam{1, 0.0},
                                           ChaosParam{2, 0.0},
                                           ChaosParam{4, 0.0},
                                           ChaosParam{1, 0.1},
                                           ChaosParam{2, 0.1},
                                           ChaosParam{4, 0.1}),
                         ParamName);

}  // namespace
}  // namespace hasj
