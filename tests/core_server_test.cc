// QueryServer (core/server.h): bounded admission, deterministic
// degradation ladder, priority ordering, cancellation, shutdown drain, and
// sampled oracle self-verification.
#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "core/server.h"
#include "core/snapshot_query.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace hasj {
namespace {

using core::DegradeLevel;
using core::QueryKind;
using core::QueryPriority;
using core::QueryRequest;
using core::QueryResponse;
using core::QueryServer;
using core::ServerConfig;

constexpr double kExtent = 200.0;

std::unique_ptr<data::VersionedDataset> MakeStore(int count,
                                                  uint64_t seed) {
  data::GeneratorProfile profile;
  profile.name = "server";
  profile.count = count;
  profile.mean_vertices = 12;
  profile.max_vertices = 40;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = seed;
  auto store = std::make_unique<data::VersionedDataset>(
      "server", static_cast<size_t>(count) + 64);
  EXPECT_TRUE(store->SeedFrom(data::GenerateDataset(profile)).ok());
  return store;
}

geom::Polygon Probe(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

TEST(QueryServerTest, StartValidatesConfig) {
  const auto store = MakeStore(10, 1);
  {
    ServerConfig config;
    config.num_workers = -1;
    QueryServer server(store.get(), config);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    ServerConfig config;
    config.queue_capacity = 0;
    QueryServer server(store.get(), config);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    ServerConfig config;
    config.l1_watermark = 0.9;
    config.l2_watermark = 0.5;
    QueryServer server(store.get(), config);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    ServerConfig config;
    QueryServer server(store.get(), config);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.Start().code(), StatusCode::kUnavailable);
    server.Shutdown();
  }
}

TEST(QueryServerTest, ExecuteWithoutStartIsUnavailable) {
  const auto store = MakeStore(10, 2);
  QueryServer server(store.get(), {});
  QueryRequest request;
  request.query = Probe(100, 100, 20);
  EXPECT_EQ(server.Execute(request).status.code(), StatusCode::kUnavailable);
}

TEST(QueryServerTest, DegradeLadderIsDeterministicInDepth) {
  ServerConfig config;
  config.queue_capacity = 100;
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(0, config), DegradeLevel::kNone);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(49, config), DegradeLevel::kNone);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(50, config),
            DegradeLevel::kNoBatch);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(74, config),
            DegradeLevel::kNoBatch);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(75, config),
            DegradeLevel::kLowRes);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(89, config),
            DegradeLevel::kLowRes);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(90, config),
            DegradeLevel::kIntervalsOnly);
  EXPECT_EQ(QueryServer::DegradeLevelForDepth(100, config),
            DegradeLevel::kIntervalsOnly);
}

// Every query kind, verified against the serial oracle on every query
// (verify_every = 1): the server's own divergence check is the assertion.
TEST(QueryServerTest, ServesAllKindsExactly) {
  const auto store = MakeStore(80, 3);
  obs::Registry metrics;
  ServerConfig config;
  config.num_workers = 2;
  config.verify_every = 1;
  config.metrics = &metrics;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  for (const QueryKind kind :
       {QueryKind::kSelection, QueryKind::kJoin,
        QueryKind::kDistanceSelection, QueryKind::kDistanceJoin}) {
    QueryRequest request;
    request.kind = kind;
    request.query = Probe(90, 110, 30);
    request.distance = 6.0;
    const QueryResponse response = server.Execute(request);
    EXPECT_TRUE(response.status.ok())
        << "kind " << static_cast<int>(kind) << ": "
        << response.status.message();
    EXPECT_EQ(response.degrade, DegradeLevel::kNone);
    EXPECT_EQ(response.epoch, store->epoch());
  }
  server.Shutdown();
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at(obs::kServerVerified), 4);
  EXPECT_EQ(snap.counters.count(obs::kServerVerifyMismatch), 0u);
  EXPECT_EQ(snap.counters.at(obs::kServerAdmitted), 4);
  EXPECT_EQ(snap.counters.at(obs::kServerCompleted), 4);
}

// Admission-only mode (0 workers) makes queue-policy outcomes exact:
// with capacity 2 and three concurrent submitters, exactly two queue and
// one sheds with kResourceExhausted; Shutdown fails the queued two with
// kUnavailable.
TEST(QueryServerTest, ShedsBeyondCapacityAndDrainsOnShutdown) {
  const auto store = MakeStore(20, 4);
  obs::Registry metrics;
  ServerConfig config;
  config.num_workers = 0;
  config.queue_capacity = 2;
  config.metrics = &metrics;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> shed{0};
  std::atomic<int> unavailable{0};
  std::atomic<int> other{0};
  std::vector<std::thread> submitters;
  submitters.reserve(3);
  for (int i = 0; i < 3; ++i) {
    submitters.emplace_back([&] {
      QueryRequest request;
      request.query = Probe(100, 100, 10);
      const QueryResponse response = server.Execute(request);
      if (response.status.code() == StatusCode::kResourceExhausted) {
        shed.fetch_add(1, std::memory_order_acq_rel);
      } else if (response.status.code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1, std::memory_order_acq_rel);
      } else {
        other.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  // All three submitters have either queued or shed once the accounting
  // adds up; the queue itself never drains (no workers).
  while (server.queue_depth() +
             static_cast<size_t>(shed.load(std::memory_order_acquire)) <
         3) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.queue_depth(), 2u);
  server.Shutdown();
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(shed.load(std::memory_order_acquire), 1);
  EXPECT_EQ(unavailable.load(std::memory_order_acquire), 2);
  EXPECT_EQ(other.load(std::memory_order_acquire), 0);
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at(obs::kServerShed), 1);
  EXPECT_EQ(snap.counters.at(obs::kServerAdmitted), 2);
  EXPECT_EQ(snap.gauges.at(obs::kServerQueueDepthMax), 2.0);
}

// The ladder level is assigned at admission from queue depth: with no
// workers draining, the third admitted query of a capacity-4 server lands
// at depth 3 >= 0.5*4, so it is recorded degraded-L1.
TEST(QueryServerTest, DegradeCountersFollowAdmissionDepth) {
  const auto store = MakeStore(20, 5);
  obs::Registry metrics;
  ServerConfig config;
  config.num_workers = 0;
  config.queue_capacity = 4;
  config.metrics = &metrics;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::thread> submitters;
  submitters.reserve(4);
  for (int i = 0; i < 4; ++i) {
    submitters.emplace_back([&] {
      QueryRequest request;
      request.query = Probe(100, 100, 10);
      (void)server.Execute(request);
    });
    // Sequence admissions so depths are exactly 1, 2, 3, 4.
    while (server.queue_depth() < static_cast<size_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  server.Shutdown();
  for (std::thread& t : submitters) t.join();

  // Depths 1 (kNone), 2 (L1: 2 >= 0.5*4), 3 (L2: 3 >= 0.75*4),
  // 4 (L3: 4 >= 0.9*4).
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at(obs::kServerDegradedL1), 1);
  EXPECT_EQ(snap.counters.at(obs::kServerDegradedL2), 1);
  EXPECT_EQ(snap.counters.at(obs::kServerDegradedL3), 1);
}

TEST(QueryServerTest, CancelledWhileQueuedFailsWithoutRunning) {
  const auto store = MakeStore(40, 6);
  ServerConfig config;
  config.num_workers = 1;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  CancelToken cancel;
  cancel.Cancel();
  QueryRequest request;
  request.query = Probe(100, 100, 50);
  request.cancel = &cancel;
  const QueryResponse response = server.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.result.ids.empty());
  server.Shutdown();
}

// MakeStore(count, seed) plus `cluster` polygons stacked in the 20 x 20
// corner at (170, 170), away from the 100-centred probes. The store's
// intersection self-join refines every overlapping pair of the cluster
// (~cluster^2 / 2 pairs, no filter decides one) and so runs for seconds
// unless cancelled.
std::unique_ptr<data::VersionedDataset> MakeStoreWithCluster(
    int count, uint64_t seed, int cluster) {
  data::GeneratorProfile profile;
  profile.name = "server";
  profile.count = count;
  profile.mean_vertices = 12;
  profile.max_vertices = 40;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = seed;
  auto store = std::make_unique<data::VersionedDataset>(
      "server", static_cast<size_t>(count + cluster) + 64);
  EXPECT_TRUE(store->SeedFrom(data::GenerateDataset(profile)).ok());
  Rng rng(seed);
  for (int i = 0; i < cluster; ++i) {
    const geom::Point center{rng.Uniform(175, 185), rng.Uniform(175, 185)};
    EXPECT_TRUE(store
                    ->Insert(data::GenerateBlobPolygon(
                        center, rng.Uniform(3, 5), 40, 0.5, rng.Next()))
                    .ok());
  }
  return store;
}

TEST(QueryServerTest, InteractiveDequeuesBeforeBatch) {
  const auto store = MakeStoreWithCluster(250, 7, /*cluster=*/700);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  // The interleaving the test needs: the blocker still executing once both
  // followers sit in the queue together. The blocker is the store's
  // intersection self-join, which no filter decides and which refines the
  // cluster's overlapping pairs for seconds; we cancel it only after both
  // followers are queued, so kDeadlineExceeded witnesses a valid trial (it
  // was cancelled mid-run, i.e. the dequeue decision happened with both
  // queued); a blocker that somehow finished first voids the trial and we
  // retry.
  // Dequeue order is then read from the worker-measured wait_ms, not from
  // client-thread completion order, which the scheduler may reorder.
  for (int attempt = 0;; ++attempt) {
    CancelToken blocker_cancel;
    StatusCode blocker_code = StatusCode::kOk;
    double batch_wait_ms = -1.0;
    double interactive_wait_ms = -1.0;

    auto submit = [&](QueryPriority priority, double* wait_out) {
      QueryRequest request;
      request.kind = QueryKind::kDistanceSelection;
      request.priority = priority;
      request.query = Probe(100, 100, 20);
      request.distance = 15.0;
      const QueryResponse response = server.Execute(request);
      EXPECT_TRUE(response.status.ok());
      *wait_out = response.wait_ms;
    };
    // Set once the blocker returns: the waits below give up then, since a
    // finished blocker leaves nothing in flight and nothing queued.
    std::atomic<bool> blocker_done{false};
    auto block = [&] {
      QueryRequest request;
      request.kind = QueryKind::kJoin;
      request.priority = QueryPriority::kInteractive;
      request.cancel = &blocker_cancel;
      blocker_code = server.Execute(request).status.code();
      blocker_done = true;
    };
    const auto wait_until = [&](auto ready) {
      while (!ready() && !blocker_done) std::this_thread::yield();
    };

    std::thread blocker(block);
    wait_until([&] { return server.inflight() > 0; });
    std::thread batch(submit, QueryPriority::kBatch, &batch_wait_ms);
    wait_until([&] { return server.queue_depth() >= 1; });
    std::thread interactive(submit, QueryPriority::kInteractive,
                            &interactive_wait_ms);
    wait_until([&] { return server.queue_depth() >= 2; });
    blocker_cancel.Cancel();

    blocker.join();
    batch.join();
    interactive.join();

    if (blocker_code != StatusCode::kDeadlineExceeded && attempt < 4) {
      continue;  // Blocker outran the setup; nothing was decided. Retry.
    }
    ASSERT_EQ(blocker_code, StatusCode::kDeadlineExceeded)
        << "blocker repeatedly finished before both followers were queued";
    // Batch was enqueued first; being served second, its queue wait covers
    // the interactive query's wait AND execution, so strictly greater.
    EXPECT_GT(batch_wait_ms, interactive_wait_ms)
        << "interactive query was not served before the earlier-queued "
           "batch query";
    EXPECT_GE(interactive_wait_ms, 0.0);
    break;
  }
  server.Shutdown();
}

TEST(QueryServerTest, PerQueryDeadlineTruncates) {
  const auto store = MakeStore(150, 8);
  ServerConfig config;
  config.num_workers = 1;
  QueryServer server(store.get(), config);
  ASSERT_TRUE(server.Start().ok());

  QueryRequest request;
  request.query = Probe(100, 100, 90);
  request.deadline_ms = 1e-9;
  const QueryResponse response = server.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
}

// Shutdown is idempotent, and a destroyed server implies it.
TEST(QueryServerTest, ShutdownIsIdempotent) {
  const auto store = MakeStore(10, 9);
  QueryServer server(store.get(), {});
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  server.Shutdown();
  QueryRequest request;
  request.query = Probe(100, 100, 10);
  EXPECT_EQ(server.Execute(request).status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace hasj
