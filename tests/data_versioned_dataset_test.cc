#include "data/versioned_dataset.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/catalogs.h"
#include "data/generator.h"

namespace hasj::data {
namespace {

using geom::Box;
using Pairs = std::vector<std::pair<int64_t, int64_t>>;

GeneratorProfile SmallProfile(uint64_t seed) {
  GeneratorProfile profile;
  profile.name = "versioned-test";
  profile.count = 40;
  profile.mean_vertices = 12.0;
  profile.max_vertices = 40;
  profile.sigma = 0.4;
  profile.extent = Box(0, 0, 100, 100);
  profile.coverage = 0.4;
  profile.seed = seed;
  return profile;
}

TEST(VersionedDatasetTest, SeedFromMatchesSourceDataset) {
  const Dataset base = GenerateDataset(SmallProfile(3));
  VersionedDataset store("vd", 128);
  ASSERT_TRUE(store.SeedFrom(base).ok());
  EXPECT_EQ(store.live(), base.size());

  VersionedDataset::Snapshot snap = store.snapshot();
  EXPECT_EQ(snap.live(), base.size());
  const std::vector<int64_t> ids = snap.LiveIds();
  ASSERT_EQ(ids.size(), base.size());
  for (int64_t id : ids) {
    EXPECT_EQ(snap.polygon(id).size(),
              base.polygon(static_cast<size_t>(id)).size());
    EXPECT_TRUE(snap.mbr(id) == base.mbr(static_cast<size_t>(id)));
  }
  // Window query agrees with a brute-force scan of the source.
  const Box window(20, 20, 70, 70);
  std::set<int64_t> expected;
  for (size_t i = 0; i < base.size(); ++i) {
    if (base.mbr(i).Intersects(window)) {
      expected.insert(static_cast<int64_t>(i));
    }
  }
  const auto hits = snap.QueryIntersects(window);
  EXPECT_EQ(std::set<int64_t>(hits.begin(), hits.end()), expected);
}

// The offline pipelines probe Dataset::BuildRTree; the server probes the
// index a SeedFrom publishes. Both must hand the query stages the same ids
// in the same order, so pair lists, counters and digests agree between
// the two paths, not only as sets.
void ExpectOneCandidateOrder(const Dataset& data, uint64_t seed) {
  SCOPED_TRACE(data.name());
  const index::RTree offline = data.BuildRTree();
  VersionedDataset store(data.name(), data.size());
  ASSERT_TRUE(store.SeedFrom(data).ok());
  const VersionedDataset::Snapshot served = store.snapshot();

  // 500 windows of 1% of the extent's area, as ablation_rtree's workload.
  const Box extent = data.Bounds();
  const double w = extent.Width() * 0.1, h = extent.Height() * 0.1;
  hasj::Rng rng(seed);
  size_t hits = 0;
  for (int q = 0; q < 500; ++q) {
    const double x = rng.Uniform(extent.min_x, extent.max_x - w);
    const double y = rng.Uniform(extent.min_y, extent.max_y - h);
    const Box window(x, y, x + w, y + h);
    const std::vector<int64_t> ids = offline.QueryIntersects(window);
    ASSERT_EQ(served.QueryIntersects(window), ids) << "window " << q;
    hits += ids.size();
    const double d = rng.Uniform(0, w);
    ASSERT_EQ(served.QueryWithinDistance(window, d),
              offline.QueryWithinDistance(window, d))
        << "window " << q << " d=" << d;
  }
  EXPECT_GT(hits, 0u);

  const Pairs self = index::JoinIntersects(offline, offline);
  EXPECT_EQ(index::JoinIntersects(served.index(), served.index()), self);
  EXPECT_GT(self.size(), data.size());  // every object meets itself
  const double d = w * 0.01;
  EXPECT_EQ(index::JoinWithinDistance(served.index(), served.index(), d),
            index::JoinWithinDistance(offline, offline, d));
}

TEST(VersionedDatasetTest, ServedAndOfflineIndexesGiveOneCandidateOrder) {
  const Dataset landc = GenerateDataset(LandcProfile(0.02));
  const Dataset lando = GenerateDataset(LandoProfile(0.02));
  ExpectOneCandidateOrder(landc, 1);
  ExpectOneCandidateOrder(lando, 2);
  ExpectOneCandidateOrder(GenerateDataset(WaterProfile(0.2)), 3);

  // The LANDC ⋈ LANDO MBR join, as land_join runs it offline.
  VersionedDataset served_c("landc", landc.size());
  VersionedDataset served_o("lando", lando.size());
  ASSERT_TRUE(served_c.SeedFrom(landc).ok());
  ASSERT_TRUE(served_o.SeedFrom(lando).ok());
  const Pairs offline = index::JoinIntersects(landc.BuildRTree(),
                                              lando.BuildRTree());
  EXPECT_GT(offline.size(), 0u);
  EXPECT_EQ(index::JoinIntersects(served_c.snapshot().index(),
                                  served_o.snapshot().index()),
            offline);
}

TEST(VersionedDatasetTest, SeedFromRequiresEmptyStore) {
  const Dataset base = GenerateDataset(SmallProfile(5));
  VersionedDataset store("vd", 128);
  ASSERT_TRUE(store.SeedFrom(base).ok());
  EXPECT_EQ(store.SeedFrom(base).code(), StatusCode::kInvalidArgument);
}

TEST(VersionedDatasetTest, InsertDeleteVisibilityAndIsolation) {
  VersionedDataset store("vd", 16);
  geom::Polygon tri({{0, 0}, {2, 0}, {1, 2}});
  Result<int64_t> id = store.Insert(tri);
  ASSERT_TRUE(id.ok());

  VersionedDataset::Snapshot before = store.snapshot();
  EXPECT_EQ(before.live(), 1u);

  geom::Polygon tri2({{10, 10}, {12, 10}, {11, 12}});
  Result<int64_t> id2 = store.Insert(tri2);
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(store.Delete(id.value()).ok());
  EXPECT_EQ(store.Delete(id.value()).code(), StatusCode::kNotFound);

  // The old snapshot still sees exactly the original object.
  EXPECT_EQ(before.live(), 1u);
  EXPECT_EQ(before.LiveIds(), std::vector<int64_t>{id.value()});

  VersionedDataset::Snapshot after = store.snapshot();
  EXPECT_EQ(after.live(), 1u);
  EXPECT_EQ(after.LiveIds(), std::vector<int64_t>{id2.value()});
  EXPECT_GT(after.epoch(), before.epoch());
}

TEST(VersionedDatasetTest, CapacityIsALifetimeBudget) {
  VersionedDataset store("vd", 2);
  geom::Polygon tri({{0, 0}, {2, 0}, {1, 2}});
  ASSERT_TRUE(store.Insert(tri).ok());
  Result<int64_t> second = store.Insert(tri);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(store.Delete(second.value()).ok());
  // The freed slot does not come back: ids are never reused.
  EXPECT_EQ(store.Insert(tri).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(store.Insert(geom::Polygon()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(UpdateStreamTest, DeterministicAndKeyConsistent) {
  UpdateStreamProfile profile;
  profile.objects = SmallProfile(7);
  profile.operations = 200;
  profile.insert_fraction = 0.55;
  profile.seed = 99;

  const std::vector<UpdateOp> a = GenerateUpdateStream(profile);
  const std::vector<UpdateOp> b = GenerateUpdateStream(profile);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(b.size(), a.size());

  std::set<int64_t> live;
  int64_t next_key = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
    if (a[i].kind == UpdateOp::Kind::kInsert) {
      EXPECT_EQ(a[i].polygon.size(), b[i].polygon.size());
      EXPECT_GE(a[i].polygon.size(), 3u);
      EXPECT_EQ(a[i].key, next_key++);  // dense stream-local keys
      live.insert(a[i].key);
    } else {
      // Deletes only ever reference a currently-live key of this stream.
      EXPECT_EQ(live.count(a[i].key), 1u);
      live.erase(a[i].key);
    }
  }
}

TEST(UpdateStreamTest, ApplyUpdateOpTracksLiveSet) {
  UpdateStreamProfile profile;
  profile.objects = SmallProfile(11);
  profile.operations = 150;
  profile.insert_fraction = 0.5;
  profile.seed = 12;
  const std::vector<UpdateOp> ops = GenerateUpdateStream(profile);

  VersionedDataset store("vd", 256);
  std::unordered_map<int64_t, int64_t> key_to_id;
  size_t expected_live = 0;
  for (const UpdateOp& op : ops) {
    ASSERT_TRUE(ApplyUpdateOp(op, &store, &key_to_id).ok());
    expected_live += op.kind == UpdateOp::Kind::kInsert ? 1 : -1;
  }
  EXPECT_EQ(store.live(), expected_live);
  EXPECT_EQ(key_to_id.size(), expected_live);
  EXPECT_EQ(store.snapshot().LiveIds().size(), expected_live);
}

TEST(UpdateStreamTest, CapacityExhaustionSurfacesAndDeletesStayOk) {
  UpdateStreamProfile profile;
  profile.objects = SmallProfile(13);
  profile.operations = 80;
  profile.insert_fraction = 0.9;
  profile.seed = 4;
  const std::vector<UpdateOp> ops = GenerateUpdateStream(profile);

  VersionedDataset store("vd", 10);
  std::unordered_map<int64_t, int64_t> key_to_id;
  int64_t exhausted = 0;
  for (const UpdateOp& op : ops) {
    const Status s = ApplyUpdateOp(op, &store, &key_to_id);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++exhausted;
    }
  }
  EXPECT_GT(exhausted, 0);
  EXPECT_LE(store.live(), 10u);
}

// Two writers applying disjoint streams while readers pin snapshots: ids
// handed out must be unique, snapshots internally consistent. (Verdict
// exactness under concurrency lives in the chaos suite.)
TEST(VersionedDatasetTest, ConcurrentWritersGetDisjointIds) {
  VersionedDataset store("vd", 1024);
  auto writer = [&store](uint64_t seed, std::vector<int64_t>* ids) {
    UpdateStreamProfile profile;
    profile.objects = SmallProfile(seed);
    profile.operations = 120;
    profile.insert_fraction = 0.7;
    profile.seed = seed;
    std::unordered_map<int64_t, int64_t> key_to_id;
    for (const UpdateOp& op : GenerateUpdateStream(profile)) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        Result<int64_t> id = store.Insert(op.polygon);
        ASSERT_TRUE(id.ok());
        key_to_id[op.key] = id.value();
        ids->push_back(id.value());
      } else {
        ASSERT_TRUE(ApplyUpdateOp(op, &store, &key_to_id).ok());
      }
    }
  };
  std::vector<int64_t> ids_a, ids_b;
  std::thread ta(writer, 21, &ids_a);
  std::thread tb(writer, 22, &ids_b);
  std::thread reader([&store] {
    for (int i = 0; i < 200; ++i) {
      VersionedDataset::Snapshot snap = store.snapshot();
      ASSERT_TRUE(snap.index().CheckInvariants().ok());
      ASSERT_EQ(snap.LiveIds().size(), snap.live());
    }
  });
  ta.join();
  tb.join();
  reader.join();

  std::set<int64_t> seen(ids_a.begin(), ids_a.end());
  for (int64_t id : ids_b) {
    EXPECT_EQ(seen.count(id), 0u) << "id handed to both writers: " << id;
  }
}

}  // namespace
}  // namespace hasj::data
