// Integration tests for the simulated RADOS cluster: object store, OSD
// protocol paths (replication primary-copy / client-fanout, EC primary /
// client-encode), degraded reads, and placement behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(ObjectStore, WriteReadRoundTrip) {
  ObjectStore store;
  ObjectKey key{1, 42, -1};
  auto data = pattern(1000, 1);
  store.write(key, 0, data);
  EXPECT_EQ(store.read(key, 0, 1000), data);
  EXPECT_EQ(store.object_size(key), 1000u);
}

TEST(ObjectStore, SparseWriteZeroFills) {
  ObjectStore store;
  ObjectKey key{1, 1, -1};
  std::vector<std::uint8_t> d{0xAA, 0xBB};
  store.write(key, 100, d);
  auto out = store.read(key, 98, 6);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 0xAA, 0xBB, 0, 0}));
}

TEST(ObjectStore, ReadPastEndZeroFills) {
  ObjectStore store;
  ObjectKey key{1, 2, -1};
  store.write(key, 0, std::vector<std::uint8_t>{1, 2, 3});
  auto out = store.read(key, 2, 4);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{3, 0, 0, 0}));
}

TEST(ObjectStore, ShardsAreDistinctObjects) {
  ObjectStore store;
  store.write(ObjectKey{1, 5, 0}, 0, std::vector<std::uint8_t>{1});
  store.write(ObjectKey{1, 5, 1}, 0, std::vector<std::uint8_t>{2});
  EXPECT_EQ(store.object_count(), 2u);
  EXPECT_EQ(store.read(ObjectKey{1, 5, 1}, 0, 1)[0], 2);
}

TEST(ObjectStore, RemoveAndAccounting) {
  ObjectStore store;
  ObjectKey key{1, 9, -1};
  store.write(key, 0, pattern(512, 3));
  EXPECT_TRUE(store.exists(key));
  EXPECT_EQ(store.bytes_stored(), 512u);
  store.remove(key);
  EXPECT_FALSE(store.exists(key));
  EXPECT_EQ(store.bytes_stored(), 0u);
}

// --- Extent-backed layout: holes, fresh blocks, extent boundaries ---------

constexpr std::uint64_t kBlk = kChecksumBlockBytes;

TEST(ObjectStore, FarWriteStoresOnlyThatBlock) {
  ObjectStore store;
  const ObjectKey key{1, 3, -1};
  const std::uint64_t off = 3 * ObjectStore::kExtentBytes + 5 * kBlk;
  const auto data = pattern(kBlk, 7);
  store.write(key, off, data);
  EXPECT_EQ(store.stored_blocks(key), 1u);
  EXPECT_EQ(store.object_size(key), off + kBlk);
  EXPECT_EQ(store.read(key, off, kBlk), data);
}

TEST(ObjectStore, HolesReadAsZerosAndSizesStayLogical) {
  ObjectStore store;
  const ObjectKey key{1, 4, -1};
  const auto head = pattern(100, 1);
  const auto tail = pattern(100, 2);
  const std::uint64_t tail_off = 2 * ObjectStore::kExtentBytes + 5;
  store.write(key, 0, head);
  store.write(key, tail_off, tail);
  EXPECT_EQ(store.stored_blocks(key), 2u);
  EXPECT_EQ(store.object_size(key), tail_off + 100);
  EXPECT_EQ(store.bytes_stored(), tail_off + 100);

  std::vector<std::uint8_t> expected(tail_off + 100, 0);
  std::copy(head.begin(), head.end(), expected.begin());
  std::copy(tail.begin(), tail.end(), expected.begin() + tail_off);
  EXPECT_EQ(store.read(key, 0, tail_off + 100), expected);
  // A read wholly inside a hole, and one past the end.
  EXPECT_EQ(store.read(key, ObjectStore::kExtentBytes, 3 * kBlk),
            std::vector<std::uint8_t>(3 * kBlk, 0));
  EXPECT_EQ(store.read(key, tail_off + 100, 10),
            std::vector<std::uint8_t>(10, 0));
}

TEST(ObjectStore, PartialWriteToFreshBlockZeroFillsRestOfBlock) {
  ObjectStore store;
  const ObjectKey key{1, 5, -1};
  // A removed object's extent is reused as it is, so the next fresh extent
  // holds 0xee bytes: only the store's zeroing can hide them.
  const ObjectKey dirty{1, 50, -1};
  store.write(dirty, 0,
              std::vector<std::uint8_t>(ObjectStore::kExtentBytes, 0xee));
  store.remove(dirty);
  store.write(key, 0, std::vector<std::uint8_t>(kBlk, 0xee));
  const auto data = pattern(10, 3);
  store.write(key, kBlk + 100, data);
  // Then grow past the partial block: its bytes after the first write's
  // end must still read as zeros, not as whatever the extent held.
  store.write(key, 3 * kBlk, std::vector<std::uint8_t>{0x11});
  std::vector<std::uint8_t> expected(kBlk, 0);
  std::copy(data.begin(), data.end(), expected.begin() + 100);
  EXPECT_EQ(store.read(key, kBlk, kBlk), expected);
  EXPECT_EQ(store.read(key, 3 * kBlk - 1, 2),
            (std::vector<std::uint8_t>{0, 0x11}));
  EXPECT_EQ(store.stored_blocks(key), 3u);
}

TEST(ObjectStore, WriteSpanningExtentBoundaryRoundTrips) {
  ObjectStore store;
  const ObjectKey key{1, 6, -1};
  const std::uint64_t off = ObjectStore::kExtentBytes - 5000;
  const auto data = pattern(3 * kBlk + 123, 4);
  store.write(key, off, data);
  EXPECT_EQ(store.read(key, off, data.size()), data);
  EXPECT_EQ(store.object_size(key), off + data.size());
  // Blocks 254 and 255 of extent 0, then blocks 0 and 1 of extent 1.
  EXPECT_EQ(store.stored_blocks(key), 4u);
  EXPECT_EQ(store.read(key, off - 3, 3), std::vector<std::uint8_t>(3, 0));
}

TEST(ObjectStore, VerifyPassesOnHolesAndFailsOnFlipIntoHole) {
  ObjectStore store;
  store.set_integrity(true);
  const ObjectKey key{1, 7, -1};
  store.write(key, 0, pattern(kBlk, 5));
  store.write(key, 16 * kBlk, pattern(kBlk, 6));
  const std::uint64_t size = store.object_size(key);
  EXPECT_EQ(store.stored_blocks(key), 2u);
  EXPECT_TRUE(store.verify(key, 0, size));
  EXPECT_EQ(store.checksums_for(key, 0, size).size(), 17u);

  const std::uint64_t hole_byte = 9 * kBlk + 17;
  store.flip_bits(key, hole_byte, 0x04);
  EXPECT_EQ(store.stored_blocks(key), 3u);  // the flip materialized block 9
  EXPECT_EQ(store.read(key, hole_byte, 1)[0], 0x04);
  EXPECT_FALSE(store.verify(key, 9 * kBlk, kBlk));
  EXPECT_FALSE(store.verify(key, 0, size));
  EXPECT_TRUE(store.verify(key, 0, 9 * kBlk));
  EXPECT_TRUE(store.verify(key, 10 * kBlk, size - 10 * kBlk));
}

TEST(ObjectStore, EarlierBytesSurviveManyLaterWrites) {
  // Random writes of varied sizes over a 4 MiB object, checked against a
  // flat shadow copy: no write may disturb bytes it does not cover.
  ObjectStore store;
  const ObjectKey key{1, 8, -1};
  const std::uint64_t span = 4 * ObjectStore::kExtentBytes;
  std::vector<std::uint8_t> shadow;
  Rng rng(11);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t len = 1 + rng.below(3 * kBlk);
    const std::uint64_t off = rng.below(span - len);
    const auto data = pattern(len, 100 + i);
    store.write(key, off, data);
    if (shadow.size() < off + len) shadow.resize(off + len, 0);
    std::copy(data.begin(), data.end(), shadow.begin() + off);
  }
  EXPECT_EQ(store.object_size(key), shadow.size());
  EXPECT_EQ(store.read(key, 0, shadow.size()), shadow);
}

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(sim_);
    client_ = std::make_unique<RadosClient>(*cluster_);
    repl_pool_ = cluster_->create_replicated_pool("rbd", 2);
    ec_pool_ = cluster_->create_ec_pool("ec", ec::Profile{4, 2});
  }

  // Synchronous helpers (drive the simulation until completion).
  Status write_sync(int pool, std::uint64_t oid, std::uint64_t off,
                    std::vector<std::uint8_t> data, WriteStrategy ws) {
    Status out = Status::Error(Errc::timed_out, "no completion");
    client_->write(pool, oid, off, std::move(data), ws,
                   [&](Status s) { out = s; });
    sim_.run();
    return out;
  }

  Result<std::vector<std::uint8_t>> read_sync(int pool, std::uint64_t oid,
                                              std::uint64_t off,
                                              std::uint64_t len,
                                              ReadStrategy rs) {
    Result<std::vector<std::uint8_t>> out =
        Status::Error(Errc::timed_out, "no completion");
    client_->read(pool, oid, off, len, rs,
                  [&](Result<std::vector<std::uint8_t>> r) { out = std::move(r); });
    sim_.run();
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  int repl_pool_ = -1;
  int ec_pool_ = -1;
};

TEST_F(ClusterFixture, TopologyMatchesPaperTestbed) {
  EXPECT_EQ(cluster_->osd_count(), 32u);
  EXPECT_EQ(cluster_->network().node_count(), 3u);  // client + 2 servers
}

TEST_F(ClusterFixture, ReplicatedWriteReadPrimaryCopy) {
  auto data = pattern(4096, 7);
  ASSERT_TRUE(write_sync(repl_pool_, 1, 0, data, WriteStrategy::primary_copy).ok());
  auto r = read_sync(repl_pool_, 1, 0, 4096, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, ReplicatedWriteStoresAllReplicas) {
  auto data = pattern(4096, 8);
  ASSERT_TRUE(write_sync(repl_pool_, 2, 0, data, WriteStrategy::primary_copy).ok());
  auto acting = cluster_->acting_set(repl_pool_, 2);
  ASSERT_EQ(acting.size(), 2u);
  for (int osd : acting) {
    ObjectKey key{static_cast<std::uint32_t>(repl_pool_), 2, -1};
    EXPECT_EQ(cluster_->osd(osd).store().read(key, 0, 4096), data)
        << "osd " << osd;
  }
}

TEST_F(ClusterFixture, ClientFanoutWriteStoresAllReplicas) {
  auto data = pattern(8192, 9);
  ASSERT_TRUE(write_sync(repl_pool_, 3, 0, data, WriteStrategy::client_fanout).ok());
  for (int osd : cluster_->acting_set(repl_pool_, 3)) {
    ObjectKey key{static_cast<std::uint32_t>(repl_pool_), 3, -1};
    EXPECT_EQ(cluster_->osd(osd).store().read(key, 0, 8192), data);
  }
}

TEST_F(ClusterFixture, ClientFanoutIsFasterThanPrimaryCopy) {
  // The structural claim behind DeLiBA's replication offload: removing the
  // primary->replica hop shortens the critical path.
  auto data = pattern(4096, 10);
  const Nanos t0 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 4, 0, data, WriteStrategy::primary_copy).ok());
  const Nanos primary_copy = sim_.now() - t0;
  const Nanos t1 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 5, 0, data, WriteStrategy::client_fanout).ok());
  const Nanos fanout = sim_.now() - t1;
  EXPECT_LT(fanout, primary_copy);
}

TEST_F(ClusterFixture, EcClientEncodeWriteAndDirectRead) {
  auto data = pattern(4096, 11);
  ASSERT_TRUE(write_sync(ec_pool_, 1, 0, data, WriteStrategy::client_fanout).ok());
  auto r = read_sync(ec_pool_, 1, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
  EXPECT_EQ(client_->ec_bytes_encoded(), 4096u);
}

TEST_F(ClusterFixture, EcPrimaryWriteAndPrimaryRead) {
  auto data = pattern(16384, 12);
  ASSERT_TRUE(write_sync(ec_pool_, 2, 0, data, WriteStrategy::primary_copy).ok());
  auto r = read_sync(ec_pool_, 2, 0, 16384, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, EcPathsInteroperate) {
  // Data written via the primary path must be readable via direct shards
  // and vice versa (same on-disk shard layout).
  auto data = pattern(4096, 13);
  ASSERT_TRUE(write_sync(ec_pool_, 3, 0, data, WriteStrategy::primary_copy).ok());
  auto r1 = read_sync(ec_pool_, 3, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, data);

  auto data2 = pattern(4096, 14);
  ASSERT_TRUE(write_sync(ec_pool_, 4, 0, data2, WriteStrategy::client_fanout).ok());
  auto r2 = read_sync(ec_pool_, 4, 0, 4096, ReadStrategy::primary);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, data2);
}

TEST_F(ClusterFixture, EcShardsLandOnSixDistinctOsds) {
  auto data = pattern(4096, 15);
  ASSERT_TRUE(write_sync(ec_pool_, 5, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 5);
  ASSERT_EQ(acting.size(), 6u);
  for (unsigned s = 0; s < 6; ++s) {
    ObjectKey key{static_cast<std::uint32_t>(ec_pool_), 5,
                  static_cast<std::int32_t>(s)};
    EXPECT_TRUE(cluster_->osd(acting[s]).store().exists(key))
        << "shard " << s << " missing on osd " << acting[s];
  }
}

TEST_F(ClusterFixture, EcDegradedReadDecodesThroughParity) {
  auto data = pattern(4096, 16);
  ASSERT_TRUE(write_sync(ec_pool_, 6, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 6);
  // Take down two data-shard OSDs (m == 2 tolerance).
  cluster_->set_osd_down(acting[0], true);
  cluster_->set_osd_down(acting[2], true);
  auto r = read_sync(ec_pool_, 6, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, EcReadFailsBeyondTolerance) {
  auto data = pattern(4096, 17);
  ASSERT_TRUE(write_sync(ec_pool_, 7, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 7);
  for (int i = 0; i < 3; ++i) cluster_->set_osd_down(acting[i], true);
  auto r = read_sync(ec_pool_, 7, 0, 4096, ReadStrategy::direct_shards);
  EXPECT_FALSE(r.ok());
}

TEST_F(ClusterFixture, EcRejectsUnalignedOffset) {
  EXPECT_FALSE(write_sync(ec_pool_, 8, 3, pattern(64, 18),
                          WriteStrategy::client_fanout)
                   .ok());
}

TEST_F(ClusterFixture, WritesAtOffsetsCompose) {
  auto a = pattern(4096, 19);
  auto b = pattern(4096, 20);
  ASSERT_TRUE(write_sync(repl_pool_, 9, 0, a, WriteStrategy::primary_copy).ok());
  ASSERT_TRUE(write_sync(repl_pool_, 9, 4096, b, WriteStrategy::primary_copy).ok());
  auto r = read_sync(repl_pool_, 9, 0, 8192, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  std::vector<std::uint8_t> both = a;
  both.insert(both.end(), b.begin(), b.end());
  EXPECT_EQ(*r, both);
}

TEST_F(ClusterFixture, ManyObjectsSpreadAcrossOsds) {
  std::set<int> primaries;
  for (std::uint64_t oid = 0; oid < 200; ++oid)
    primaries.insert(cluster_->acting_set(repl_pool_, oid)[0]);
  EXPECT_GT(primaries.size(), 20u) << "primaries should spread over OSDs";
}

TEST_F(ClusterFixture, PlacementWorkAccumulates) {
  (void)write_sync(repl_pool_, 10, 0, pattern(512, 21),
                   WriteStrategy::primary_copy);
  EXPECT_GT(client_->placement_work().bucket_descents, 0u);
}

TEST_F(ClusterFixture, OutOsdRemapsPlacement) {
  auto before = cluster_->acting_set(repl_pool_, 11);
  cluster_->set_osd_out(before[0], true);
  auto after = cluster_->acting_set(repl_pool_, 11);
  EXPECT_EQ(std::count(after.begin(), after.end(), before[0]), 0);
}

TEST_F(ClusterFixture, LatencyIsMicrosecondScale) {
  // Sanity-check the timing model: a 4 kB replicated write over the fabric
  // should land in the tens-to-hundreds of microseconds, not ms or ns.
  const Nanos t0 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 12, 0, pattern(4096, 22),
                         WriteStrategy::primary_copy)
                  .ok());
  const Nanos lat = sim_.now() - t0;
  EXPECT_GT(lat, us(20));
  EXPECT_LT(lat, us(500));
}

}  // namespace
}  // namespace dk::rados
