// Tests for the time-charged background subsystem: deterministic scrub
// timelines, token-bucket budget accounting, paced recovery with the
// recovery_max_bps throttle, the station two-class scheme (charged
// background busy time, starvation-guard progress), the validator's
// background_leak rule, and the armed Framework's background.* metrics.
#include "rados/background.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/pipeline_validator.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "ec/reed_solomon.hpp"
#include "rados/client.hpp"
#include "workload/fio.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// EC shard key of `oid` in `pool`.
ObjectKey shard_key(int pool, std::uint64_t oid, unsigned shard) {
  return ObjectKey{static_cast<std::uint32_t>(pool), oid,
                   static_cast<std::int32_t>(shard)};
}

/// Flip stored bytes [from, to) of `key` on `osd` without refreshing their
/// checksums (latent media corruption).
void flip(Cluster& cluster, int osd, const ObjectKey& key, std::size_t from,
          std::size_t to) {
  auto& store = cluster.osd(osd).store();
  ASSERT_GE(store.object_size(key), to);
  for (std::size_t i = from; i < to; ++i) store.flip_bits(key, i, 0xff);
}

/// Bare cluster with a replicated and an EC pool populated like the
/// recovery fixture, plus a background scheduler built per test.
class BackgroundFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(sim_);
    client_ = std::make_unique<RadosClient>(*cluster_);
    pool_ = cluster_->create_replicated_pool("rbd", 2);
    ec_pool_ = cluster_->create_ec_pool("ec", ec::Profile{4, 2});
    for (std::uint64_t oid = 0; oid < 30; ++oid) {
      client_->write(pool_, oid, 0, pattern(8192, oid),
                     WriteStrategy::primary_copy, [](Status) {});
    }
    for (std::uint64_t oid = 0; oid < 10; ++oid) {
      client_->write(ec_pool_, oid, 0, pattern(8192, 100 + oid),
                     WriteStrategy::client_fanout, [](Status) {});
    }
    sim_.run();
  }

  BackgroundScheduler& arm(BackgroundConfig config) {
    config.enabled = true;
    background_ =
        std::make_unique<BackgroundScheduler>(*cluster_, config);
    cluster_->set_background(background_.get());
    background_->start();
    return *background_;
  }

  /// Replace the cluster with an integrity-armed one whose EC 4+2 pool
  /// holds objects 0..7 of pattern(bytes, 100 + oid). Each shard key lives
  /// on exactly one OSD, so a scrub repair source is a decode of k verified
  /// sibling shards.
  void integrity_ec_cluster(std::size_t bytes) {
    ClusterConfig cc;
    cc.integrity = true;
    cluster_ = std::make_unique<Cluster>(sim_, cc);
    client_ = std::make_unique<RadosClient>(*cluster_);
    client_->set_integrity(true);
    ec_pool_ = cluster_->create_ec_pool("ec", ec::Profile{4, 2});
    for (std::uint64_t oid = 0; oid < 8; ++oid) {
      client_->write(ec_pool_, oid, 0, pattern(bytes, 100 + oid),
                     WriteStrategy::client_fanout, [](Status) {});
    }
    sim_.run();
  }

  BackgroundScheduler& arm_scrub(std::uint64_t chunk_bytes = 128 * KiB) {
    BackgroundConfig bc;
    bc.scrub_interval = ms(10);
    bc.horizon = ms(25);
    bc.scrub_chunk_bytes = chunk_bytes;
    return arm(bc);
  }

  std::vector<std::uint8_t> stored(int osd, const ObjectKey& key) const {
    const auto& store = cluster_->osd(osd).store();
    return store.read(key, 0, store.object_size(key));
  }

  bool verifies(int osd, const ObjectKey& key) const {
    const auto& store = cluster_->osd(osd).store();
    return store.verify(key, 0, store.object_size(key));
  }

  Result<std::vector<std::uint8_t>> read_ec(std::uint64_t oid,
                                            std::size_t bytes) {
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client_->read(ec_pool_, oid, 0, bytes, ReadStrategy::direct_shards,
                  [&](Result<std::vector<std::uint8_t>> x) {
                    r = std::move(x);
                  });
    sim_.run();
    return r;
  }

  Nanos total_bg_busy() const {
    Nanos sum = 0;
    for (std::size_t i = 0; i < cluster_->osd_count(); ++i)
      sum += cluster_->osd(static_cast<int>(i)).workers().bg_busy_time();
    return sum;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  std::unique_ptr<BackgroundScheduler> background_;
  int pool_ = -1;
  int ec_pool_ = -1;
};

// --- deep scrub -------------------------------------------------------------

/// Full scrub run in a fresh environment; returns the chunk timeline.
std::vector<ScrubChunkRecord> scrub_timeline_run(std::uint64_t seed) {
  sim::Simulator sim;
  ClusterConfig cc;
  cc.seed = seed;
  Cluster cluster(sim, cc);
  RadosClient client(cluster);
  const int pool = cluster.create_replicated_pool("rbd", 2);
  for (std::uint64_t oid = 0; oid < 20; ++oid) {
    client.write(pool, oid, 0, pattern(8192, oid),
                 WriteStrategy::primary_copy, [](Status) {});
  }
  sim.run();

  BackgroundConfig bc;
  bc.enabled = true;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(40);
  BackgroundScheduler background(cluster, bc);
  cluster.set_background(&background);
  background.start();
  sim.run();
  return background.scrub_timeline();
}

TEST(ScrubScheduler, SameSeedYieldsIdenticalTimeline) {
  const auto a = scrub_timeline_run(7);
  const auto b = scrub_timeline_run(7);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "scrub schedule must replay bit-exactly per seed";
}

TEST_F(BackgroundFixture, ScrubChargesStationTimeInBackgroundClass) {
  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(25);
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.scrub_passes(), 0u);
  EXPECT_GT(bg.scrub_bytes(), 0u);
  // The acceptance pin: scrub reads occupied OSD op-thread stations in the
  // background service class for real simulated time.
  EXPECT_GT(total_bg_busy(), 0);
  EXPECT_EQ(bg.scrub_errors(), 0u) << "healthy stores must verify clean";
}

TEST_F(BackgroundFixture, ScrubBudgetPacesChunksAndCountsWaits) {
  // 1 MB/s budget: an 8 kB chunk earns the next grant ~8.2 ms later, far
  // beyond the OSD service time, so pacing (not the station) dominates.
  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(15);
  bc.scrub_bps = 1.0e6;
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.throttle_waits(), 0u)
      << "an over-subscribed budget must delay chunks";
  // Per OSD, consecutive scheduled chunks respect the bucket spacing.
  const auto& timeline = bg.scrub_timeline();
  ASSERT_FALSE(timeline.empty());
  std::map<int, const ScrubChunkRecord*> last;
  for (const auto& rec : timeline) {
    auto it = last.find(rec.osd);
    if (it != last.end()) {
      const Nanos min_gap = transfer_time(it->second->bytes, bc.scrub_bps);
      EXPECT_GE(rec.at - it->second->at, min_gap)
          << "chunk on osd." << rec.osd << " outran its token bucket";
    }
    last[rec.osd] = &rec;
  }
}

TEST_F(BackgroundFixture, ScrubRepairsCorruptChunkFromVerifiedReplica) {
  // Integrity-armed cluster so scrub can convict a chunk by checksum.
  ClusterConfig cc;
  cc.integrity = true;
  cluster_ = std::make_unique<Cluster>(sim_, cc);
  client_ = std::make_unique<RadosClient>(*cluster_);
  client_->set_integrity(true);
  pool_ = cluster_->create_replicated_pool("rbd", 2);
  for (std::uint64_t oid = 0; oid < 8; ++oid) {
    client_->write(pool_, oid, 0, pattern(8192, oid),
                   WriteStrategy::primary_copy, [](Status) {});
  }
  sim_.run();

  // Flip stored bytes of one copy without refreshing its checksums.
  const auto acting = cluster_->acting_set(pool_, 3);
  ASSERT_GE(acting.size(), 2u);
  ObjectKey key{static_cast<std::uint32_t>(pool_), 3, -1};
  flip(*cluster_, acting[0], key, 100, 116);

  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(25);
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.scrub_errors(), 0u) << "scrub missed the corrupt chunk";
  EXPECT_GT(bg.scrub_repairs(), 0u);
  const auto& store = cluster_->osd(acting[0]).store();
  EXPECT_TRUE(store.verify(key, 0, store.object_size(key)))
      << "repair must leave the copy verifying clean";
}

TEST_F(BackgroundFixture, ScrubRepairsCorruptEcShardChunk) {
  integrity_ec_cluster(8192);
  const auto acting = cluster_->acting_set(ec_pool_, 3);
  ASSERT_EQ(acting.size(), 6u);
  const ObjectKey key = shard_key(ec_pool_, 3, 1);
  flip(*cluster_, acting[1], key, 100, 116);

  BackgroundScheduler& bg = arm_scrub();
  sim_.run();

  EXPECT_GT(bg.scrub_errors(), 0u) << "scrub missed the corrupt shard";
  EXPECT_GT(bg.scrub_repairs(), 0u) << "no EC shard repair source found";
  EXPECT_TRUE(verifies(acting[1], key))
      << "repair must leave the shard verifying clean";
  const auto r = read_ec(3, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, pattern(8192, 103));
}

TEST_F(BackgroundFixture, ScrubRewritesEachCorruptShardOnce) {
  // Two bad chunks of one shard: the first conviction queues a whole-shard
  // rewrite, which also covers the second.
  integrity_ec_cluster(64 * KiB);  // 16 KiB shards, scrubbed in 4 KiB chunks
  const auto acting = cluster_->acting_set(ec_pool_, 3);
  const ObjectKey key = shard_key(ec_pool_, 3, 1);
  const auto expected = stored(acting[1], key);
  flip(*cluster_, acting[1], key, 100, 116);
  flip(*cluster_, acting[1], key, 4 * KiB + 100, 4 * KiB + 116);

  BackgroundScheduler& bg = arm_scrub(4 * KiB);
  sim_.run();

  EXPECT_EQ(bg.scrub_errors(), 2u) << "both bad chunks must be convicted";
  EXPECT_EQ(bg.scrub_repairs(), 1u) << "one rewrite per shard";
  EXPECT_EQ(stored(acting[1], key), expected);
  EXPECT_TRUE(verifies(acting[1], key));
}

TEST_F(BackgroundFixture, EcShardRepairWaitsOutInFlightClientWrite) {
  // An overwrite of oid 3 is in flight: it has landed on shards 0 and 1,
  // and shard 1 then rots. A repair decoded now would mix shard 0 (new)
  // with shards 2..4 (old) and persist wrong bytes under fresh checksums;
  // the repair must wait until the write has landed everywhere.
  integrity_ec_cluster(8192);
  const auto acting = cluster_->acting_set(ec_pool_, 3);
  ASSERT_EQ(acting.size(), 6u);
  const auto data = pattern(8192, 999);
  ec::ReedSolomon rs(cluster_->pool(ec_pool_).ec_profile);
  auto shards = rs.split(data);
  auto coding = rs.encode(shards);
  ASSERT_TRUE(coding.ok());
  for (auto& c : *coding) shards.push_back(std::move(c));

  cluster_->note_client_write_begin(static_cast<std::uint32_t>(ec_pool_), 3);
  for (unsigned s = 0; s < 2; ++s)
    cluster_->osd(acting[s]).apply_durable(shard_key(ec_pool_, 3, s),
                                           0, shards[s], {});
  flip(*cluster_, acting[1], shard_key(ec_pool_, 3, 1), 100, 116);

  BackgroundScheduler& bg = arm_scrub();
  while (bg.scrub_errors() == 0 && sim_.step()) {
  }
  ASSERT_GT(bg.scrub_errors(), 0u) << "scrub missed the corrupt shard";
  sim_.run_until(sim_.now() + ms(1));
  EXPECT_EQ(bg.scrub_repairs(), 0u)
      << "the repair must not run under an in-flight client write";

  // The rest of the write lands and it completes.
  for (unsigned s = 2; s < 6; ++s)
    cluster_->osd(acting[s]).apply_durable(shard_key(ec_pool_, 3, s),
                                           0, shards[s], {});
  cluster_->note_client_write_end(static_cast<std::uint32_t>(ec_pool_), 3);
  sim_.run();

  EXPECT_GT(bg.scrub_repairs(), 0u);
  EXPECT_EQ(stored(acting[1], shard_key(ec_pool_, 3, 1)), shards[1]);
  const auto r = read_ec(3, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(BackgroundFixture, EcShardRepairIgnoresStaleCopiesOnOutOsd) {
  // After a mark-out the out OSD keeps its old, still-verifying copies of
  // the shards it held. Once the object is overwritten, a repair that took
  // such a copy as a sibling would decode a wrong shard. Find an object
  // and shard s whose stale copy sits on a lower OSD id than the shard's
  // new holder, so a lowest-id-first pick would choose it.
  integrity_ec_cluster(8192);
  std::vector<std::vector<int>> before;
  for (std::uint64_t oid = 0; oid < 8; ++oid)
    before.push_back(cluster_->acting_set(ec_pool_, oid));
  int out = -1;
  std::uint64_t oid = 0;
  unsigned s = 0;
  for (int o = 0; o < static_cast<int>(cluster_->osd_count()) && out < 0;
       ++o) {
    cluster_->set_osd_out(o, true);
    for (std::uint64_t x = 0; x < 8 && out < 0; ++x) {
      const auto after = cluster_->acting_set(ec_pool_, x);
      for (unsigned sh = 0; sh <= 4 && out < 0; ++sh) {
        if (before[x][sh] == o && after[sh] > o) {
          out = o;
          oid = x;
          s = sh;
        }
      }
    }
    cluster_->set_osd_out(o, false);
  }
  ASSERT_GE(out, 0) << "no placement puts a stale sibling first";

  // Recover onto the new placement, then overwrite the object.
  cluster_->set_osd_out(out, true);
  RecoveryManager rec(*cluster_);
  const RecoveryPlan plan = rec.plan(ec_pool_);
  RecoveryManager::PacedOptions unpaced;
  unpaced.max_bps = 0;
  rec.execute(plan, unpaced, [] {});
  sim_.run();
  const ObjectKey stale = shard_key(ec_pool_, oid, s);
  ASSERT_TRUE(cluster_->osd(out).store().exists(stale));
  const auto data = pattern(8192, 777);
  Status wres = Status::Error(Errc::timed_out);
  client_->write(ec_pool_, oid, 0, data, WriteStrategy::client_fanout,
                 [&](Status st) { wres = st; });
  sim_.run();
  ASSERT_TRUE(wres.ok());

  // Corrupt a shard whose first k siblings include shard s.
  const auto acting = cluster_->acting_set(ec_pool_, oid);
  const unsigned t = s == 0 ? 1 : 0;
  const ObjectKey key = shard_key(ec_pool_, oid, t);
  const auto expected = stored(acting[t], key);
  flip(*cluster_, acting[t], key, 100, 116);

  BackgroundScheduler& bg = arm_scrub();
  sim_.run();

  EXPECT_GT(bg.scrub_repairs(), 0u);
  EXPECT_EQ(stored(acting[t], key), expected)
      << "the repair decoded from a stale sibling";
  const auto r = read_ec(oid, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

// --- paced recovery ---------------------------------------------------------

struct RecoveryOutcome {
  Nanos ttfr = 0;
  std::uint64_t moves = 0;
  std::uint64_t bytes = 0;
  std::uint64_t waits = 0;
};

/// Crash-free mark-out of one OSD under a paced scheduler; returns the
/// recovery episode's outcome once the cluster drained.
RecoveryOutcome paced_recovery_run(double recovery_max_bps, Nanos pace_cap) {
  sim::Simulator sim;
  Cluster cluster(sim);
  RadosClient client(cluster);
  const int pool = cluster.create_replicated_pool("rbd", 2);
  const int ec_pool = cluster.create_ec_pool("ec", ec::Profile{4, 2});
  for (std::uint64_t oid = 0; oid < 30; ++oid) {
    client.write(pool, oid, 0, pattern(8192, oid),
                 WriteStrategy::primary_copy, [](Status) {});
  }
  for (std::uint64_t oid = 0; oid < 10; ++oid) {
    client.write(ec_pool, oid, 0, pattern(8192, 100 + oid),
                 WriteStrategy::client_fanout, [](Status) {});
  }
  sim.run();

  BackgroundConfig bc;
  bc.enabled = true;
  bc.scrub_interval = 0;  // recovery-only: isolate the throttle
  bc.recovery_max_bps = recovery_max_bps;
  bc.pace_cap = pace_cap;
  BackgroundScheduler background(cluster, bc);
  cluster.set_background(&background);
  background.start();

  cluster.set_osd_down(5, true);
  cluster.set_osd_out(5, true);  // CRUSH reweight -> paced backfill
  sim.run();

  RecoveryOutcome out;
  out.ttfr = background.time_to_full_redundancy();
  out.moves = background.moves_completed();
  out.bytes = background.backfill_bytes();
  out.waits = background.throttle_waits();

  // Full redundancy restored: a fresh plan over both pools finds nothing.
  RecoveryManager check(cluster);
  EXPECT_TRUE(check.plan(pool).moves.empty());
  EXPECT_TRUE(check.plan(ec_pool).moves.empty());
  return out;
}

TEST(PacedRecovery, MarkOutTriggersPacedBackfillToFullRedundancy) {
  const RecoveryOutcome out = paced_recovery_run(200.0e6, ms(5));
  EXPECT_GT(out.moves, 0u);
  EXPECT_GT(out.bytes, 0u);
  EXPECT_GT(out.ttfr, 0);
}

TEST(PacedRecovery, TighterThrottleTradesTimeToFullRedundancy) {
  // Generous pace_cap so the token bucket (not the cap) sets the pace.
  const RecoveryOutcome slow = paced_recovery_run(10.0e6, ms(100));
  const RecoveryOutcome fast = paced_recovery_run(400.0e6, ms(100));
  ASSERT_GT(slow.moves, 0u);
  EXPECT_EQ(slow.moves, fast.moves) << "same placement delta both runs";
  EXPECT_GT(slow.waits, 0u);
  EXPECT_GT(slow.ttfr, fast.ttfr)
      << "a tighter recovery_max_bps must stretch time-to-full-redundancy";
}

TEST(PacedRecovery, PaceCapBoundsStarvationUnderTinyBudget) {
  // A budget this small (100 kB/s for ~8 kB moves) would park recovery for
  // seconds; the pace cap clips each grant wait, so backfill still lands.
  const RecoveryOutcome out = paced_recovery_run(1.0e5, ms(1));
  EXPECT_GT(out.moves, 0u);
  EXPECT_GT(out.waits, 0u);
  // Every move waited at most pace_cap for its grant; with the plans run
  // sequentially per pool the episode stays near moves * cap, not
  // bytes / bps (which would be ~100x longer).
  EXPECT_LT(out.ttfr, static_cast<Nanos>(out.moves + 16) * ms(1) + ms(50));
}

// --- two-class station ------------------------------------------------------

TEST(TwoClassStation, BackgroundYieldsToClientsButIsNotStarved) {
  sim::Simulator sim;
  sim::FifoServer server(sim, 1, "station");
  server.set_starve_limit(2);

  std::vector<int> order;
  // One background job waiting behind a stream of client jobs: the guard
  // admits it after two consecutive client dispatches bypass it.
  server.submit(us(10), [&] { order.push_back(0); });
  server.submit_background(us(10), [&] { order.push_back(100); });
  for (int i = 1; i <= 4; ++i)
    server.submit(us(10), [&, i] { order.push_back(i); });
  sim.run();

  ASSERT_EQ(order.size(), 6u);
  // Clients 1 and 2 preempt the waiting background job; the starve limit
  // then admits it before clients 3 and 4.
  const std::vector<int> expected{0, 1, 2, 100, 3, 4};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(server.preemptions(), 2u);
  EXPECT_EQ(server.bg_busy_time(), us(10));
}

// --- validator: background_leak ---------------------------------------------

TEST(BackgroundLeak, UnresolvedBackgroundWorkFailsQuiescence) {
  PipelineValidator validator;
  validator.on_background_scheduled();
  validator.on_background_scheduled();
  validator.on_background_resolved();
  EXPECT_GT(validator.verify_quiescent(), 0u);
  EXPECT_GE(validator.violations(PipelineValidator::Violation::background_leak),
            1u);
}

TEST(BackgroundLeak, BalancedWorkIsQuiescent) {
  PipelineValidator validator;
  validator.on_background_scheduled();
  validator.on_background_resolved();
  EXPECT_EQ(validator.verify_quiescent(), 0u);
  EXPECT_EQ(validator.violations(PipelineValidator::Violation::background_leak),
            0u);
}

// --- armed Framework: budget accounting under bursty client load ------------

TEST(FrameworkBackground, ArmedRunChargesAndReportsBackgroundActivity) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 16 * MiB;
  cfg.background.enabled = true;
  cfg.background.scrub_interval = ms(5);
  cfg.background.horizon = ms(30);
  cfg.background.scrub_bps = 20.0e6;  // tight budget under client load

  sim::Simulator sim;
  core::Framework fw(sim, cfg);
  ASSERT_NE(fw.background(), nullptr);

  workload::FioEngine engine(fw);
  workload::FioJobSpec spec;
  spec.rw = workload::RwMode::rand_write;
  spec.bs = 4096;
  spec.iodepth = 32;
  spec.runtime = ms(10);
  spec.ramp = ms(1);
  spec.seed = 11;
  const workload::FioResult result = engine.run(spec);
  sim.run();

  EXPECT_GT(result.ops, 0u);
  // Background activity is real (charged) and reported via metrics.
  EXPECT_GT(fw.background()->scrub_bytes(), 0u);
  EXPECT_GT(fw.background()->throttle_waits(), 0u)
      << "bursty client load plus a tight budget must hit the throttle";
  const Counter* scrubbed = fw.metrics().find_counter("background.scrub_bytes");
  const Counter* waits =
      fw.metrics().find_counter("background.budget_throttle_waits");
  const Counter* preempt =
      fw.metrics().find_counter("background.client_preemptions");
  ASSERT_TRUE(scrubbed && waits && preempt);
  EXPECT_EQ(scrubbed->value(), fw.background()->scrub_bytes());
  EXPECT_GT(waits->value(), 0u);
  Nanos bg_busy = 0;
  for (std::size_t i = 0; i < fw.cluster().osd_count(); ++i)
    bg_busy += fw.cluster().osd(static_cast<int>(i)).workers().bg_busy_time();
  EXPECT_GT(bg_busy, 0);
  // Every scheduled chunk resolved: the background_leak rule holds.
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

}  // namespace
}  // namespace dk::rados
