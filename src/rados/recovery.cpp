#include "rados/recovery.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/pipeline_validator.hpp"
#include "ec/reed_solomon.hpp"

namespace dk::rados {

namespace {

/// Where every copy/shard of the pool's objects currently lives:
/// key (with shard) -> holder OSD ids.
std::map<ObjectKey, std::vector<int>> holders_of_pool(Cluster& cluster,
                                                      int pool) {
  std::map<ObjectKey, std::vector<int>> holders;
  for (std::size_t i = 0; i < cluster.osd_count(); ++i) {
    for (const ObjectKey& key :
         cluster.osd(static_cast<int>(i)).store().keys_of_pool(
             static_cast<std::uint32_t>(pool))) {
      holders[key].push_back(static_cast<int>(i));
    }
  }
  return holders;
}

}  // namespace

RecoveryPlan RecoveryManager::plan(int pool) const {
  RecoveryPlan out;
  out.pool = pool;
  const auto& pcfg = cluster_.pool(pool);
  auto holders = holders_of_pool(cluster_, pool);

  for (const auto& [key, held_by] : holders) {
    const auto acting = cluster_.acting_set(pool, key.oid);
    if (acting.empty()) {
      out.degraded.push_back(key);
      continue;
    }

    // Which OSDs *should* hold this key?
    std::vector<int> want;
    if (pcfg.mode == PoolConfig::Mode::replicated) {
      want = acting;  // every acting OSD holds a full copy
    } else {
      // EC: shard s lives on acting[s] only.
      if (key.shard < 0 ||
          static_cast<std::size_t>(key.shard) >= acting.size()) {
        out.degraded.push_back(key);
        continue;
      }
      want.push_back(acting[static_cast<std::size_t>(key.shard)]);
    }

    // Pick a surviving source (prefer one that is not down).
    int source = -1;
    for (int h : held_by)
      if (!cluster_.osd_down(h)) {
        source = h;
        break;
      }

    if (source < 0 && pcfg.mode == PoolConfig::Mode::erasure) {
      // No live holder of THIS shard: reconstruct it from k live siblings.
      const unsigned k = pcfg.ec_profile.k;
      std::vector<std::pair<int, ObjectKey>> sources;
      for (unsigned s = 0; s < pcfg.ec_profile.total() && sources.size() < k;
           ++s) {
        if (static_cast<std::int32_t>(s) == key.shard) continue;
        ObjectKey sibling = key;
        sibling.shard = static_cast<std::int32_t>(s);
        auto hit = holders.find(sibling);
        if (hit == holders.end()) continue;
        for (int h : hit->second)
          if (!cluster_.osd_down(h)) {
            sources.emplace_back(h, sibling);
            break;
          }
      }
      if (sources.size() < k) {
        out.degraded.push_back(key);
        continue;
      }
      const std::uint64_t bytes =
          cluster_.osd(sources[0].first).store().object_size(
              sources[0].second);
      for (int target : want) {
        RecoveryMove move;
        move.key = key;
        move.to_osd = target;
        move.bytes = bytes;
        move.reconstruct = true;
        move.sources = sources;
        out.moves.push_back(std::move(move));
      }
      continue;
    }
    if (source < 0) {
      out.degraded.push_back(key);
      continue;
    }

    const std::uint64_t bytes =
        cluster_.osd(source).store().object_size(key);
    for (int target : want) {
      const bool has = std::find(held_by.begin(), held_by.end(), target) !=
                       held_by.end();
      if (!has)
        out.moves.push_back(RecoveryMove{key, source, target, bytes, false, {}});
    }
  }
  return out;
}

std::vector<std::uint8_t> RecoveryManager::rebuild_shard(
    int pool, const RecoveryMove& move) const {
  const auto& pcfg = cluster_.pool(pool);
  const unsigned k = pcfg.ec_profile.k, m = pcfg.ec_profile.m;
  ec::ReedSolomon rs({k, m, pcfg.ec_profile.generator});
  std::vector<std::optional<ec::Chunk>> chunks(k + m);
  std::uint64_t chunk_size = 0;
  for (const auto& [holder, sibling] : move.sources) {
    const auto& store = cluster_.osd(holder).store();
    const std::uint64_t size = store.object_size(sibling);
    chunk_size = std::max(chunk_size, size);
  }
  for (const auto& [holder, sibling] : move.sources) {
    const auto& store = cluster_.osd(holder).store();
    chunks[static_cast<std::size_t>(sibling.shard)] =
        store.read(sibling, 0, chunk_size);
  }
  const auto shard = static_cast<std::size_t>(move.key.shard);
  if (shard < k) {
    auto decoded = rs.decode(chunks);
    if (!decoded.ok()) return {};
    return (*decoded)[shard];
  }
  // Parity shard: decode the data, then re-encode the missing parity.
  auto decoded = rs.decode(chunks);
  if (!decoded.ok()) return {};
  auto coding = rs.encode(*decoded);
  if (!coding.ok()) return {};
  return (*coding)[shard - k];
}

std::vector<std::pair<int, ObjectKey>> RecoveryManager::verified_siblings(
    const ObjectKey& key) const {
  const auto& profile = cluster_.pool(static_cast<int>(key.pool)).ec_profile;
  const auto acting = cluster_.acting_set(static_cast<int>(key.pool), key.oid);
  std::vector<std::pair<int, ObjectKey>> sources;
  for (unsigned s = 0; s < acting.size() && sources.size() < profile.k; ++s) {
    if (static_cast<std::int32_t>(s) == key.shard) continue;
    ObjectKey sibling = key;
    sibling.shard = static_cast<std::int32_t>(s);
    const int h = acting[s];
    const auto& st = cluster_.osd(h).store();
    if (!cluster_.osd_down(h) && !cluster_.object_degraded(h, sibling) &&
        st.exists(sibling) && st.verify(sibling, 0, st.object_size(sibling)))
      sources.emplace_back(h, sibling);
  }
  return sources;
}

std::vector<std::uint8_t> RecoveryManager::rebuild_verified_shard(
    const ObjectKey& key) const {
  const int pool = static_cast<int>(key.pool);
  RecoveryMove move;
  move.key = key;
  move.sources = verified_siblings(key);
  if (move.sources.size() < cluster_.pool(pool).ec_profile.k) return {};
  return rebuild_shard(pool, move);
}

void RecoveryManager::execute(const RecoveryPlan& plan,
                              const PacedOptions& options,
                              std::function<void()> done) {
  if (plan.moves.empty()) {
    cluster_.simulator().schedule_after(0, std::move(done));
    return;
  }
  struct State {
    const RecoveryPlan* plan;
    PacedOptions options;
    int pool = 0;
    std::size_t next = 0;
    std::size_t completed = 0;
    std::function<void()> done;
    std::function<void()> pump;
  };
  auto state = std::make_shared<State>();
  state->plan = &plan;
  state->options = options;
  state->pool = plan.pool;
  state->done = std::move(done);

  // Every planned destination is degraded until its copy lands: client
  // reads route around it (Cluster::object_degraded) instead of being
  // served not-yet-backfilled bytes. The object's write lock is taken for
  // the same span (Ceph's recovery_blocked): the plan's sources are frozen
  // at planning, so a write slipping in before the copy lands could reach
  // only the destination (or mutate a sibling shard mid-stripe) and be
  // clobbered by the push.
  for (const RecoveryMove& move : plan.moves) {
    cluster_.mark_object_degraded(move.to_osd, move.key);
    cluster_.note_recovery_begin(move.key);
  }

  // Bounded-parallel pump: each settled move starts the next. The pump
  // lives inside the State it drives, so it holds only a weak
  // self-reference — owning it would form a shared_ptr cycle and leak the
  // whole chain. Pending callbacks keep the State alive. A token grant
  // precedes each launch: a move waits until the recovery bucket (filled
  // at max_bps) has its bytes, clipped at pace_cap so an over-subscribed
  // budget can delay backfill but never park it.
  state->pump = [this, weak = std::weak_ptr<State>(state)] {
    auto state = weak.lock();
    if (!state || state->next >= state->plan->moves.size()) return;
    const RecoveryMove move = state->plan->moves[state->next++];

    sim::Simulator& sim = cluster_.simulator();
    const Nanos now = sim.now();
    Nanos earliest = std::max(now, next_grant_);
    if (state->options.pace_cap > 0 &&
        earliest - now > state->options.pace_cap)
      earliest = now + state->options.pace_cap;
    if (earliest > now) ++throttle_waits_;
    next_grant_ =
        earliest + (state->options.max_bps > 0
                        ? transfer_time(move.bytes, state->options.max_bps)
                        : 0);
    if (validator_ != nullptr) validator_->on_background_scheduled();

    auto settle = [this, state, move](bool landed) {
      cluster_.note_recovery_end(move.key);
      if (landed) {
        ++recovered_;
        bytes_ += move.bytes;
        cluster_.clear_object_degraded(move.to_osd, move.key);
      } else {
        // The copy never landed (an endpoint crashed): the destination
        // stays degraded until a later round completes the move.
        ++moves_cancelled_;
      }
      if (validator_ != nullptr) validator_->on_background_resolved();
      if (++state->completed == state->plan->moves.size()) {
        state->done();
        return;
      }
      state->pump();
    };
    // The launch re-arms itself while a client write to this object is in
    // flight: a copy snapshotted mid-fan-out could persist a version one
    // member has already superseded. Once launched, the object's write
    // lock (note_recovery_begin) holds until the move settles.
    auto launch = [this, state, move, settle](auto&& self) -> void {
      sim::Simulator& sim = cluster_.simulator();
      if (cluster_.client_write_inflight(move.key)) {
        ++write_blocked_defers_;
        sim.schedule_after(kWriteDrainRecheck,
                           [s = self]() mutable { s(s); });
        return;
      }
      // A crash since planning cancels the move (a later re-plan picks
      // it up); launching anyway would push into a dead OSD and the
      // copy would never resolve.
      const bool source_dead =
          move.reconstruct
              ? std::any_of(move.sources.begin(), move.sources.end(),
                            [this](const std::pair<int, ObjectKey>& s) {
                              return cluster_.osd(s.first).crashed();
                            })
              : cluster_.osd(move.from_osd).crashed();
      if (source_dead || cluster_.osd(move.to_osd).crashed()) {
        settle(false);
        return;
      }
      auto on_done = [settle = settle]() mutable { settle(true); };
      if (move.reconstruct) {
        cluster_.reconstruct_shard(
            move.sources, move.to_osd, move.key,
            [this, pool = state->pool, move] {
              return rebuild_shard(pool, move);
            },
            std::move(on_done));
      } else {
        cluster_.backfill(move.from_osd, move.to_osd, move.key,
                          std::move(on_done));
      }
    };
    sim.schedule_at(earliest, [launch = std::move(launch)]() mutable {
      launch(launch);
    });
  };
  const std::size_t starters = std::min<std::size_t>(
      options.max_parallel ? options.max_parallel : 1, plan.moves.size());
  for (std::size_t i = 0; i < starters; ++i) state->pump();
}

ScrubReport RecoveryManager::scrub(int pool) const {
  ScrubReport report;
  const auto& pcfg = cluster_.pool(pool);
  auto holders = holders_of_pool(cluster_, pool);

  for (const auto& [key, held_by] : holders) {
    ++report.objects_checked;
    const auto acting = cluster_.acting_set(pool, key.oid);

    std::vector<int> want;
    if (pcfg.mode == PoolConfig::Mode::replicated) {
      want = acting;
    } else if (key.shard >= 0 &&
               static_cast<std::size_t>(key.shard) < acting.size()) {
      want.push_back(acting[static_cast<std::size_t>(key.shard)]);
    }

    bool ok = true;
    for (int target : want) {
      if (std::find(held_by.begin(), held_by.end(), target) ==
          held_by.end()) {
        ++report.missing;
        ok = false;
      }
    }
    for (int holder : held_by) {
      if (std::find(want.begin(), want.end(), holder) == want.end()) {
        ++report.misplaced;
        ok = false;
      }
    }

    // Deep check. With integrity armed every copy/shard is verified
    // against its stored block checksums, which arbitrates even the
    // two-replica case: the copy whose bytes no longer match its CRCs is
    // the bad one. Without checksums all we can do is byte-diff replicas
    // (a diff proves disagreement but cannot name the culprit).
    if (cluster_.integrity()) {
      std::uint64_t bad = 0;
      for (int holder : held_by) {
        const auto& st = cluster_.osd(holder).store();
        if (!st.verify(key, 0, st.object_size(key))) ++bad;
      }
      if (bad > 0) {
        report.checksum_failures += bad;
        ++report.inconsistent;
        ok = false;
      }
    } else if (pcfg.mode == PoolConfig::Mode::replicated &&
               held_by.size() > 1) {
      const auto& first = cluster_.osd(held_by[0]).store();
      const auto ref =
          first.read(key, 0, first.object_size(key));
      for (std::size_t i = 1; i < held_by.size(); ++i) {
        const auto& other = cluster_.osd(held_by[i]).store();
        if (other.read(key, 0, other.object_size(key)) != ref) {
          ++report.inconsistent;
          ok = false;
          break;
        }
      }
    }
    if (ok) ++report.placements_ok;
  }
  return report;
}

ScrubReport RecoveryManager::repair(int pool) {
  ScrubReport report = scrub(pool);
  if (!cluster_.integrity() || report.checksum_failures == 0) return report;

  const auto& pcfg = cluster_.pool(pool);
  auto holders = holders_of_pool(cluster_, pool);
  for (const auto& [key, held_by] : holders) {
    std::vector<int> good, bad;
    for (int h : held_by) {
      const auto& st = cluster_.osd(h).store();
      if (st.verify(key, 0, st.object_size(key)))
        good.push_back(h);
      else
        bad.push_back(h);
    }
    if (bad.empty()) continue;

    std::vector<std::uint8_t> replacement;
    if (pcfg.mode == PoolConfig::Mode::replicated) {
      if (good.empty()) continue;  // every copy bad: unrepairable
      const auto& src = cluster_.osd(good[0]).store();
      replacement = src.read(key, 0, src.object_size(key));
    } else {
      replacement = rebuild_verified_shard(key);
      if (replacement.empty()) continue;  // not enough clean siblings
    }

    for (int h : bad) {
      // Full rewrite through the durable-apply path refreshes the block
      // checksums over the verified bytes, and — blockstore armed — lands
      // the repair in the journal like any client write.
      cluster_.osd(h).apply_durable(key, 0, replacement, {});
      ++report.repaired;
      ++scrub_repairs_;
      if (scrub_repairs_metric_ != nullptr) scrub_repairs_metric_->inc();
    }
  }
  return report;
}

void RecoveryManager::attach_metrics(MetricsRegistry& registry,
                                     const std::string& prefix) {
  scrub_repairs_metric_ = &registry.counter(prefix + ".scrub_repairs");
}

}  // namespace dk::rados
