// Recovery, backfill, and scrub for the simulated cluster.
//
// When CRUSH placement changes (an OSD marked out, weights adjusted, disks
// added — the cluster-resize events that drive DFX reconfiguration in
// §IV.C), objects must move so the stored locations again match the acting
// sets. RecoveryManager computes that delta (the backfill plan), executes
// it over the simulated network with OSD service costs, and offers a
// scrub pass that verifies replica/shard consistency — the background
// machinery a Ceph cluster runs continuously.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rados/cluster.hpp"

namespace dk::rados {

/// Re-check cadence for recovery or repair work parked behind an in-flight
/// client write on its object (the launch side of the recovery_blocked
/// barrier).
inline constexpr Nanos kWriteDrainRecheck = us(20);

struct RecoveryMove {
  ObjectKey key;
  int from_osd = -1;  // copy source (-1 for reconstruction)
  int to_osd = -1;
  std::uint64_t bytes = 0;
  // EC reconstruction: no live holder of this shard exists, so it must be
  // rebuilt from k surviving sibling shards (decode at the target).
  bool reconstruct = false;
  std::vector<std::pair<int, ObjectKey>> sources;  // holder, sibling key
};

struct RecoveryPlan {
  int pool = 0;
  std::vector<RecoveryMove> moves;
  std::vector<ObjectKey> degraded;  // objects with no surviving source

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& m : moves) sum += m.bytes;
    return sum;
  }
};

struct ScrubReport {
  std::uint64_t objects_checked = 0;
  std::uint64_t placements_ok = 0;
  std::uint64_t misplaced = 0;      // copy exists but not on an acting OSD
  std::uint64_t missing = 0;        // acting OSD lacks its copy/shard
  std::uint64_t inconsistent = 0;   // objects with an identified bad copy
                                    // (integrity off: replica byte diff)
  std::uint64_t checksum_failures = 0;  // copies/shards failing verification
  std::uint64_t repaired = 0;           // copies/shards rewritten by repair()
};

class RecoveryManager {
 public:
  explicit RecoveryManager(Cluster& cluster) : cluster_(cluster) {}

  /// Compute the backfill plan for a pool: for every stored object, compare
  /// where its copies/shards are against the current acting set, and plan a
  /// copy from a surviving holder for each missing placement.
  RecoveryPlan plan(int pool) const;

  /// Throttle knobs for execute().
  struct PacedOptions {
    // Recovery token bucket: move launches are granted at this byte rate
    // across the whole plan (0 = unpaced).
    double max_bps = 0;
    unsigned max_parallel = 4;
    // Starvation guard: no move waits longer than this for its grant, so
    // backfill keeps moving even under an over-subscribed budget (0 = no
    // cap).
    Nanos pace_cap = ms(5);
  };

  /// Background-work accounting: each move is scheduled/resolved on the
  /// validator (the background_leak quiescence rule).
  void set_validator(PipelineValidator* validator) { validator_ = validator; }

  /// Execute a plan with at most `max_parallel` moves in flight, each
  /// launch granted by a token bucket at `max_bps`; `done` fires when the
  /// last move settles. Every copy and reconstruction leg rides the OSDs'
  /// background service class, so it queues with — and yields to — client
  /// I/O while simulated time passes. Moves whose source or target crashed
  /// by grant time are cancelled (counted in moves_cancelled()), not
  /// retried; a later re-plan picks them up.
  void execute(const RecoveryPlan& plan, const PacedOptions& options,
               std::function<void()> done);

  std::uint64_t throttle_waits() const { return throttle_waits_; }
  std::uint64_t moves_cancelled() const { return moves_cancelled_; }
  /// Move launches deferred behind an in-flight client write on the
  /// same object (the other half of the recovery_blocked barrier).
  std::uint64_t write_blocked_defers() const { return write_blocked_defers_; }

  /// Deep scrub: verify every stored object of the pool against its acting
  /// set. With cluster integrity armed the deep check is checksum-based —
  /// every copy and EC shard is verified against its stored block CRCs, so
  /// `inconsistent` identifies the bad copy even with only two replicas.
  /// Without integrity only byte-diffing replicas is possible (a diff says
  /// the copies disagree, not which one is bad).
  ScrubReport scrub(int pool) const;

  /// Checksum scrub + repair (integrity mode only; otherwise identical to
  /// scrub): every copy/shard failing verification is rewritten from a
  /// verified source — another replica, or an EC decode of k verified
  /// siblings. Unrepairable copies (no verified source) stay counted in
  /// `checksum_failures` but not `repaired`. Store mutations are immediate;
  /// no simulated time is charged (this scrub runs between measured phases
  /// — the in-band, time-charged variant is BackgroundScheduler's paced
  /// deep scrub).
  ScrubReport repair(int pool);

  /// The sibling shards an EC shard repair decodes from: up to k of them,
  /// each read from the OSD placement assigns it (acting_set()[shard]) when
  /// that OSD is up, not awaiting recovery of the shard, and its copy
  /// verifies clean. Stale copies left on out OSDs are never used. Fewer
  /// than k entries means the shard cannot be repaired now.
  std::vector<std::pair<int, ObjectKey>> verified_siblings(
      const ObjectKey& key) const;

  /// Decode an EC shard's full content from verified_siblings() (the
  /// shard-repair source for repair() and the background deep scrub).
  /// Empty when fewer than k clean siblings survive.
  std::vector<std::uint8_t> rebuild_verified_shard(const ObjectKey& key) const;

  std::uint64_t objects_recovered() const { return recovered_; }
  std::uint64_t bytes_recovered() const { return bytes_; }
  std::uint64_t scrub_repairs() const { return scrub_repairs_; }

  /// Publish scrub-repair activity under "<prefix>." (scrub_repairs).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  /// Functionally rebuild a missing EC shard from the move's sources.
  std::vector<std::uint8_t> rebuild_shard(int pool,
                                          const RecoveryMove& move) const;

  Cluster& cluster_;
  PipelineValidator* validator_ = nullptr;
  std::uint64_t recovered_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t scrub_repairs_ = 0;
  // execute(): earliest next token grant, and its accounting.
  Nanos next_grant_ = 0;
  std::uint64_t throttle_waits_ = 0;
  std::uint64_t moves_cancelled_ = 0;
  std::uint64_t write_blocked_defers_ = 0;
  Counter* scrub_repairs_metric_ = nullptr;
};

}  // namespace dk::rados
