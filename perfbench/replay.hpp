// Host-time replays of single layers, measured from outside the stack.
//
// After a traced rep, the benchmark calls each layer's public function on
// the workload's own inputs, as many times as the registry says the real run
// did: CRUSH placements through crush::CrushMap::do_rule, Reed-Solomon
// encodes through ec::ReedSolomon::encode, the GF(2^8) region multiply
// underneath them, and CRC-32C over the bytes the stack checksummed. The
// replay's host time per unit of work is that layer's host cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "rados/cluster.hpp"

namespace perfbench {

struct ReplayCost {
  std::string layer;        // "crush", "ec", "gf", "crc32c"
  std::uint64_t ops = 0;    // placements, encodes, region multiplies, calls
  std::uint64_t bytes = 0;  // bytes processed (0 for crush)
  double host_s = 0;
};

/// `placements` do_rule calls for the objects `oids` (cycled) of `pool`,
/// with the same CRUSH input the RADOS client derives for them.
ReplayCost replay_crush(const dk::rados::Cluster& cluster, int pool,
                        const std::vector<std::uint64_t>& oids,
                        std::uint64_t placements);

/// `encodes` encodes of one `stripe_bytes` stripe.
ReplayCost replay_ec(const dk::ec::Profile& profile, std::uint64_t stripe_bytes,
                     std::uint64_t encodes, std::uint64_t seed);

/// `calls` gf::mul_add_region calls on `chunk_bytes` regions, with the
/// coefficients of the profile's parity rows in encode order.
ReplayCost replay_gf(const dk::ec::Profile& profile, std::uint64_t chunk_bytes,
                     std::uint64_t calls, std::uint64_t seed);

/// dk::crc32c over `bytes` bytes, in checksum-block sized pieces.
ReplayCost replay_crc32c(std::uint64_t bytes, std::uint64_t seed);

/// Bytes passed to dk::crc32c and dk::block_checksums so far by any caller
/// in this process (the benchmark links them through counting wrappers).
std::uint64_t crc32c_bytes_seen();

}  // namespace perfbench
