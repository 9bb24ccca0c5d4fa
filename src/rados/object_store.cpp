#include "rados/object_store.hpp"

#include <algorithm>

#include "common/crc32c.hpp"

namespace dk::rados {

namespace {
constexpr std::uint64_t kBlock = kChecksumBlockBytes;
}  // namespace

void ObjectStore::store_bytes(const ObjectKey& key, std::uint64_t offset,
                              std::span<const std::uint8_t> data) {
  auto& obj = objects_[key];
  const std::uint64_t end = offset + data.size();
  if (obj.size() < end) obj.resize(end, 0);
  std::copy(data.begin(), data.end(),
            obj.begin() + static_cast<std::ptrdiff_t>(offset));
}

void ObjectStore::write(const ObjectKey& key, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        std::span<const std::uint32_t> checksums) {
  if (data.empty()) return;
  if (!integrity_) {
    store_bytes(key, offset, data);
    return;
  }
  const std::uint64_t old_size = object_size(key);
  const std::uint64_t end = offset + data.size();
  const std::uint64_t first = offset / kBlock;
  const std::uint64_t last = (end - 1) / kBlock;
  // Zero fill grows a partial old tail block below the write and creates
  // whole blocks between it and `offset`; they need checksums too. A full
  // old tail block is untouched and keeps its CRC.
  const std::uint64_t start = std::min(first, old_size / kBlock);

  // A block that keeps stored bytes this write does not replace may only be
  // re-checksummed if it verifies now; otherwise a media flip in the kept
  // bytes would get a fresh, matching CRC. Only the range's two edge
  // blocks can keep old bytes (a block between `start` and `first` holds
  // none), so only they are checked.
  auto keeps_unverified_bytes = [&](std::uint64_t b) {
    const std::uint64_t lo = b * kBlock;
    const std::uint64_t hi = std::min(lo + kBlock, old_size);
    return lo < old_size && (lo < offset || hi > end) && !verify(key, lo, 1);
  };
  const bool stale_start = keeps_unverified_bytes(start);
  const bool stale_last = keeps_unverified_bytes(last);

  store_bytes(key, offset, data);
  const auto& obj = objects_[key];
  auto& cs = checksums_[key];
  cs.resize((obj.size() + kBlock - 1) / kBlock, 0);
  // A client-provided checksum is only usable when this write fully covers
  // the block (and the write was block-aligned, so indices map).
  const bool aligned = offset % kBlock == 0;
  for (std::uint64_t b = start; b <= last; ++b) {
    // A stale block keeps its old CRC: verify() keeps failing until a
    // write replaces the whole block (read-repair, scrub repair).
    if ((b == start && stale_start) || (b == last && stale_last)) continue;
    const std::uint64_t block_start = b * kBlock;
    const std::uint64_t block_len =
        std::min<std::uint64_t>(kBlock, obj.size() - block_start);
    const std::uint64_t j = aligned && b >= first ? b - first
                                                  : checksums.size();
    const bool fully_covered =
        block_start >= offset && block_start + block_len <= end;
    if (fully_covered && j < checksums.size()) {
      cs[b] = checksums[j];
    } else {
      cs[b] = crc32c(std::span<const std::uint8_t>(obj).subspan(
          block_start, block_len));
    }
  }
}

std::vector<std::uint8_t> ObjectStore::read(const ObjectKey& key,
                                            std::uint64_t offset,
                                            std::uint64_t length) const {
  std::vector<std::uint8_t> out(length, 0);
  auto it = objects_.find(key);
  if (it == objects_.end()) return out;
  const auto& obj = it->second;
  if (offset >= obj.size()) return out;
  const std::uint64_t n = std::min<std::uint64_t>(length, obj.size() - offset);
  std::copy_n(obj.begin() + static_cast<std::ptrdiff_t>(offset), n,
              out.begin());
  return out;
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) > 0;
}

std::uint64_t ObjectStore::object_size(const ObjectKey& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.size();
}

void ObjectStore::remove(const ObjectKey& key) {
  objects_.erase(key);
  checksums_.erase(key);
}

std::vector<ObjectKey> ObjectStore::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [k, v] : objects_) out.push_back(k);
  return out;
}

std::vector<ObjectKey> ObjectStore::keys_of_pool(std::uint32_t pool) const {
  std::vector<ObjectKey> out;
  for (const auto& [k, v] : objects_)
    if (k.pool == pool) out.push_back(k);
  return out;
}

std::uint64_t ObjectStore::bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

// --- integrity mode ----------------------------------------------------------

bool ObjectStore::verify(const ObjectKey& key, std::uint64_t offset,
                         std::uint64_t length) const {
  if (!integrity_ || length == 0) return true;
  auto it = objects_.find(key);
  if (it == objects_.end()) return true;
  const auto& obj = it->second;
  if (offset >= obj.size()) return true;
  auto cit = checksums_.find(key);
  const std::span<const std::uint32_t> cs =
      cit == checksums_.end() ? std::span<const std::uint32_t>{}
                              : std::span<const std::uint32_t>(cit->second);
  const std::uint64_t check_end =
      std::min<std::uint64_t>(offset + length, obj.size());
  for (std::uint64_t b = offset / kBlock; b * kBlock < check_end; ++b) {
    const std::uint64_t block_start = b * kBlock;
    const std::uint64_t block_len =
        std::min<std::uint64_t>(kBlock, obj.size() - block_start);
    // Stored bytes with no recorded checksum (written before integrity was
    // armed) are treated as corrupt: absence of metadata for present data
    // is itself suspect.
    if (b >= cs.size()) return false;
    const std::uint32_t actual = crc32c(
        std::span<const std::uint8_t>(obj).subspan(block_start, block_len));
    if (actual != cs[b]) return false;
  }
  return true;
}

std::vector<std::uint32_t> ObjectStore::checksums_for(
    const ObjectKey& key, std::uint64_t offset, std::uint64_t length) const {
  std::vector<std::uint32_t> out;
  if (!integrity_ || length == 0 || offset % kBlock != 0) return out;
  auto it = objects_.find(key);
  auto cit = checksums_.find(key);
  if (it == objects_.end() || cit == checksums_.end()) return out;
  const auto& obj = it->second;
  const auto& cs = cit->second;
  // Only leading fully stored blocks: a partial tail block's stored CRC
  // covers fewer bytes than the zero-filled block the reader sees, so
  // shipping it would flag a false mismatch.
  for (std::uint64_t b = offset / kBlock;
       b * kBlock + kBlock <= std::min<std::uint64_t>(offset + length,
                                                      obj.size()) &&
       b < cs.size();
       ++b) {
    out.push_back(cs[b]);
  }
  return out;
}

std::span<std::uint8_t> ObjectStore::raw_bytes(const ObjectKey& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {};
  return std::span<std::uint8_t>(it->second);
}

}  // namespace dk::rados
