#include "rados/object_store.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"

namespace dk::rados {

namespace {
constexpr std::uint64_t kBlock = kChecksumBlockBytes;
// What a hole block reads as and is checksummed as.
constexpr std::array<std::uint8_t, kBlock> kZeroBlock{};

// Extents released by removed objects and destroyed stores, linked through
// their first bytes. Simulations that run back to back (sweep cells,
// benchmark reps) each build a new cluster; handing extents back to malloc
// let it return their pages to the kernel, and the next run faulted every
// page in again.
struct FreeExtents {
  std::uint8_t* head = nullptr;

  FreeExtents() = default;
  FreeExtents(const FreeExtents&) = delete;
  FreeExtents& operator=(const FreeExtents&) = delete;
  ~FreeExtents() {
    while (std::uint8_t* bytes = take()) delete[] bytes;
  }

  std::uint8_t* take() {
    std::uint8_t* bytes = head;
    if (bytes != nullptr) std::memcpy(&head, bytes, sizeof(head));
    return bytes;
  }
  void give(std::uint8_t* bytes) {
    std::memcpy(bytes, &head, sizeof(head));
    head = bytes;
  }
};
thread_local FreeExtents free_extents;
}  // namespace

void ObjectStore::ExtentRelease::operator()(
    std::uint8_t* bytes) const noexcept {
  free_extents.give(bytes);
}

const std::uint8_t* ObjectStore::Object::block(std::uint64_t b) const {
  const std::uint64_t e = b / kBlocksPerExtent;
  const std::uint64_t i = b % kBlocksPerExtent;
  if (e >= extents.size() || !extents[e].present[i]) return nullptr;
  return extents[e].bytes.get() + i * kBlock;
}

std::span<const std::uint8_t> ObjectStore::Object::block_view(
    std::uint64_t b) const {
  const std::uint8_t* bytes = block(b);
  return {bytes != nullptr ? bytes : kZeroBlock.data(),
          std::min(kBlock, size - b * kBlock)};
}

void ObjectStore::Object::store(std::uint64_t offset,
                                std::span<const std::uint8_t> data) {
  const std::uint64_t end = offset + data.size();
  extents.resize(std::max<std::size_t>(extents.size(),
                                       (end - 1) / kExtentBytes + 1));
  for (std::uint64_t pos = offset; pos < end;) {
    Extent& ext = extents[pos / kExtentBytes];
    if (!ext.bytes) {
      std::uint8_t* bytes = free_extents.take();
      ext.bytes.reset(bytes != nullptr ? bytes
                                       : new std::uint8_t[kExtentBytes]);
    }
    const std::uint64_t lo = pos % kExtentBytes;
    const std::uint64_t hi = std::min(kExtentBytes, lo + (end - pos));
    for (std::uint64_t b = lo / kBlock; b * kBlock < hi; ++b) {
      // A fresh block the write covers only partly is zeroed first, so the
      // bytes the write leaves out read as the zeros they were.
      const bool partial = b * kBlock < lo || (b + 1) * kBlock > hi;
      if (partial && !ext.present[b])
        std::memset(ext.bytes.get() + b * kBlock, 0, kBlock);
      ext.present.set(b);
    }
    std::memcpy(ext.bytes.get() + lo, data.data() + (pos - offset), hi - lo);
    pos += hi - lo;
  }
  size = std::max(size, end);
}

void ObjectStore::write(const ObjectKey& key, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        std::span<const std::uint32_t> checksums) {
  if (data.empty()) return;
  Object& obj = objects_[key];
  if (!integrity_) {
    obj.store(offset, data);
    return;
  }
  const std::uint64_t old_size = obj.size;
  const std::uint64_t end = offset + data.size();
  const std::uint64_t first = offset / kBlock;
  const std::uint64_t last = (end - 1) / kBlock;
  // Growth adds bytes to a partial old tail block below the write and puts
  // whole hole blocks between it and `offset`; they need checksums too. A
  // full old tail block is untouched and keeps its CRC.
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

  obj.store(offset, data);
  auto& cs = obj.crcs;
  cs.resize((obj.size + kBlock - 1) / kBlock, 0);
  // A client-provided checksum is only usable when this write fully covers
  // the block (and the write was block-aligned, so indices map).
  const bool aligned = offset % kBlock == 0;
  for (std::uint64_t b = start; b <= last; ++b) {
    // A stale block keeps its old CRC: verify() keeps failing until a
    // write replaces the whole block (read-repair, scrub repair).
    if ((b == start && stale_start) || (b == last && stale_last)) continue;
    const std::span<const std::uint8_t> bytes = obj.block_view(b);
    const std::uint64_t block_start = b * kBlock;
    const std::uint64_t j = aligned && b >= first ? b - first
                                                  : checksums.size();
    const bool fully_covered =
        block_start >= offset && block_start + bytes.size() <= end;
    cs[b] = fully_covered && j < checksums.size() ? checksums[j]
                                                  : crc32c(bytes);
  }
}

std::vector<std::uint8_t> ObjectStore::read(const ObjectKey& key,
                                            std::uint64_t offset,
                                            std::uint64_t length) const {
  std::vector<std::uint8_t> out;
  out.reserve(length);
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    const Object& obj = it->second;
    const std::uint64_t end = std::min(offset + length, obj.size);
    for (std::uint64_t pos = offset; pos < end;) {
      const std::uint64_t n = std::min(kBlock - pos % kBlock, end - pos);
      if (const std::uint8_t* bytes = obj.block(pos / kBlock)) {
        bytes += pos % kBlock;
        out.insert(out.end(), bytes, bytes + n);
      } else {
        out.resize(out.size() + n, 0);
      }
      pos += n;
    }
  }
  out.resize(length, 0);
  return out;
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) > 0;
}

std::uint64_t ObjectStore::object_size(const ObjectKey& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.size;
}

void ObjectStore::remove(const ObjectKey& key) { objects_.erase(key); }

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
  for (const auto& [k, v] : objects_) total += v.size;
  return total;
}

std::uint64_t ObjectStore::stored_blocks(const ObjectKey& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return 0;
  std::uint64_t n = 0;
  for (const Extent& ext : it->second.extents) n += ext.present.count();
  return n;
}

void ObjectStore::flip_bits(const ObjectKey& key, std::uint64_t pos,
                            std::uint8_t mask) {
  auto it = objects_.find(key);
  DK_CHECK(it != objects_.end() && pos < it->second.size)
      << "media flip outside object (pool " << key.pool << ", oid " << key.oid
      << ", shard " << key.shard << ", byte " << pos << ")";
  Object& obj = it->second;
  const std::uint64_t b = pos / kBlock;
  if (obj.block(b) == nullptr) obj.store(b * kBlock, obj.block_view(b));
  obj.extents[pos / kExtentBytes].bytes[pos % kExtentBytes] ^= mask;
}

// --- integrity mode ----------------------------------------------------------

bool ObjectStore::verify(const ObjectKey& key, std::uint64_t offset,
                         std::uint64_t length) const {
  if (!integrity_ || length == 0) return true;
  auto it = objects_.find(key);
  if (it == objects_.end()) return true;
  const Object& obj = it->second;
  if (offset >= obj.size) return true;
  const std::uint64_t check_end = std::min(offset + length, obj.size);
  for (std::uint64_t b = offset / kBlock; b * kBlock < check_end; ++b) {
    // A block with no recorded checksum (written before integrity was
    // armed) is treated as corrupt: absence of metadata for present data
    // is itself suspect.
    if (b >= obj.crcs.size()) return false;
    if (crc32c(obj.block_view(b)) != obj.crcs[b]) return false;
  }
  return true;
}

std::vector<std::uint32_t> ObjectStore::checksums_for(
    const ObjectKey& key, std::uint64_t offset, std::uint64_t length) const {
  std::vector<std::uint32_t> out;
  if (!integrity_ || length == 0 || offset % kBlock != 0) return out;
  auto it = objects_.find(key);
  if (it == objects_.end()) return out;
  const Object& obj = it->second;
  // Only leading full blocks: a partial tail block's stored CRC covers
  // fewer bytes than the zero-filled block the reader sees, so shipping it
  // would flag a false mismatch.
  const std::uint64_t end = std::min(offset + length, obj.size);
  for (std::uint64_t b = offset / kBlock;
       b * kBlock + kBlock <= end && b < obj.crcs.size(); ++b) {
    out.push_back(obj.crcs[b]);
  }
  return out;
}

}  // namespace dk::rados
