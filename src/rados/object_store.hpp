// In-memory object store backing one simulated OSD.
//
// Functionally faithful: bytes written through the stack are stored and can
// be read back (end-to-end data-integrity tests depend on this). An object
// is its logical size plus fixed-size extents of kExtentBytes. An extent is
// allocated uninitialized when a write first touches it and is never
// reallocated or moved afterwards, so an object grows without copying what
// it already holds. A removed object's extents are kept for reuse by later
// objects on the same thread. A per-block presence bit (block =
// kChecksumBlockBytes) marks the blocks that hold bytes; any other block in
// the logical size is a hole that is not stored and reads as zeros, like a
// hole in a sparse POSIX file. A write that covers a fresh block only partly
// zeroes the rest of it first, so a stored block never exposes uninitialized
// memory.
//
// Integrity mode (set_integrity(true), off by default) adds BlueStore-style
// per-object block checksums: every block of an object's logical size
// carries a CRC-32C, refreshed on write and checked by verify(). A hole
// block is checksummed as the zeros it reads as. flip_bits() — the media
// corruption injection point — leaves them stale; that is the point: stale
// checksums are how silent media corruption becomes detectable. A write
// never launders a stale block: it refreshes a block's CRC only when the
// block verified beforehand or the write replaced every stored byte of it.
// Crash consistency is not this store's job; the OSD's journaled Blockstore
// (rados/blockstore.hpp) owns it.
#pragma once

#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/crc32c.hpp"

namespace dk::rados {

struct ObjectKey {
  std::uint32_t pool = 0;
  std::uint64_t oid = 0;
  // EC shard index (-1 for whole objects / replicated copies).
  std::int32_t shard = -1;

  auto operator<=>(const ObjectKey&) const = default;
};

class ObjectStore {
 public:
  /// Write `data` at `offset`, extending the object as needed. In integrity
  /// mode the affected block checksums are refreshed; `checksums` (optional,
  /// from the client) supplies precomputed CRCs for blocks this write fully
  /// covers. A block the write leaves partly in place is recomputed from
  /// the stored bytes only if it verified before the write; a block that
  /// failed keeps its stale CRC, so verify() still flags it and read-repair
  /// heals it.
  void write(const ObjectKey& key, std::uint64_t offset,
             std::span<const std::uint8_t> data,
             std::span<const std::uint32_t> checksums = {});

  /// Read `length` bytes at `offset`; holes and bytes past the object's end
  /// read as zeros, as in a sparse file.
  std::vector<std::uint8_t> read(const ObjectKey& key, std::uint64_t offset,
                                 std::uint64_t length) const;

  bool exists(const ObjectKey& key) const;
  std::uint64_t object_size(const ObjectKey& key) const;
  void remove(const ObjectKey& key);

  std::size_t object_count() const { return objects_.size(); }
  /// Sum of logical object sizes, holes included.
  std::uint64_t bytes_stored() const;
  /// Blocks of `key` that hold bytes; every other block below its size is a
  /// hole. 0 when the object is absent.
  std::uint64_t stored_blocks(const ObjectKey& key) const;

  /// All stored object keys (scrub/backfill enumeration).
  std::vector<ObjectKey> keys() const;

  /// Keys belonging to one pool.
  std::vector<ObjectKey> keys_of_pool(std::uint32_t pool) const;

  // --- integrity mode ----------------------------------------------------

  void set_integrity(bool on) { integrity_ = on; }
  bool integrity() const { return integrity_; }

  /// Recompute CRC-32C over the stored bytes of every block overlapping
  /// [offset, offset + length) and compare against the checksum metadata.
  /// Blocks with no recorded checksum (written before integrity was armed)
  /// FAIL verification when any byte in range is stored —
  /// absence of a checksum for present data is itself suspect. Returns true
  /// when integrity is off, the object is absent, or all blocks check out.
  bool verify(const ObjectKey& key, std::uint64_t offset,
              std::uint64_t length) const;

  /// Stored checksums for the blocks overlapping [offset, offset + length),
  /// in block order, for shipping alongside read replies. Empty when
  /// integrity is off, the object is absent, or `offset` is not block-
  /// aligned (the receiver could not match blocks up).
  std::vector<std::uint32_t> checksums_for(const ObjectKey& key,
                                           std::uint64_t offset,
                                           std::uint64_t length) const;

  /// XOR `mask` into the byte at `pos` of an existing object, below its
  /// size — the media-corruption injection point. It deliberately bypasses
  /// checksum maintenance. A flip into a hole first stores that block as
  /// the zeros it read as.
  void flip_bits(const ObjectKey& key, std::uint64_t pos, std::uint8_t mask);

  /// Extent size: a whole number of checksum blocks. An extent's pages
  /// that no write touched cost no resident memory.
  static constexpr std::uint64_t kExtentBytes = std::uint64_t{1} << 20;

 private:
  static_assert(kExtentBytes % kChecksumBlockBytes == 0);
  static constexpr std::uint64_t kBlocksPerExtent =
      kExtentBytes / kChecksumBlockBytes;

  // Hands an extent's memory to this thread's free list (object_store.cpp),
  // where the next fresh extent takes it from.
  struct ExtentRelease {
    void operator()(std::uint8_t* bytes) const noexcept;
  };
  struct Extent {
    // kExtentBytes, uninitialized when handed out; null until touched.
    std::unique_ptr<std::uint8_t[], ExtentRelease> bytes;
    std::bitset<kBlocksPerExtent> present;  // blocks of `bytes` holding data
  };

  struct Object {
    std::uint64_t size = 0;       // logical size
    std::vector<Extent> extents;  // index = extent number
    // Per-block CRC-32C (index = block number). Only maintained in
    // integrity mode.
    std::vector<std::uint32_t> crcs;

    /// Stored bytes of block `b`, or nullptr for a hole.
    const std::uint8_t* block(std::uint64_t b) const;
    /// The logical bytes of block `b` (a hole reads as zeros): its CRC input.
    std::span<const std::uint8_t> block_view(std::uint64_t b) const;
    void store(std::uint64_t offset, std::span<const std::uint8_t> data);
  };

  bool integrity_ = false;
  std::map<ObjectKey, Object> objects_;
};

}  // namespace dk::rados
