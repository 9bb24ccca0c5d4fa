#include "ec/reed_solomon.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "gf/gf256.hpp"

namespace dk::ec {

ReedSolomon::ReedSolomon(Profile profile) : profile_(profile) {
  DK_CHECK(profile_.k >= 1 && profile_.m >= 1);
  DK_CHECK(profile_.k + profile_.m <= gf::kFieldSize);
  generator_ = profile_.generator == GeneratorKind::cauchy
                   ? gf::Matrix::cauchy(profile_.k, profile_.m)
                   : gf::Matrix::systematic_vandermonde(profile_.k, profile_.m);
}

std::vector<Chunk> ReedSolomon::split(
    std::span<const std::uint8_t> object) const {
  const unsigned k = profile_.k;
  const std::size_t chunk_size = (object.size() + k - 1) / k;
  std::vector<Chunk> chunks;
  chunks.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    const std::size_t off =
        std::min(static_cast<std::size_t>(i) * chunk_size, object.size());
    const std::size_t n = std::min(chunk_size, object.size() - off);
    Chunk& chunk = chunks.emplace_back(object.begin() + off,
                                       object.begin() + off + n);
    chunk.resize(chunk_size, 0);  // zero padding of the last chunk(s)
  }
  return chunks;
}

Result<std::vector<Chunk>> ReedSolomon::encode(
    const std::vector<Chunk>& data) const {
  if (data.size() != profile_.k)
    return Status::Error(Errc::invalid_argument, "need exactly k data chunks");
  const std::size_t chunk_size = data.empty() ? 0 : data[0].size();
  for (const auto& c : data)
    if (c.size() != chunk_size)
      return Status::Error(Errc::invalid_argument, "unequal chunk sizes");

  std::vector<Chunk> coding;
  coding.reserve(profile_.m);
  for (unsigned i = 0; i < profile_.m; ++i) {
    const std::uint8_t* grow = generator_.row(profile_.k + i);
    Chunk& parity = coding.emplace_back(chunk_size, 0);
    for (unsigned j = 0; j < profile_.k; ++j)
      gf::mul_add_region(grow[j], data[j], parity);
  }
  return coding;
}

Result<std::vector<Chunk>> ReedSolomon::decode(
    const std::vector<std::optional<Chunk>>& chunks) const {
  const unsigned k = profile_.k;
  if (chunks.size() != profile_.total())
    return Status::Error(Errc::invalid_argument, "need k+m chunk slots");

  // Fast path: all data chunks present.
  bool all_data = true;
  for (unsigned i = 0; i < k; ++i)
    if (!chunks[i]) {
      all_data = false;
      break;
    }
  if (all_data) {
    std::vector<Chunk> out;
    out.reserve(k);
    for (unsigned i = 0; i < k; ++i) out.push_back(*chunks[i]);
    return out;
  }

  // Gather the first k surviving chunks and their generator rows.
  std::vector<std::size_t> rows;
  std::vector<const Chunk*> survivors;
  for (std::size_t i = 0; i < chunks.size() && rows.size() < k; ++i) {
    if (chunks[i]) {
      rows.push_back(i);
      survivors.push_back(&*chunks[i]);
    }
  }
  if (rows.size() < k)
    return Status::Error(Errc::corrupted, "fewer than k chunks survive");

  const std::size_t chunk_size = survivors[0]->size();
  for (const auto* c : survivors)
    if (c->size() != chunk_size)
      return Status::Error(Errc::invalid_argument, "unequal chunk sizes");

  auto sub = generator_.select_rows(rows);
  auto inv = sub.inverted();
  if (!inv.ok()) return inv.status();

  // data[j] = sum_i inv[j][i] * survivor[i]
  std::vector<Chunk> data(k, Chunk(chunk_size, 0));
  for (unsigned j = 0; j < k; ++j) {
    const std::uint8_t* row = inv->row(j);
    for (unsigned i = 0; i < k; ++i)
      gf::mul_add_region(row[i], *survivors[i], data[j]);
  }
  return data;
}

std::vector<std::uint8_t> ReedSolomon::assemble(
    const std::vector<Chunk>& data, std::size_t original_size) const {
  std::vector<std::uint8_t> out;
  out.reserve(original_size);
  for (const auto& c : data) {
    const std::size_t take = std::min(c.size(), original_size - out.size());
    out.insert(out.end(), c.begin(), c.begin() + static_cast<long>(take));
    if (out.size() == original_size) break;
  }
  out.resize(original_size, 0);
  return out;
}

std::uint64_t ReedSolomon::encode_ops(std::size_t object_bytes) const {
  const std::size_t chunk = (object_bytes + profile_.k - 1) / profile_.k;
  // m parity rows, each a k-way multiply-accumulate over the chunk bytes.
  return static_cast<std::uint64_t>(profile_.m) * profile_.k * chunk;
}

}  // namespace dk::ec
