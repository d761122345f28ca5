#include "nn/serialization.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/crc32.h"
#include "core/failpoint.h"
#include "core/string_util.h"

namespace sstban::nn {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'T', 'B'};
constexpr uint32_t kVersion = 2;  // the only version LoadParameters accepts
constexpr size_t kFooterBytes = sizeof(uint32_t);

}  // namespace

void AppendTensor(core::BufferWriter& w, const tensor::Tensor& value) {
  w.Pod(static_cast<uint32_t>(value.rank()));
  for (int64_t d : value.shape().dims()) w.Pod(d);
  w.Bytes(value.data(), static_cast<size_t>(value.size()) * sizeof(float));
}

core::Status ReadTensor(core::BufferReader& r, tensor::Tensor* out) {
  uint32_t rank = 0;
  if (!r.Pod(&rank) || rank > 16) {
    return core::Status::IoError("corrupt tensor rank");
  }
  std::vector<int64_t> dims(rank);
  uint64_t numel = 1;
  for (uint32_t d = 0; d < rank; ++d) {
    if (!r.Pod(&dims[d]) || dims[d] < 0) {
      return core::Status::IoError("corrupt tensor dims");
    }
    // Overflow-safe product bound: nothing bigger than the bytes still in
    // the buffer can be legitimate.
    uint64_t dim = static_cast<uint64_t>(dims[d]);
    if (dim != 0 && numel > r.remaining() / dim + 1) {
      return core::Status::IoError("tensor larger than remaining bytes");
    }
    numel *= dim;
  }
  if (numel * sizeof(float) > r.remaining()) {
    return core::Status::IoError("truncated tensor data");
  }
  tensor::Tensor value{tensor::Shape(dims)};
  if (!r.Bytes(value.data(), static_cast<size_t>(numel) * sizeof(float))) {
    return core::Status::IoError("truncated tensor data");
  }
  *out = std::move(value);
  return core::Status::Ok();
}

core::Status SaveParameters(const Module& module, const std::string& path) {
  core::BufferWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.Pod(kVersion);
  auto named = module.NamedParameters();
  w.Pod(static_cast<uint64_t>(named.size()));
  for (const auto& [name, param] : named) {
    w.Pod(static_cast<uint64_t>(name.size()));
    w.Bytes(name.data(), name.size());
    AppendTensor(w, param.value());
  }
  w.Pod(core::Crc32(w.str().data(), w.str().size()));
  return core::WriteFileAtomic(path, w.str());
}

core::Status LoadParameters(Module* module, const std::string& path) {
  std::string blob;
  SSTBAN_RETURN_IF_ERROR(core::ReadFileToString(path, &blob));
  core::BufferReader r(blob);
  char magic[4];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return core::Status::InvalidArgument("not an SSTBAN checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!r.Pod(&version) || version != kVersion) {
    return core::Status::InvalidArgument(
        core::StrFormat("unsupported checkpoint version %u", version));
  }
  uint64_t count = 0;
  if (!r.Pod(&count)) return core::Status::IoError("truncated header");
  auto named = module->NamedParameters();
  if (count != named.size()) {
    return core::Status::InvalidArgument(core::StrFormat(
        "checkpoint has %llu parameters, module has %zu",
        static_cast<unsigned long long>(count), named.size()));
  }
  // Stage everything first so a mismatch leaves the module untouched.
  std::vector<tensor::Tensor> staged(named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    uint64_t name_len = 0;
    if (!r.Pod(&name_len) || name_len > 4096) {
      return core::Status::IoError("truncated or corrupt parameter name");
    }
    std::string name(name_len, '\0');
    if (!r.Bytes(name.data(), name_len)) {
      return core::Status::IoError("truncated parameter name");
    }
    if (name != named[i].first) {
      return core::Status::InvalidArgument(
          "parameter name mismatch: file has '" + name + "', module expects '" +
          named[i].first + "'");
    }
    tensor::Tensor value;
    core::Status read = ReadTensor(r, &value);
    if (!read.ok()) {
      return core::Status::IoError("truncated parameter data for '" + name +
                                   "' in " + path + ": " + read.message());
    }
    if (value.shape() != named[i].second.shape()) {
      return core::Status::InvalidArgument(
          "shape mismatch for '" + name + "': file " +
          value.shape().ToString() + " vs module " +
          named[i].second.shape().ToString());
    }
    staged[i] = std::move(value);
  }
  // A well-formed checkpoint ends exactly after the last parameter plus the
  // CRC footer; anything else (a truncated write that happened to end on a
  // record boundary, or a corrupted/concatenated file) must not be silently
  // accepted — the serving model registry hot-swaps on the strength of this
  // check.
  if (r.remaining() < kFooterBytes) {
    return core::Status::IoError("truncated checksum footer: " + path);
  }
  if (r.remaining() > kFooterBytes) {
    return core::Status::IoError("trailing bytes after last parameter: " +
                                 path);
  }
  uint32_t stored = 0;
  r.Pod(&stored);
  uint32_t actual = core::Crc32(blob.data(), blob.size() - kFooterBytes);
  if (stored != actual) {
    return core::Status::IoError(core::StrFormat(
        "checksum mismatch (CRC32 %08x vs stored %08x): %s", actual, stored,
        path.c_str()));
  }
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.mutable_value().CopyFrom(staged[i]);
  }
  return core::Status::Ok();
}

}  // namespace sstban::nn
