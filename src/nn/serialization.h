#ifndef SSTBAN_NN_SERIALIZATION_H_
#define SSTBAN_NN_SERIALIZATION_H_

#include <string>

#include "core/file_io.h"
#include "core/status.h"
#include "nn/module.h"

namespace sstban::nn {

// Binary checkpoint format for module parameters (version 2):
//   magic "SSTB" | uint32 version | uint64 param count |
//   per parameter: uint64 name length | name bytes |
//                  uint32 rank | int64 dims[rank] | float data[numel]
//   uint32 CRC32 over every preceding byte
// Parameters are matched by their dotted registry path, so the module on
// the loading side must have the same architecture.
//
// Writes are atomic (temp file -> fsync -> rename): a crash mid-save leaves
// the previous checkpoint — or no file — at `path`, never a torn one. The
// reader rejects any other version, including the footer-less version 1,
// and verifies the CRC footer before trusting any value.

// Writes every named parameter of `module` to `path`.
core::Status SaveParameters(const Module& module, const std::string& path);

// Restores parameter values into `module`; fails (without partial writes
// to the module) if the checksum, names, counts, or shapes do not match.
core::Status LoadParameters(Module* module, const std::string& path);

// Tensor payload helpers shared with the training checkpoint format:
// rank | dims[rank] | float data. ReadTensor bounds-checks rank/dims against
// the bytes actually remaining, so corrupt length fields cannot trigger
// huge allocations.
void AppendTensor(core::BufferWriter& w, const tensor::Tensor& value);
core::Status ReadTensor(core::BufferReader& r, tensor::Tensor* out);

}  // namespace sstban::nn

#endif  // SSTBAN_NN_SERIALIZATION_H_
