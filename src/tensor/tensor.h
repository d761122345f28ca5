#ifndef SSTBAN_TENSOR_TENSOR_H_
#define SSTBAN_TENSOR_TENSOR_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/shape.h"

namespace sstban::tensor {

namespace internal {

// Ref-counted float buffer, allocated from (and recycled back to) the
// global core::StoragePool. Logical allocation and deallocation are
// reported to the MemoryTracker so training-time memory footprints can be
// measured. kUninitialized skips the zero-fill for callers that fully
// overwrite the buffer; kZeroed goes through the pool's AllocateZeroed so
// accumulate-into-output kernels (GEMM, conv) still start from zeros.
class Storage {
 public:
  enum class Init { kZeroed, kUninitialized };

  explicit Storage(int64_t num_elements, Init init = Init::kZeroed);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  int64_t num_elements() const { return num_elements_; }

 private:
  float* data_;
  int64_t num_elements_;
  int64_t capacity_;  // size-class capacity owed back to the pool
};

}  // namespace internal

// A dense, contiguous, row-major tensor of float32. Copying a Tensor is
// cheap: it shares the underlying storage (like a shared_ptr). Use Clone()
// for a deep copy. Mutating a tensor mutates all aliases — the autograd
// layer builds purely functional ops on top, so aliasing never surprises
// callers who stay at the Variable level.
class Tensor {
 public:
  // An empty (rank-0, storage-less) tensor; defined() is false.
  Tensor() = default;

  // Allocates zero-initialized storage of the given shape.
  explicit Tensor(Shape shape);

  // -- Factories ------------------------------------------------------------
  // Allocates storage with *unspecified* contents (no zero-fill, and the
  // pool may hand back a recycled buffer with stale values). Only for
  // callers that write every element before any read — see the memory
  // model section of DESIGN.md. Ops that accumulate into their output must
  // use Zeros instead.
  static Tensor Empty(Shape shape);
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // Takes ownership of `values`; CHECK-fails if sizes mismatch.
  static Tensor FromVector(Shape shape, std::vector<float> values);
  // [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);
  static Tensor RandomUniform(Shape shape, core::Rng& rng, float lo, float hi);
  static Tensor RandomNormal(Shape shape, core::Rng& rng, float mean = 0.0f,
                             float stddev = 1.0f);

  // -- Introspection ---------------------------------------------------------
  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  int64_t dim(int i) const { return shape_.dim(i); }
  int64_t size() const { return shape_.NumElements(); }

  float* data();
  const float* data() const;

  // True while another Tensor (a copy or a Reshape view) holds this
  // tensor's storage, i.e. an in-place write would be seen through it.
  bool shares_storage() const { return storage_.use_count() > 1; }

  // Element access by multi-dimensional index (rank must match).
  float& at(std::initializer_list<int64_t> index);
  float at(std::initializer_list<int64_t> index) const;

  // Value of a one-element tensor.
  float item() const;

  // -- Shape manipulation (storage-sharing, O(1)) ----------------------------
  // New view with the same elements; total element count must match.
  Tensor Reshape(Shape new_shape) const;

  // -- Copies ----------------------------------------------------------------
  Tensor Clone() const;
  // Overwrites this tensor's elements with `src`'s (shapes must match).
  void CopyFrom(const Tensor& src);
  void Fill(float value);

  std::vector<float> ToVector() const;

  // Compact debug string: shape plus leading elements.
  std::string ToString(int64_t max_elements = 16) const;

 private:
  Tensor(std::shared_ptr<internal::Storage> storage, Shape shape)
      : storage_(std::move(storage)), shape_(std::move(shape)) {}

  std::shared_ptr<internal::Storage> storage_;
  Shape shape_;
};

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_TENSOR_H_
