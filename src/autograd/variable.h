#ifndef SSTBAN_AUTOGRAD_VARIABLE_H_
#define SSTBAN_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sstban::autograd {

class Node;
using NodePtr = std::shared_ptr<Node>;

// A node of the dynamic computation graph: the value's shape, the
// accumulated gradient, the parent nodes the value was computed from, and a
// closure that propagates this node's gradient into the parents. The node
// does not hold the forward value: Variable handles do, and each backward
// closure captures exactly the tensors its formula reads (DESIGN.md §9.4),
// so a value nothing reads is freed as soon as the forward drops it.
class Node {
 public:
  Node(tensor::Shape shape, bool requires_grad, std::string op)
      : shape(std::move(shape)), requires_grad(requires_grad), op(std::move(op)) {}

  tensor::Shape shape;
  // Set on first accumulation. A leaf (no backward_fn) owns a private copy;
  // an interior node keeps the incoming tensor, which may share storage with
  // a sibling's gradient, and drops it once its closure has run.
  tensor::Tensor grad;
  bool requires_grad;
  std::string op;
  std::vector<NodePtr> parents;
  // Propagates `grad` into the parents. Null for leaves.
  std::function<void(Node&)> backward_fn;

  // grad += g: adds in place while `grad` is unshared and out of place while
  // another tensor holds its storage. Bitwise equal to a scalar `+=` loop.
  void AccumulateGrad(const tensor::Tensor& g);
};

// Receives each gradient a Backward sweep sends to a leaf, in sweep order.
using LeafGradFn = std::function<void(Node& leaf, const tensor::Tensor& grad)>;

// How a backward closure passes `grad` to `parent`: an interior node
// accumulates it; a leaf's goes to the hand-back of this thread's sweep.
void SendGrad(Node& parent, const tensor::Tensor& grad);

// Handle to a graph value: the forward tensor plus its graph node. Variables
// are cheap to copy; copies share the tensor's storage and the node.
// Operations on Variables (see autograd/ops.h) record the graph when
// gradients are enabled and any input requires them.
class Variable {
 public:
  // An undefined variable; defined() is false.
  Variable() = default;

  // Wraps a tensor as a graph leaf.
  explicit Variable(tensor::Tensor value, bool requires_grad = false)
      : value_(std::move(value)),
        node_(std::make_shared<Node>(value_.shape(), requires_grad, "leaf")) {}

  // Internal: pairs an op's result with the node that recorded it.
  Variable(tensor::Tensor value, NodePtr node)
      : value_(std::move(value)), node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const;
  // This handle's tensor. Writing through it (data(), CopyFrom) reaches every
  // copy of the handle and every closure that saved the value, since they
  // share its storage; assigning a different tensor to it changes this
  // handle only.
  tensor::Tensor& mutable_value();
  const tensor::Tensor& grad() const;
  // The accumulated gradient for in-place updates such as clipping.
  // CHECK-fails when another tensor shares its storage, so a write can never
  // reach a second gradient.
  tensor::Tensor& mutable_grad();
  bool has_grad() const;
  bool requires_grad() const;

  const tensor::Shape& shape() const { return value().shape(); }
  int rank() const { return value().rank(); }
  int64_t dim(int i) const { return value().dim(i); }
  int64_t size() const { return value().size(); }
  float item() const { return value().item(); }

  // A leaf sharing this variable's value but cut off from the graph.
  Variable Detach() const;

  // Clears the accumulated gradient (leaves keep requiring grad).
  void ZeroGrad();

  // Reverse-mode sweep from this (scalar) variable: seeds d(this)/d(this)=1
  // and accumulates gradients into every reachable node that requires them.
  // Afterwards only the leaves and this variable hold gradients; each
  // interior node's gradient is dropped once its closure has run.
  void Backward();

  // The same sweep, handing the leaves' gradients to `hand_back` (Backward()
  // hands them to Node::AccumulateGrad), so sweeps over tapes that share
  // leaves can run concurrently into storage each owns.
  void Backward(const LeafGradFn& hand_back);

  NodePtr node() const { return node_; }

 private:
  tensor::Tensor value_;
  NodePtr node_;
};

// Disables graph recording while alive (like torch.no_grad()). Ops executed
// under the guard produce detached results; use for evaluation loops.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  static bool GradEnabled();

 private:
  bool previous_;
};

}  // namespace sstban::autograd

#endif  // SSTBAN_AUTOGRAD_VARIABLE_H_
