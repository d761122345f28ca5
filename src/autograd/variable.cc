#include "autograd/variable.h"

#include <unordered_set>

#include "core/check.h"
#include "tensor/ops.h"

namespace sstban::autograd {

namespace {
thread_local bool g_grad_enabled = true;
// The hand-back of the Backward sweep running on this thread.
thread_local const LeafGradFn* g_hand_back = nullptr;
}  // namespace

void Node::AccumulateGrad(const tensor::Tensor& g) {
  SSTBAN_CHECK(g.shape() == shape)
      << "gradient shape" << g.shape().ToString() << "does not match value shape"
      << shape.ToString() << "for op" << op;
  if (!grad.defined()) {
    // Leaves own their gradient so optimizer writes stay private; an
    // interior node borrows the incoming tensor.
    grad = backward_fn ? g : g.Clone();
    return;
  }
  if (grad.shares_storage()) {
    grad = tensor::Add(grad, g);
    return;
  }
  float* dst = grad.data();
  const float* src = g.data();
  const int64_t n = grad.size();
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SendGrad(Node& parent, const tensor::Tensor& grad) {
  if (parent.backward_fn) {
    parent.AccumulateGrad(grad);
    return;
  }
  SSTBAN_CHECK(g_hand_back != nullptr) << "leaf gradient outside Backward";
  (*g_hand_back)(parent, grad);
}

const tensor::Tensor& Variable::value() const {
  SSTBAN_CHECK(defined());
  return value_;
}

tensor::Tensor& Variable::mutable_value() {
  SSTBAN_CHECK(defined());
  return value_;
}

const tensor::Tensor& Variable::grad() const {
  SSTBAN_CHECK(defined());
  SSTBAN_CHECK(node_->grad.defined()) << "no gradient accumulated for" << node_->op;
  return node_->grad;
}

tensor::Tensor& Variable::mutable_grad() {
  grad();  // CHECKs that there is one
  SSTBAN_CHECK(!node_->grad.shares_storage())
      << "gradient of" << node_->op << "shares its storage";
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad.defined(); }

bool Variable::requires_grad() const { return defined() && node_->requires_grad; }

Variable Variable::Detach() const {
  SSTBAN_CHECK(defined());
  return Variable(value_, /*requires_grad=*/false);
}

void Variable::ZeroGrad() {
  SSTBAN_CHECK(defined());
  node_->grad = tensor::Tensor();
}

void Variable::Backward() {
  Backward([](Node& leaf, const tensor::Tensor& g) { leaf.AccumulateGrad(g); });
}

void Variable::Backward(const LeafGradFn& hand_back) {
  SSTBAN_CHECK(defined());
  SSTBAN_CHECK_EQ(size(), 1) << "Backward() requires a scalar output";
  // Topological order via iterative post-order DFS over requiring parents.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  const LeafGradFn* outer = g_hand_back;
  g_hand_back = &hand_back;
  SendGrad(*node_, tensor::Tensor::Ones(value().shape()));
  // Reverse topological order: every node sees its full gradient before
  // propagating to parents, and nothing reads it afterwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->grad.defined()) {
      node->backward_fn(*node);
      if (node != node_.get()) node->grad = tensor::Tensor();
    }
  }
  g_hand_back = outer;
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }
bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

}  // namespace sstban::autograd
