#include "facet/aig/aig.hpp"

#include <stdexcept>
#include <utility>

namespace facet {

Aig::Aig()
{
  nodes_.push_back(NodeData{});  // node 0: constant false
}

Aig::Literal Aig::add_input(std::string name)
{
  if (!strash_.empty() || num_ands() > 0) {
    // Keeping all inputs before all AND nodes preserves the topological-id
    // invariant the rest of the library depends on.
    throw std::logic_error("Aig::add_input: inputs must be added before AND nodes");
  }
  const Node node = static_cast<Node>(nodes_.size());
  nodes_.push_back(NodeData{});
  inputs_.push_back(node);
  if (name.empty()) {
    // Appended, not `"i" + std::to_string(...)`: GCC 12 reports a spurious
    // -Wrestrict on that inlined concatenation.
    name.push_back('i');
    name += std::to_string(inputs_.size() - 1);
  }
  input_names_.push_back(std::move(name));
  return make_literal(node);
}

Aig::Literal Aig::add_and(Literal a, Literal b)
{
  if (literal_node(a) >= nodes_.size() || literal_node(b) >= nodes_.size()) {
    throw std::invalid_argument("Aig::add_and: literal out of range");
  }
  // Trivial cases.
  if (a == kFalse || b == kFalse || a == literal_not(b)) {
    return kFalse;
  }
  if (a == kTrue) {
    return b;
  }
  if (b == kTrue || a == b) {
    return a;
  }
  if (a > b) {
    std::swap(a, b);
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  if (const auto it = strash_.find(key); it != strash_.end()) {
    return make_literal(it->second);
  }
  const Node node = static_cast<Node>(nodes_.size());
  nodes_.push_back(NodeData{a, b});
  strash_.emplace(key, node);
  return make_literal(node);
}

Aig::Literal Aig::add_xor(Literal a, Literal b)
{
  // a XOR b = NOT(NOT(a AND NOT b) AND NOT(NOT a AND b))
  const Literal t0 = add_and(a, literal_not(b));
  const Literal t1 = add_and(literal_not(a), b);
  return add_or(t0, t1);
}

Aig::Literal Aig::add_mux(Literal sel, Literal if_true, Literal if_false)
{
  const Literal t = add_and(sel, if_true);
  const Literal e = add_and(literal_not(sel), if_false);
  return add_or(t, e);
}

void Aig::add_output(Literal lit, std::string name)
{
  if (literal_node(lit) >= nodes_.size()) {
    throw std::invalid_argument("Aig::add_output: literal out of range");
  }
  outputs_.push_back(lit);
  if (name.empty()) {
    name.push_back('o');
    name += std::to_string(outputs_.size() - 1);
  }
  output_names_.push_back(std::move(name));
}

}  // namespace facet
