#include "core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/require.hpp"

namespace osp {

Weight Instance::weighted_load(ElementId u) const {
  Weight w = 0;
  for (SetId s : parents_.row(u)) w += weights_[s];
  return w;
}

double Instance::adjusted_load(ElementId u) const {
  return static_cast<double>(load(u)) / static_cast<double>(capacities_[u]);
}

InstanceStats Instance::stats() const {
  InstanceStats st;
  st.num_sets = num_sets();
  st.num_elements = num_elements();

  for (std::size_t s = 0; s < weights_.size(); ++s) {
    st.total_weight += weights_[s];
    st.k_max = std::max(st.k_max, set_sizes_[s]);
    st.k_avg += static_cast<double>(set_sizes_[s]);
    if (weights_[s] != 1.0) st.unweighted = false;
    if (set_sizes_[s] != set_sizes_[0]) st.uniform_size = false;
  }
  if (!weights_.empty()) st.k_avg /= static_cast<double>(weights_.size());

  for (ElementId u = 0; u < num_elements(); ++u) {
    std::size_t sigma = load(u);
    Weight sw = weighted_load(u);
    double nu = adjusted_load(u);
    st.sigma_max = std::max(st.sigma_max, sigma);
    st.sigma_avg += static_cast<double>(sigma);
    st.sigma_sq_avg += static_cast<double>(sigma) * static_cast<double>(sigma);
    st.sigma_w_avg += sw;
    st.sigma_sigma_w_avg += static_cast<double>(sigma) * sw;
    st.nu_max = std::max(st.nu_max, nu);
    st.nu_avg += nu;
    st.nu_sigma_w_avg += nu * sw;
    st.b_max = std::max(st.b_max, capacities_[u]);
    if (capacities_[u] != 1) st.unit_capacity = false;
    if (sigma != load(0)) st.uniform_load = false;
  }
  if (num_elements() > 0) {
    auto n = static_cast<double>(num_elements());
    st.sigma_avg /= n;
    st.sigma_sq_avg /= n;
    st.sigma_w_avg /= n;
    st.sigma_sigma_w_avg /= n;
    st.nu_avg /= n;
    st.nu_sigma_w_avg /= n;
  }
  return st;
}

void Instance::validate() const {
  const std::size_t m = weights_.size();
  OSP_REQUIRE(set_sizes_.size() == m);
  OSP_REQUIRE(members_.num_rows() == m);
  OSP_REQUIRE(parents_.num_rows() == capacities_.size());
  OSP_REQUIRE(parents_.total_values() == members_.total_values());
  for (std::size_t s = 0; s < m; ++s) {
    OSP_REQUIRE_MSG(weights_[s] >= 0, "negative weight for set " << s);
    OSP_REQUIRE(members_.row_size(s) == set_sizes_[s]);
  }

  // Transpose walk: visiting elements in arrival order, each incidence
  // (u, s) must be the next unread entry of member row s, and every member
  // row must be read exactly to its end.  This proves members_ is exactly
  // the transpose of parents_, with each row in arrival order.
  const std::vector<std::size_t>& row_end = members_.offsets();
  const std::vector<ElementId>& member = members_.values();
  std::vector<std::size_t> next(row_end.begin(), row_end.end() - 1);
  for (ElementId u = 0; u < num_elements(); ++u) {
    OSP_REQUIRE_MSG(capacities_[u] >= 1, "element capacity must be >= 1");
    Span<SetId> par = parents_.row(u);
    for (std::size_t i = 0; i < par.size(); ++i) {
      const SetId s = par[i];
      OSP_REQUIRE(s < m);
      OSP_REQUIRE(i == 0 || par[i - 1] < s);  // sorted and distinct
      OSP_REQUIRE(next[s] < row_end[s + 1] && member[next[s]] == u);
      ++next[s];
    }
  }
  for (std::size_t s = 0; s < m; ++s) OSP_REQUIRE(next[s] == row_end[s + 1]);
}

std::string Instance::describe() const {
  InstanceStats st = stats();
  std::ostringstream os;
  os << "m=" << st.num_sets << " n=" << st.num_elements
     << " kmax=" << st.k_max << " smax=" << st.sigma_max
     << " w=" << st.total_weight
     << (st.unit_capacity ? "" : " varcap")
     << (st.unweighted ? "" : " weighted");
  return os.str();
}

SetId InstanceBuilder::add_set(Weight w) {
  OSP_REQUIRE_MSG(w >= 0, "set weight must be non-negative");
  OSP_REQUIRE(std::isfinite(w));
  weights_.push_back(w);
  return static_cast<SetId>(weights_.size() - 1);
}

SetId InstanceBuilder::add_sets(std::size_t count, Weight w) {
  OSP_REQUIRE(count >= 1);
  SetId first = add_set(w);
  for (std::size_t i = 1; i < count; ++i) add_set(w);
  return first;
}

ElementId InstanceBuilder::add_element(Span<SetId> parents,
                                       Capacity capacity) {
  OSP_REQUIRE_MSG(capacity >= 1, "element capacity must be >= 1");
  // Sort and check the row in place; a rejected row is popped again
  // before throwing, so the builder is unchanged.
  SetId* row = parents_.append_row(parents);
  SetId* row_end = row + parents.size();
  std::sort(row, row_end);
  const bool duplicate = std::adjacent_find(row, row_end) != row_end;
  const SetId last = parents.empty() ? 0 : row_end[-1];
  const bool unknown = !parents.empty() && last >= weights_.size();
  if (duplicate || unknown) {
    parents_.pop_row();
    OSP_REQUIRE_MSG(!duplicate, "duplicate parent set in element");
    OSP_REQUIRE_MSG(!unknown, "unknown set id " << last);
  }
  capacities_.push_back(capacity);
  return static_cast<ElementId>(capacities_.size() - 1);
}

void InstanceBuilder::reserve(std::size_t elements, std::size_t incidences) {
  capacities_.reserve(capacities_.size() + elements);
  parents_.reserve(elements, incidences);
}

Instance InstanceBuilder::build() {
  Instance inst;
  inst.weights_ = std::move(weights_);
  inst.capacities_ = std::move(capacities_);
  inst.parents_ = std::move(parents_);
  weights_ = {};
  capacities_ = {};
  parents_ = CsrArray<SetId>();
  inst.capacities_.shrink_to_fit();
  inst.parents_.shrink_to_fit();

  for (Capacity b : inst.capacities_)
    inst.max_capacity_ = std::max(inst.max_capacity_, b);
  inst.set_sizes_.assign(inst.weights_.size(), 0);
  for (SetId s : inst.parents_.values()) ++inst.set_sizes_[s];

  // Scatter the transpose into the per-set member CSR, using set_sizes_
  // as row extents; each member row comes out in arrival order.
  inst.members_ = CsrArray<ElementId>::from_sizes(inst.set_sizes_);
  {
    std::vector<std::size_t> fill(inst.members_.offsets().begin(),
                                  inst.members_.offsets().end() - 1);
    ElementId* member = inst.members_.mutable_row(0);
    for (ElementId u = 0; u < inst.num_elements(); ++u)
      for (SetId s : inst.parents_.row(u)) member[fill[s]++] = u;
  }

  inst.validate();
  return inst;
}

}  // namespace osp
