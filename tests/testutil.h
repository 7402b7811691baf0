// Shared helpers for building small, fully-valid data centers in tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "dc/datacenter.h"
#include "scenario/generator.h"
#include "solver/matrix.h"

namespace tapo::test {

// A proportional-mixing cross-interference matrix: every outlet distributes
// to inlets proportionally to their flow. Satisfies the Appendix-B row-sum
// and flow-balance constraints exactly (though not the Table-II EC/RC
// ranges), which suffices for heat-flow tests.
inline solver::Matrix proportional_alpha(const dc::DataCenter& dc) {
  const std::size_t n = dc.num_entities();
  double total = 0.0;
  for (std::size_t e = 0; e < n; ++e) total += dc.entity_flow(e);
  solver::Matrix alpha(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      alpha(i, j) = dc.entity_flow(j) / total;
    }
  }
  return alpha;
}

// A tiny data center (node types from Table I) with proportional mixing.
// node_type_of[j] selects the type of node j.
inline dc::DataCenter make_tiny_dc(const std::vector<std::size_t>& node_type_of,
                                   std::size_t num_cracs,
                                   double static_fraction = 0.3) {
  dc::DataCenter out;
  out.node_types = dc::table1_node_types(static_fraction);
  for (std::size_t t : node_type_of) out.nodes.push_back({t});
  out.layout = dc::make_hot_cold_aisle_layout(node_type_of.size(), num_cracs);
  double node_flow = 0.0;
  for (std::size_t j = 0; j < node_type_of.size(); ++j) {
    node_flow += out.node_types[node_type_of[j]].airflow_m3s();
  }
  dc::CracSpec crac;
  crac.flow_m3s = node_flow / static_cast<double>(num_cracs);
  out.cracs.assign(num_cracs, crac);
  out.finalize();
  out.alpha = proportional_alpha(out);
  return out;
}

// A full scenario at reduced size; aborts the test on generation failure.
inline scenario::Scenario make_small_scenario(std::uint64_t seed,
                                              std::size_t num_nodes = 10,
                                              std::size_t num_cracs = 2) {
  scenario::ScenarioConfig config;
  config.num_nodes = num_nodes;
  config.num_cracs = num_cracs;
  config.seed = seed;
  auto result = scenario::generate_scenario(config);
  if (!result.has_value()) {
    throw std::runtime_error("scenario generation failed in test helper");
  }
  return std::move(*result);
}

// FNV-1a 64 over the object representation of every element: a bitwise
// fingerprint for pinning a published vector across commits (any change in
// any bit of any element changes it, with overwhelming probability).
template <typename T>
std::uint64_t bit_hash(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const T& v : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace tapo::test
