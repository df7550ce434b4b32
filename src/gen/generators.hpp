// generators.hpp -- workload families for tests, examples and benches.
//
// Every generator is deterministic in its (params, seed) pair; all
// randomness flows through support/prng.hpp.  Families:
//
//   random_general     arbitrary bounded-degree max-min LPs (the E1/E3/E6
//                      workhorse; guaranteed connected and valid)
//   random_special_form instances already in §5 special form (E2/E7)
//   cycle_instance     agents on a cycle, consecutive-pair constraints and
//                      objectives; delta_I = delta_K = 2 (unit optimum = 1
//                      for unit coefficients -- handy sanity anchor)
//   path_instance      the acyclic cousin (communication graph is a tree;
//                      exercises §4.5 singleton-objective augmentation)
//   grid_instance      torus: horizontal constraint edges, vertical
//                      objective edges (scalable locality workload, E4)
//   tree_instance      random alternating tree (unfolding == graph)
//   sensor_instance    balanced data gathering (paper §1 motivation):
//                      sensors = objectives, sinks = capacity constraints,
//                      agents = sensor-sink assignments (bipartite LP)
//   bandwidth_instance fair bandwidth allocation (paper §1 motivation):
//                      links = constraints, customers = objectives,
//                      agents = path flow variables
//   layered_instance   Figure-1-style layered wheel (up/down role structure
//                      closed into a cycle of layers; the E5 tightness and
//                      shifting-loss probe)
#pragma once

#include <cstdint>

#include "lp/instance.hpp"
#include "support/prng.hpp"

namespace locmm {

struct RandomGeneralParams {
  std::int32_t num_agents = 40;
  std::int32_t delta_i = 3;           // max constraint degree
  std::int32_t delta_k = 3;           // max objective degree
  double extra_constraints = 0.7;     // extra rows per agent beyond backbone
  double extra_objectives = 0.4;      // extra rows per agent beyond cover
  double coeff_lo = 0.5;              // coefficients uniform in [lo, hi]
  double coeff_hi = 2.0;
  bool unit_coefficients = false;     // force all coefficients to 1 ({0,1} LP)
};
MaxMinInstance random_general(const RandomGeneralParams& p, std::uint64_t seed);

struct RandomSpecialParams {
  std::int32_t num_agents = 40;   // rounded up to fill the last objective
  std::int32_t delta_k = 3;       // objective sizes uniform in [2, delta_k]
  double extra_constraints = 1.0; // constraint rows per agent beyond backbone
  double coeff_lo = 0.5;
  double coeff_hi = 2.0;
  bool unit_coefficients = false;
};
MaxMinInstance random_special_form(const RandomSpecialParams& p,
                                   std::uint64_t seed);

struct CycleParams {
  std::int32_t num_agents = 12;  // >= 3
  double coeff_lo = 1.0;         // constraint coefficients
  double coeff_hi = 1.0;
  bool unit_objectives = true;   // c = 1; otherwise same range as a
};
MaxMinInstance cycle_instance(const CycleParams& p, std::uint64_t seed);

MaxMinInstance path_instance(std::int32_t num_agents);  // even, >= 4

struct GridParams {
  std::int32_t rows = 6;
  std::int32_t cols = 6;
  double coeff_lo = 1.0;
  double coeff_hi = 1.0;
};
MaxMinInstance grid_instance(const GridParams& p, std::uint64_t seed);

struct SpecialGridParams {
  std::int32_t rows = 6;  // even, >= 4: objectives pair rows 2k and 2k+1
  std::int32_t cols = 6;  // >= 3
  double coeff_lo = 1.0;  // horizontal constraint coefficients
  double coeff_hi = 1.0;
};
// Paired-row torus grid natively in §5 special form: every horizontal
// torus edge carries a degree-2 constraint, and the vertical edges between
// rows 2k and 2k+1 carry the (unit) objectives, so |Iv| = 2, |Kv| = 1,
// |Vk| = 2 for every agent.  Because |Kv| = 1 forces the vertical
// objectives to be a perfect matching of rows, consecutive row PAIRS are
// not coupled: the graph is rows/2 independent 2 x cols prisms (circular
// ladders) cut from the torus, not the fully 2D-coupled torus.  That is
// exactly what keeps it engine-L-tractable: unlike grid_instance (whose §4
// pipeline raises the comm-graph degree) or a fully coupled special-form
// torus (branching 3), radius-29 views here stay ~10^5 nodes, so
// whole-instance solves scale to R = 4.  With unit coefficients it is
// vertex-transitive up to the wrap-around port order: the grid workload of
// the class-collapse benchmarks.
MaxMinInstance special_grid_instance(const SpecialGridParams& p,
                                     std::uint64_t seed);

struct TreeParams {
  std::int32_t max_agents = 50;
  std::int32_t max_constraint_children = 2;  // per-agent constraint fanout
  std::int32_t delta_k = 3;                  // objective fanout <= delta_k - 1
  double grow_prob = 0.8;
  double coeff_lo = 0.5;
  double coeff_hi = 2.0;
};
MaxMinInstance tree_instance(const TreeParams& p, std::uint64_t seed);

struct SensorParams {
  std::int32_t num_sensors = 30;
  std::int32_t num_sinks = 10;
  std::int32_t max_sensors_per_sink = 4;  // = delta_I of the instance
  double range = 0.35;                    // connection radius in unit square
  double energy_exponent = 2.0;           // a ~ dist^exponent (path loss)
};
MaxMinInstance sensor_instance(const SensorParams& p, std::uint64_t seed);

struct BandwidthParams {
  std::int32_t num_routers = 16;
  std::int32_t num_chords = 8;        // extra links on top of the ring
  std::int32_t num_customers = 10;
  std::int32_t paths_per_customer = 3;
  double capacity_lo = 1.0;
  double capacity_hi = 4.0;
};
MaxMinInstance bandwidth_instance(const BandwidthParams& p,
                                  std::uint64_t seed);

struct RegularSpecialParams {
  std::int32_t num_objectives = 12;  // agents = num_objectives * delta_k
  std::int32_t delta_k = 3;          // every objective has exactly delta_k
  std::int32_t constraints_per_agent = 2;  // |Iv| = this, for every agent
  double coeff_lo = 1.0;
  double coeff_hi = 1.0;
  std::int32_t max_attempts = 200;   // pairing retries (simple graph)
};
// Fully regular special-form instance via the configuration model: every
// objective has exactly delta_k unit-coefficient agents, every agent has
// exactly `constraints_per_agent` degree-2 constraints with random partners
// (no self-loops, no parallel pairs).  Locally, every agent looks alike up
// to port numbering and coefficients -- the closest synthetic analogue of
// the lower-bound instances of [7], used by bench E5.
MaxMinInstance regular_special_instance(const RegularSpecialParams& p,
                                        std::uint64_t seed);

struct CirculantSpecialParams {
  std::int32_t num_objectives = 12;  // agents = num_objectives * delta_k
  std::int32_t delta_k = 3;          // objective size (consecutive blocks)
  std::int32_t stride = 5;           // partner offset; 2 * stride % n != 0
  double coeff_lo = 1.0;
  double coeff_hi = 1.0;
};
// Deterministic, structured counterpart of regular_special_instance:
// objective k covers the consecutive block of delta_k agents, and
// constraint j pairs agents {j, j + stride (mod n)}, so every agent has
// exactly two degree-2 constraints and one objective -- the same degree
// profile as the random configuration model, but circulant.  With unit
// coefficients all agents look alike up to the wrap-around port order, so
// the number of distinct radius-D views is O(D), independent of n: the
// "d-regular" workload where cross-agent view canonicalization collapses a
// 10k-agent solve to a handful of evaluations (the paper's lower-bound
// instances [7] are exactly such symmetric regular constructions).
MaxMinInstance circulant_special_instance(const CirculantSpecialParams& p,
                                          std::uint64_t seed);

struct LayeredParams {
  std::int32_t delta_k = 3;  // objective size (1 up-agent + delta_k-1 down)
  std::int32_t layers = 6;   // number of objective layers around the wheel
  std::int32_t width = 4;    // objectives per layer
  std::int32_t twist = 1;    // wiring offset between layers (girth knob)
};
MaxMinInstance layered_instance(const LayeredParams& p);

}  // namespace locmm
